// Quickstart: size the laser of one MWSR optical channel for a target
// BER, with and without ECC.
//
//   $ ./quickstart [target_ber]
//
// Walks the public API end to end on the declarative spec layer: the
// experiment — the paper's "paper" link variant, its three-scheme code
// menu and the BER target — is one ExperimentSpec aggregate whose
// designated initializers name each field, and spec::run checks and
// evaluates it on the explore engine.  The same spec could
// equally come from a JSON document (spec::from_json) or explore_cli
// flags; see README "Three ways to describe an experiment".
#include <cstdlib>
#include <iostream>

#include "photecc/core/report.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/link/link_budget.hpp"
#include "photecc/math/units.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/run.hpp"

int main(int argc, char** argv) {
  using namespace photecc;

  double target_ber = 1e-11;
  if (argc > 1) target_ber = std::strtod(argv[1], nullptr);
  if (target_ber <= 0.0 || target_ber >= 0.5) {
    std::cerr << "usage: quickstart [target_ber in (0, 0.5)]\n";
    return 1;
  }

  // 1. The experiment, declaratively: the paper's MWSR channel (12
  //    ONIs, 16 wavelengths, 6 cm waveguide — the "paper" link-registry
  //    variant) with the paper's three transmission schemes.
  const spec::ExperimentSpec experiment{
      .name = "quickstart",
      .base_link = "paper",
      .codes = explore::paper_scheme_names(),
      .ber_targets = {target_ber}};

  // 2. Where does the light go?  The stage-by-stage insertion-loss walk
  //    on the channel the spec's link variant describes.
  const link::MwsrChannel channel{
      spec::link_registry().make(experiment.base_link, "base.link")};
  std::cout << "Link budget (worst wavelength):\n";
  const auto budget =
      link::compute_link_budget(channel, channel.worst_channel());
  for (const auto& stage : budget.stages) {
    std::cout << "  " << stage.name << ": "
              << math::format_fixed(stage.loss_db, 3) << " dB\n";
  }
  std::cout << "  total: " << math::format_fixed(budget.total_loss_db, 2)
            << " dB + eye penalty "
            << math::format_fixed(budget.eye_penalty_db, 2) << " dB\n\n";

  // 3. Run the spec and print the paper's power/performance table.
  const auto result = spec::run(experiment);
  const std::vector<core::SchemeMetrics> metrics =
      result.cells.to_tradeoff_sweep().points;
  core::print_table(std::cout,
                    "Operating points @ target BER " +
                        math::format_sci(target_ber, 0) + ":",
                    core::metrics_table(metrics));

  // 4. One-line conclusion, like the paper's abstract.
  if (metrics[0].feasible && metrics[2].feasible) {
    const double saving =
        100.0 * (1.0 - metrics[2].p_laser_w / metrics[0].p_laser_w);
    std::cout << "Using H(7,4) cuts the laser power by "
              << math::format_fixed(saving, 1)
              << " % at the same BER, for a communication-time ratio of "
              << math::format_fixed(metrics[2].ct, 2) << ".\n";
  } else if (!metrics[0].feasible) {
    std::cout << "The uncoded scheme cannot reach this BER at all "
                 "(laser ceiling); the coded schemes can.\n";
  }
  return 0;
}
