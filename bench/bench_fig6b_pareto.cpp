// Fig. 6b reproduction: the (Pchannel, CT) power/performance plane for
// BER targets 1e-6 .. 1e-12.  The paper's claim: for every BER, all
// three schemes are Pareto-optimal (uncoded = fast & hungry, H(7,4) =
// slow & frugal, H(71,64) in between).
//
// Runs on the declarative spec API: the whole experiment — code menu,
// BER targets and Pareto objectives — is the "fig6b" ExperimentSpec
// preset (the same spec examples/specs/fig6b.json serializes), lowered
// by spec::run onto the parallel SweepRunner; per-BER fronts come from
// the engine's generic N-objective Pareto extraction with the spec's
// two objectives (CT, Pchannel), on one-BER runs of the same spec.
#include <iostream>

#include "photecc/core/report.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/math/table.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/run.hpp"

int main() {
  using namespace photecc;

  const spec::ExperimentSpec experiment =
      spec::preset_registry().make("fig6b", "preset");
  const std::vector<double>& bers = experiment.ber_targets;
  const auto objectives = spec::lower_objectives(experiment);
  const auto result = spec::run(experiment);

  std::cout << "=== Fig. 6b: power/performance trade-off wrt BER and "
               "ECC ===\n\n";
  core::print_table(std::cout,
                    "(CT, Pchannel) points; '*' = on the Pareto front:",
                    core::pareto_table(result.cells.to_tradeoff_sweep()));

  std::cout << "Per-BER Pareto fronts:\n";
  for (const double ber : bers) {
    spec::ExperimentSpec one_ber = experiment;
    one_ber.ber_targets = {ber};
    const auto slice = spec::run(one_ber);
    const auto front = slice.pareto_front(objectives);
    std::cout << "  BER " << math::format_sci(ber, 0) << ": ";
    for (std::size_t i = 0; i < front.size(); ++i) {
      if (i) std::cout << " -> ";
      std::cout << slice.cells.scheme(front[i]).scheme;
    }
    std::cout << "  (" << front.size() << " of " << slice.cells.size()
              << " schemes on the front)\n";
  }
  std::cout << "\nPaper: all coding techniques belong to the Pareto front "
               "for every BER; at 1e-12 the uncoded scheme drops out "
               "(infeasible).\n";
  return 0;
}
