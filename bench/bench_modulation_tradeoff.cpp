// OOK-vs-PAM4 energy/performance trade-off on the explore engine: the
// paper's (code x BER) plane doubled by the modulation axis.  PAM4
// halves the communication time of every scheme (2 bits/symbol at the
// same Fmod) but pays (M-1)^2 = 9x the laser SNR budget for the same
// raw BER, so the combined Pareto front shows where multilevel
// signaling buys time the coding layer cannot — and where the laser
// ceiling pushes PAM4 out entirely (the Karempudi et al. trade-off on
// top of the paper's coding analysis).
//
// On the paper's default 6 cm / 12-ONI channel no PAM4 point fits
// under the 700 uW deliverable maximum: multilevel signaling there is
// infeasible at every coding strength, itself a result.  The sweep
// therefore adds a short-reach 2 cm / 4-ONI variant, where PAM4 +
// strong BCH coding reaches CT < 1 — faster than ANY OOK scheme can
// ever be — defining a whole new region of the front.
//
//   bench_modulation_tradeoff            full sweep + Pareto table
//   bench_modulation_tradeoff --smoke    small grid, 1-vs-4-thread
//                                        byte-identity self-check (CI)
//
// Both modes end with a JSON summary block; the full sweep's counts are
// asserted by SpecRun.ModulationPresetCounts (tests/spec).
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "photecc/core/report.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/math/table.hpp"
#include "photecc/math/units.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/run.hpp"

namespace {

using namespace photecc;

/// The sweeps are the "modulation" / "modulation-smoke" ExperimentSpec
/// presets: full code menu on the paper channel plus the short-reach
/// link variant (full), paper schemes OOK-vs-PAM4 (smoke).
spec::ExperimentSpec make_spec(bool smoke) {
  return spec::preset_registry().make(
      smoke ? "modulation-smoke" : "modulation", "preset");
}

void print_json_summary(const explore::ExperimentResult& result,
                        const std::vector<std::size_t>& front,
                        bool identical) {
  const explore::ResultTable& cells = result.cells;
  std::size_t feasible = 0, pam4_cells = 0, pam4_on_front = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells.feasible(i)) ++feasible;
    if (cells.label(i, "modulation") == "pam4") ++pam4_cells;
  }
  for (const std::size_t i : front)
    if (cells.label(i, "modulation") == "pam4") ++pam4_on_front;
  std::cout << "{\n"
            << "  \"benchmark\": \"modulation_tradeoff\",\n"
            << "  \"cells\": " << result.cells.size() << ",\n"
            << "  \"pam4_cells\": " << pam4_cells << ",\n"
            << "  \"feasible_cells\": " << feasible << ",\n"
            << "  \"pareto_front_size\": " << front.size() << ",\n"
            << "  \"pam4_on_front\": " << pam4_on_front << ",\n"
            << "  \"identical_output\": " << (identical ? "true" : "false")
            << "\n}\n";
}

int run_smoke() {
  spec::ExperimentSpec experiment = make_spec(true);
  experiment.threads = 1;
  const auto sequential = spec::run(experiment);
  experiment.threads = 4;
  const auto parallel = spec::run(experiment);
  const bool identical = sequential.csv() == parallel.csv() &&
                         sequential.json() == parallel.json();
  const auto front =
      sequential.pareto_front(spec::lower_objectives(experiment));
  if (!identical) {
    std::cerr << "smoke FAILED: sequential and parallel exports differ\n";
    return 1;
  }
  if (front.empty()) {
    std::cerr << "smoke FAILED: empty OOK-vs-PAM4 Pareto front\n";
    return 1;
  }
  std::cout << "smoke OK: " << sequential.cells.size()
            << "-cell OOK-vs-PAM4 grid byte-identical at 1 vs 4 "
               "threads\n";
  print_json_summary(sequential, front, identical);
  return 0;
}

int run_full() {
  spec::ExperimentSpec experiment = make_spec(false);
  experiment.threads = 1;
  const auto result = spec::run(experiment);
  // The baseline JSON records the same 1-vs-N byte-identity check the
  // smoke mode performs, so the field is backed by a real comparison.
  experiment.threads = 4;
  const auto parallel = spec::run(experiment);
  const bool identical = result.csv() == parallel.csv() &&
                         result.json() == parallel.json();

  std::cout << "=== OOK vs PAM4: modulation/coding trade-off ("
            << result.cells.size() << " cells) ===\n\n";

  math::TextTable table({"link", "modulation", "scheme", "target BER",
                         "CT", "Plaser [mW]", "E/bit [pJ]", "feasible"});
  const explore::ResultTable& cells = result.cells;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells.feasible(i) && cells.label(i, "modulation") == "ook")
      continue;  // keep the table focused; infeasible OOK is the paper
    const auto& m = cells.scheme(i);
    table.add_row({
        cells.label(i, "link").value_or("paper"),
        cells.label(i, "modulation").value_or("ook"),
        m.scheme,
        math::format_sci(m.target_ber, 0),
        math::format_fixed(m.ct, 3),
        m.feasible ? math::format_fixed(math::as_milli(m.p_laser_w), 2)
                   : "-",
        m.feasible
            ? math::format_fixed(math::as_pico(m.energy_per_bit_j), 2)
            : "-",
        m.feasible ? "yes" : "NO",
    });
  }
  core::print_table(std::cout, "Per-format operating points:", table);

  const auto front = result.pareto_front(spec::lower_objectives(experiment));
  std::cout << "Combined (CT, Pchannel) Pareto front:\n";
  std::size_t sub_unity_ct = 0;
  for (const std::size_t i : front) {
    const core::SchemeMetrics& m = cells.scheme(i);
    if (m.ct < 1.0) ++sub_unity_ct;
    std::cout << "  " << cells.label(i, "link").value_or("paper") << " "
              << cells.label(i, "modulation").value_or("ook") << " "
              << m.scheme << " @ BER " << math::format_sci(m.target_ber, 0)
              << " (CT " << math::format_fixed(m.ct, 3) << ", "
              << math::format_fixed(math::as_milli(m.p_channel_w), 2)
              << " mW)\n";
  }
  std::cout << "\nPAM4 + strong coding opens the CT < 1 region ("
            << sub_unity_ct
            << " front points) that no OOK scheme reaches; on the "
               "paper's default channel PAM4 is infeasible at every "
               "coding strength.\n\n";
  print_json_summary(result, front, identical);
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_modulation_tradeoff [--smoke]\n";
      return 2;
    }
  }
  return smoke ? run_smoke() : run_full();
}
