// Ablation AB3: the full code family on the Fig. 6b plane.  Sweeps the
// Hamming ladder (m = 3..7), the shortened codes, SECDED variants and
// repetition baselines at a fixed BER target, then prints the Pareto
// front — showing where the paper's two chosen codes sit inside the
// larger design space.
//
// The sweep itself is one declarative grid on the photecc::explore
// engine; the front comes from the engine's generic Pareto extraction.
#include <algorithm>
#include <iostream>

#include "photecc/core/report.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/math/units.hpp"

int main() {
  using namespace photecc;
  std::vector<std::string> code_names;
  for (const auto& code : ecc::all_known_codes())
    code_names.push_back(code->name());

  const explore::SweepRunner runner;
  for (const double ber : {1e-9, 1e-11}) {
    std::cout << "=== Ablation AB3: code family sweep @ BER "
              << math::format_sci(ber, 0) << " ===\n\n";
    explore::ScenarioGrid grid;
    grid.codes(code_names).ber_targets({ber});
    const auto result = runner.run(grid);
    const auto sweep = result.cells.to_tradeoff_sweep();
    core::print_table(std::cout, "All codes ('*' = Pareto-optimal):",
                      core::pareto_table(sweep));

    // Name the front and locate the paper's picks.
    const auto front = result.pareto_front(explore::fig6b_objectives());
    std::cout << "Pareto front (by CT): ";
    for (std::size_t i = 0; i < front.size(); ++i) {
      if (i) std::cout << " -> ";
      std::cout << result.cells.scheme(front[i]).scheme;
    }
    std::cout << "\n";
    const auto on_front = [&](const std::string& name) {
      return std::any_of(front.begin(), front.end(), [&](std::size_t i) {
        return result.cells.scheme(i).scheme == name;
      });
    };
    std::cout << "Paper's picks: H(71,64) "
              << (on_front("H(71,64)") ? "ON" : "off") << " the front, "
              << "H(7,4) " << (on_front("H(7,4)") ? "ON" : "off")
              << " the front.\n\n";
  }

  std::cout << "Reading: the long Hamming codes (H(63,57), H(127,120), "
               "H(71,64)) crowd the low-CT end, the short strong codes "
               "and repetition own the low-power end at ruinous CT; the "
               "paper's pair spans the useful middle.\n";
  return 0;
}
