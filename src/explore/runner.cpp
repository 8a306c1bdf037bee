#include "photecc/explore/runner.hpp"

#include <algorithm>
#include <chrono>

#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/plan.hpp"
#include "photecc/math/parallel.hpp"

namespace photecc::explore {

ExperimentResult SweepRunner::run(const ScenarioGrid& grid,
                                  const Evaluator& evaluate) const {
  ExperimentResult result;
  const std::size_t n = grid.size();
  result.cells.resize(n);
  const std::size_t threads =
      options_.threads ? options_.threads : math::default_thread_count();
  result.threads_used = std::max<std::size_t>(1, std::min(threads, n));

  const auto start = std::chrono::steady_clock::now();
  math::parallel_for(n, threads, [&](std::size_t i) {
    result.cells[i] = evaluate(grid.at(i));
  });
  result.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

ExperimentResult SweepRunner::run(const ScenarioGrid& grid) const {
  // Simulator grids run NetworkSimulator per cell; everything else
  // compiles to a LoweredPlan (byte-identical to the per-cell
  // evaluate_link_cell path, ~10-100x faster — see bench_explore_hotpath).
  if (grid.runs_simulator())
    return run(grid, Evaluator{evaluate_network_cell});
  return LoweredPlan{grid}.execute(options_.threads);
}

}  // namespace photecc::explore
