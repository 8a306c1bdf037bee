#include "photecc/explore/runner.hpp"

#include <algorithm>
#include <chrono>

#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/plan.hpp"
#include "photecc/math/parallel.hpp"

namespace photecc::explore {

ExperimentResult SweepRunner::run(const ScenarioGrid& grid) const {
  return run(grid, PlanOptions{}.block_size, BlockCallback{});
}

ExperimentResult SweepRunner::run(const ScenarioGrid& grid,
                                  std::size_t block_size,
                                  const BlockCallback& on_block) const {
  if (!grid.runs_simulator())
    return LoweredPlan{grid, {block_size}}.execute(options_.threads,
                                                   on_block);

  ExperimentResult result;
  const std::size_t n = grid.size();
  result.cells = ResultTable(result_schema(grid), n);
  const std::size_t threads =
      options_.threads ? options_.threads : math::default_thread_count();
  result.threads_used = std::max<std::size_t>(1, std::min(threads, n));

  // One simulation per work unit (they are long and uneven), delivered
  // in blocks of block_size.
  const auto start = std::chrono::steady_clock::now();
  math::parallel_for_blocks_ordered(
      n, 1, block_size, threads,
      [&](std::size_t i, std::size_t) {
        evaluate_network_cell(grid.at(i), result.cells);
      },
      [&](std::size_t begin, std::size_t end) {
        if (on_block) on_block(begin, end, result.cells);
      });
  result.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace photecc::explore
