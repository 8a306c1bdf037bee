// Sweep execution: the one entry point that runs any ScenarioGrid.
// Link grids compile to an explore::LoweredPlan; grids that run the
// simulator (ScenarioGrid::runs_simulator) evaluate
// evaluate_network_cell per cell on a pool of worker threads pulling
// cells from a shared atomic queue (work-stealing).  Either way every
// cell lands in the ResultTable row of its index and blocks stream out
// in ascending order through math::parallel_for_blocks_ordered, so a
// run's ExperimentResult — and its CSV/JSON serialisation — is
// byte-identical for any thread count.
#ifndef PHOTECC_EXPLORE_RUNNER_HPP
#define PHOTECC_EXPLORE_RUNNER_HPP

#include <cstddef>

#include "photecc/explore/grid.hpp"
#include "photecc/explore/result.hpp"

namespace photecc::explore {

struct SweepOptions {
  /// Worker threads: 0 = math::default_thread_count() (hardware
  /// concurrency), 1 = sequential on the calling thread.
  std::size_t threads = 0;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  /// Evaluates every cell of `grid`.  Link grids run on a LoweredPlan
  /// (result.stats reports its counters); simulator grids run
  /// evaluate_network_cell per cell (result.stats is unset).
  [[nodiscard]] ExperimentResult run(const ScenarioGrid& grid) const;

  /// Streaming run: like run(grid), but invokes `on_block` once per
  /// consecutive block of `block_size` cells in ascending order, each as
  /// soon as it and every earlier block are final — for link and
  /// simulator grids alike.  The assembled result is byte-identical to
  /// run(grid).
  [[nodiscard]] ExperimentResult run(const ScenarioGrid& grid,
                                     std::size_t block_size,
                                     const BlockCallback& on_block) const;

 private:
  SweepOptions options_;
};

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_RUNNER_HPP
