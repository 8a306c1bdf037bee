// Parallel sweep execution: evaluates every cell of a ScenarioGrid on a
// pool of worker threads pulling cells from a shared atomic queue
// (work-stealing), with results written into the slot of their cell
// index.  Combined with the grid's index-derived per-cell seeding, a
// run's ExperimentResult — and its CSV/JSON serialisation — is
// byte-identical for any thread count.
#ifndef PHOTECC_EXPLORE_RUNNER_HPP
#define PHOTECC_EXPLORE_RUNNER_HPP

#include <functional>

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
  using Evaluator = std::function<CellResult(const Scenario&)>;

  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  /// Evaluates every cell of `grid` with `evaluate`.  The evaluator must
  /// be a pure function of the Scenario (the built-in ones are); it may
  /// be called concurrently from several threads.
  [[nodiscard]] ExperimentResult run(const ScenarioGrid& grid,
                                     const Evaluator& evaluate) const;

  /// Convenience: grids that run the simulator
  /// (ScenarioGrid::runs_simulator) run evaluate_network_cell per cell;
  /// every other grid is compiled to an explore::LoweredPlan and
  /// executed on its batched hot path — byte-identical exports to the
  /// evaluate_link_cell path, with result.stats reporting the plan's
  /// counters.
  [[nodiscard]] ExperimentResult run(const ScenarioGrid& grid) const;

  [[nodiscard]] const SweepOptions& options() const noexcept {
    return options_;
  }

 private:
  SweepOptions options_;
};

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_RUNNER_HPP
