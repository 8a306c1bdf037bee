// Lowered sweep plans: the lower-once/execute-many hot path of the
// exploration engine.
//
// SweepRunner's legacy evaluator path re-derives every per-cell
// invariant from scratch: each cell builds an MwsrChannel (two O(NW^2)
// worst-channel scans — one in the solver, one in the link budget),
// re-runs the (code, target BER) code-model inversion (~45 Brent
// iterations) and re-formats its axis labels.  A LoweredPlan compiles a
// ScenarioGrid that does not run the simulator once:
//
//   lower    - one channel + core::ChannelSweepPlan + link budget per
//              distinct (link variant, ONI count, modulation,
//              environment) combo; one shared (code, BER) raw-BER
//              requirement table; one label string per axis value
//   execute  - axis-contiguous struct-of-arrays cell blocks: a gather
//              pass decodes indices and reads the requirement table, a
//              batched pass maps BER -> SNR, an assembly pass finishes
//              the closed-form power algebra
//
// Every cell is bit-identical to evaluate_link_cell on the same
// Scenario (the hoisted tables are computed by the same functions the
// one-shot path calls, and the closed-form tail keeps its exact
// expression trees), so CSV/JSON exports are byte-identical to the
// legacy path at any thread count and any block size.
#ifndef PHOTECC_EXPLORE_PLAN_HPP
#define PHOTECC_EXPLORE_PLAN_HPP

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "photecc/explore/grid.hpp"
#include "photecc/explore/result.hpp"

namespace photecc::explore {

struct PlanOptions {
  /// Cells per struct-of-arrays block (and per work-stealing unit).
  /// Any value yields byte-identical results; 64 keeps the scratch
  /// arrays cache-resident while amortising queue traffic.
  std::size_t block_size = 64;
};

class LoweredPlan {
 public:
  /// Compiles `grid`, which must not run the simulator (a network
  /// section or traffic/gating/policy cells need NetworkSimulator, not
  /// the link solver; see ScenarioGrid::runs_simulator — throws
  /// std::invalid_argument).  The grid is fully consumed at
  /// construction and need not outlive the plan.
  explicit LoweredPlan(const ScenarioGrid& grid, PlanOptions options = {});

  LoweredPlan(const LoweredPlan&) = delete;
  LoweredPlan& operator=(const LoweredPlan&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Lowering-side counters (cells / execute_time_s are filled per
  /// execute() call; warm_reuses here reflects one full execution).
  [[nodiscard]] const SweepStats& lowering_stats() const noexcept {
    return stats_;
  }

  /// Evaluates every cell: 0 threads = hardware concurrency, 1 =
  /// sequential on the calling thread.  The result (and its CSV/JSON
  /// serialisation) is byte-identical for any thread count, and to
  /// SweepRunner's legacy evaluate_link_cell path on the same grid.
  /// result.stats carries this plan's counters.
  [[nodiscard]] ExperimentResult execute(std::size_t threads = 1) const;

  /// Observer of one finished cell block: cells[begin, end) of the
  /// result vector are fully evaluated when it runs.
  using BlockCallback = std::function<void(
      std::size_t begin, std::size_t end,
      const std::vector<CellResult>& cells)>;

  /// Block-streaming execution: like execute(threads), but invokes
  /// `on_block` once per block of PlanOptions::block_size cells, in
  /// ascending block order — block k is always delivered before block
  /// k+1, at ANY thread count, even though blocks *compute* out of
  /// order under work stealing (a finished block is held back until
  /// every earlier one has been delivered; callbacks never run
  /// concurrently).  Large grids therefore stream results while later
  /// blocks are still computing, which is what the serve daemon's
  /// incremental `cells` records are built on.  The assembled result
  /// is byte-identical to the one-shot execute(threads).  A throwing
  /// callback aborts the sweep with parallel_for's first-exception
  /// semantics.
  [[nodiscard]] ExperimentResult execute(std::size_t threads,
                                         const BlockCallback& on_block) const;

 private:
  /// One hoisted channel context: everything that depends only on the
  /// (link variant, ONI count, modulation, environment) axis digits.
  struct ChannelCombo {
    std::unique_ptr<link::MwsrChannel> channel;  ///< owns; plan points in
    std::unique_ptr<core::ChannelSweepPlan> plan;
    math::Modulation modulation = math::Modulation::kOok;
    double total_loss_db = 0.0;  ///< channel-invariant link budget
  };

  void execute_block(std::size_t begin, std::size_t end,
                     std::vector<CellResult>& cells) const;

  PlanOptions options_;
  std::size_t size_ = 0;

  // Axis radices in grid enumeration order (1 = undeclared).
  std::size_t nc_ = 1, nw_ = 1, nb_ = 1, nv_ = 1, no_ = 1, nm_ = 1,
              ne_ = 1;
  bool has_code_axis_ = false;
  bool has_cooling_axis_ = false;
  bool has_ber_axis_ = false;

  // Effective axis values (Scenario defaults when undeclared).
  std::vector<std::string> code_names_;
  std::vector<double> bers_;

  // Pre-rendered label strings, one per declared axis value.
  std::vector<std::string> cooling_labels_;
  std::vector<std::string> ber_labels_;
  std::vector<std::string> link_labels_;
  std::vector<std::string> oni_labels_;
  std::vector<std::string> mod_labels_;
  std::vector<std::string> env_labels_;

  /// raw_ber of plan code (wi * nc_ + ci) at BER bi, indexed
  /// [bi * nc_ * nw_ + wi * nc_ + ci] — the shared requirement table
  /// every channel combo reads.  A cooling axis expands the plan's code
  /// list to nc_ * nw_ entries (each base code wrapped per weight,
  /// weight 0 = unwrapped), so inversions still run once per distinct
  /// (effective code, BER) pair.
  std::vector<double> requirements_;
  std::vector<ChannelCombo> combos_;

  SweepStats stats_;
};

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_PLAN_HPP
