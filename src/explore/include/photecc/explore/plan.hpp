// Lowered sweep plans: the lower-once/execute-many hot path of the
// exploration engine.
//
// Evaluating a link cell from scratch (evaluate_link_cell, the per-cell
// reference) builds an MwsrChannel (two O(NW^2) worst-channel scans —
// one in the solver, one in the link budget) and re-runs the (code,
// target BER) code-model inversion (~45 Brent iterations).  A
// LoweredPlan compiles a ScenarioGrid that does not run the simulator
// once:
//
//   lower    - the grid's ResultSchema; one channel +
//              core::ChannelSweepPlan + link budget per distinct (link
//              variant, ONI count, modulation, environment) combo; one
//              shared (code, BER) raw-BER requirement table, filled by
//              one BlockCode::required_raw_ber_batch call per code, and
//              its SNR per distinct combo modulation
//   execute  - axis-contiguous cell blocks: each cell decodes its axis
//              digits, reads its raw BER and SNR from the tables and
//              finishes the closed-form power algebra into its
//              ResultTable row
//
// Every cell is bit-identical to evaluate_link_cell on the same
// Scenario (the hoisted tables are computed by the same functions the
// one-shot path calls, the closed-form tail keeps its exact expression
// trees and both store through store_link_cell), so CSV/JSON exports
// are byte-identical to the reference at any thread count and any
// block size.
#ifndef PHOTECC_EXPLORE_PLAN_HPP
#define PHOTECC_EXPLORE_PLAN_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "photecc/ecc/block_code.hpp"
#include "photecc/explore/grid.hpp"
#include "photecc/explore/result.hpp"

namespace photecc::explore {

struct PlanOptions {
  /// Cells per block (and per work-stealing unit).  Any value yields
  /// byte-identical results; 64 amortises queue traffic while keeping
  /// streamed blocks small.
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

  /// Evaluates every cell: 0 threads = hardware concurrency, 1 =
  /// sequential on the calling thread.  The result (and its CSV/JSON
  /// serialisation) is byte-identical for any thread count, and to
  /// evaluate_link_cell on every cell of the same grid.  result.stats
  /// carries this plan's counters.
  [[nodiscard]] ExperimentResult execute(std::size_t threads = 1) const;

  /// Block-streaming execution: like execute(threads), but invokes
  /// `on_block` once per block of PlanOptions::block_size cells, in
  /// ascending block order at ANY thread count
  /// (math::parallel_for_blocks_ordered), so large grids stream results
  /// while later blocks are still computing — what the serve daemon's
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
    /// Which snrs_ table serves this combo's modulation.
    std::size_t snr_table = 0;
    double total_loss_db = 0.0;  ///< channel-invariant link budget
  };

  void execute_block(std::size_t begin, std::size_t end,
                     ResultTable& cells) const;

  PlanOptions options_;
  ResultSchema schema_;
  std::size_t size_ = 0;

  // Axis radices in grid enumeration order (1 = undeclared).
  std::size_t nc_ = 1, nw_ = 1, nb_ = 1, nv_ = 1, no_ = 1, nm_ = 1,
              ne_ = 1;
  bool has_cooling_axis_ = false;

  // Effective BER values (Scenario's default when undeclared).
  std::vector<double> bers_;

  /// Requirement of plan code pci = wi * nc_ + ci at BER bi, indexed
  /// [pci * nb_ + bi] — the shared requirement table every channel
  /// combo reads.  A cooling axis expands the plan's code list to
  /// nc_ * nw_ entries (each base code wrapped per weight, weight 0 =
  /// unwrapped), so inversions still run once per distinct (effective
  /// code, BER) pair.
  std::vector<ecc::RawBerRequirement> requirements_;
  /// snr_from_ber_clamped of every requirements_ entry, one table per
  /// distinct combo modulation: [snr_table * requirements_.size() +
  /// pci * nb_ + bi].
  std::vector<double> snrs_;
  std::vector<ChannelCombo> combos_;

  SweepStats stats_;
};

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_PLAN_HPP
