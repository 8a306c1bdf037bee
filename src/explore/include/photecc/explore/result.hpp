// Aggregation layer of the exploration engine: the columnar result
// table of one grid, generic N-objective Pareto extraction
// (generalising core::tradeoff's fixed 2-objective (Pchannel, CT)
// front) and deterministic CSV / JSON export.
//
// A grid's column layout is one decision, made once: the ResultSchema
// (see result_schema() in evaluators.hpp) names the declared axes with
// their label dictionaries and the metric columns of the evaluator the
// grid runs.  A ResultTable holds the cells in those columns — a dense
// double matrix, the feasible flags and, for link grids, one
// core::SchemeMetrics per cell — and the writers are loops over these
// arrays with every key rendered once per table.
//
// Exports deliberately contain only cell data — never timings or thread
// counts — so a parallel run serialises byte-identically to a
// sequential one.
#ifndef PHOTECC_EXPLORE_RESULT_HPP
#define PHOTECC_EXPLORE_RESULT_HPP

#include <cstddef>
#include <functional>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "photecc/core/channel_power.hpp"
#include "photecc/core/tradeoff.hpp"
#include "photecc/explore/scenario.hpp"

namespace photecc::explore {

/// The column layout of one grid's results.
struct ResultSchema {
  /// Declared axes in canonical grid order (the innermost, fastest
  /// varying, first), each with one label per axis value.
  std::vector<AxisLabels> axes;
  /// Metric columns in export order.
  std::vector<std::string> metrics;

  /// Column of the named metric, or nullopt when the grid has none.
  [[nodiscard]] std::optional<std::size_t> metric_column(
      std::string_view name) const;
};

/// One dimension of an N-objective Pareto extraction.
struct Objective {
  std::string metric;
  bool minimize = true;
};

/// The cells of one grid, stored by column.  Row i is grid cell i.  Its
/// labels are not stored: the label of axis a is the a-th mixed-radix
/// digit of i over the schema's axis lengths, exactly the decode of
/// ScenarioGrid::at.  Every row has every metric column.
///
/// Writers fill disjoint rows (metric_row, set_feasible, scheme), so
/// several threads may fill one table concurrently.
class ResultTable {
 public:
  ResultTable() = default;
  /// `rows` cells, all infeasible with every metric 0.  `with_schemes`
  /// adds the SchemeMetrics column the link evaluator fills.
  ResultTable(ResultSchema schema, std::size_t rows,
              bool with_schemes = false);

  [[nodiscard]] const ResultSchema& schema() const noexcept {
    return schema_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return feasible_.size(); }
  [[nodiscard]] bool empty() const noexcept { return feasible_.empty(); }

  /// Label of `row` on axis `axis` (a position in schema().axes).
  [[nodiscard]] const std::string& label(std::size_t row,
                                         std::size_t axis) const {
    return schema_.axes[axis].labels[label_index(row, axis)];
  }
  /// Label of `row` on the named axis, or nullopt when undeclared.
  [[nodiscard]] std::optional<std::string> label(
      std::size_t row, std::string_view axis) const;

  /// Value of the named metric in `row`, or nullopt when the schema has
  /// no such column.
  [[nodiscard]] std::optional<double> metric(std::size_t row,
                                             std::string_view name) const;
  /// The metric columns of `row`, in schema order.
  [[nodiscard]] std::span<double> metric_row(std::size_t row) {
    return {values_.data() + row * width(), width()};
  }
  [[nodiscard]] std::span<const double> metric_row(std::size_t row) const {
    return {values_.data() + row * width(), width()};
  }

  [[nodiscard]] bool feasible(std::size_t row) const {
    return feasible_[row] != 0;
  }
  void set_feasible(std::size_t row, bool feasible) {
    feasible_[row] = feasible ? 1 : 0;
  }

  [[nodiscard]] const core::SchemeMetrics& scheme(std::size_t row) const {
    return schemes_[row];
  }
  [[nodiscard]] core::SchemeMetrics& scheme(std::size_t row) {
    return schemes_[row];
  }

  /// Appends row `row` as the minified JSON object used everywhere a
  /// cell crosses a serialization boundary — write_json's array
  /// elements and the serve layer's streamed `cells` records share this
  /// exact function, so a streamed cell is byte-identical to the same
  /// cell in a one-shot export:
  /// {"index":N,"labels":{...},"feasible":true,"metrics":{...}}.
  /// Non-finite metric values serialise as null.
  void append_cell_json(std::string& out, std::size_t row) const;

  /// CSV: header `index,<axis...>,feasible,<metric...>`.  Fields are
  /// minimally quoted (labels like "BCH(15,7,2)" contain commas) and
  /// doubles use shortest round-trip formatting.
  void write_csv(std::ostream& os) const;
  /// JSON: {"cells": [<append_cell_json of every row>, ...]}.
  void write_json(std::ostream& os) const;

  /// Rows of the non-dominated feasible cells, sorted by the first
  /// objective (then the following ones, then row).  A cell is
  /// dominated when another feasible cell is no worse on every
  /// objective and strictly better on one; cells with a non-finite
  /// objective value never make the front, and an objective the schema
  /// lacks leaves the front empty.  With objectives {ct, p_channel_w}
  /// this is exactly core::is_dominated.
  [[nodiscard]] std::vector<std::size_t> pareto_front(
      const std::vector<Objective>& objectives) const;

  /// The SchemeMetrics column as a core::TradeoffSweep (empty when the
  /// table has none), bridging link results back to the 2-objective
  /// core machinery (pareto_table & friends).
  [[nodiscard]] core::TradeoffSweep to_tradeoff_sweep() const;

 private:
  [[nodiscard]] std::size_t width() const noexcept {
    return schema_.metrics.size();
  }
  [[nodiscard]] std::size_t label_index(std::size_t row,
                                        std::size_t axis) const {
    return row / strides_[axis] % schema_.axes[axis].labels.size();
  }

  ResultSchema schema_;
  std::vector<double> values_;         ///< rows x metrics, row-major
  std::vector<unsigned char> feasible_;  ///< one flag per row
  std::vector<core::SchemeMetrics> schemes_;
  std::vector<std::size_t> strides_;   ///< row stride of each axis digit
  /// Rendered once per table: `"axis":"label"` per axis value, the
  /// CSV-quoted label per axis value, and `"metric":` per column.
  std::vector<std::vector<std::string>> json_labels_;
  std::vector<std::vector<std::string>> csv_labels_;
  std::vector<std::string> json_metric_keys_;
};

/// Observer of one finished cell block: rows [begin, end) of the table
/// are final when it runs.
using BlockCallback = std::function<void(
    std::size_t begin, std::size_t end, const ResultTable& cells)>;

/// Observability counters of one lowered-plan sweep.  Informational
/// only: like the timing fields of ExperimentResult they are never part
/// of the CSV/JSON cell exports, so enabling the plan cannot perturb
/// byte-identity.  explore_cli --bench prints them in its summary.
///
/// Aggregation story (the reuse contract the serve layer builds on):
/// every field is *per-run* — one lower + one execute of one plan.
/// A caller that re-serves a run's cells from a cache must NOT reuse
/// the run's stats verbatim (they would claim solver work that never
/// happened again); it merges as_replay() instead, which keeps the
/// cell count and zeroes every work and time counter.  merge() is the
/// only sanctioned way to aggregate across runs: counters and times
/// add, so the derived rates (warm_hit_rate, cells_per_second) stay
/// consistent with the totals.
struct SweepStats {
  std::size_t cells = 0;             ///< cells executed
  std::size_t channels_lowered = 0;  ///< distinct channel combos hoisted
  std::size_t root_solves = 0;       ///< (code, BER) inversions actually run
  std::size_t solver_iterations = 0; ///< Brent iterations across all solves
  std::size_t warm_reuses = 0;       ///< cells served from hoisted tables
  double lower_time_s = 0.0;         ///< plan construction wall time
  double execute_time_s = 0.0;       ///< cell execution wall time

  /// Fraction of cells that skipped the code-model inversion.
  [[nodiscard]] double warm_hit_rate() const;
  /// Cells per second of execute time (0 when unmeasurably fast).
  [[nodiscard]] double cells_per_second() const;
  /// Accumulates another run into this one: every counter and time
  /// adds.  Use on a zero-initialised SweepStats to aggregate a
  /// sequence of runs (the serve daemon's lifetime totals).
  void merge(const SweepStats& other);
  /// The cached-replay view of this run: cells kept, every work
  /// counter (root solves, iterations, warm reuses, channels) and
  /// time zeroed.  Re-serving cached cells merges this, so replays
  /// report zero solver work instead of the original run's numbers.
  [[nodiscard]] SweepStats as_replay() const;
  /// Flat JSON object ({"cells":...,"warm_hit_rate":...}) for bench
  /// summaries; NOT part of ExperimentResult::json().
  [[nodiscard]] std::string json() const;
};

/// Everything one sweep produced.
struct ExperimentResult {
  ResultTable cells;              ///< row i = grid cell i
  std::size_t threads_used = 1;   ///< informational; not exported
  double wall_time_s = 0.0;       ///< informational; not exported
  /// Set when the run went through explore::LoweredPlan; informational,
  /// never exported (write_csv / write_json contain cell data only).
  std::optional<SweepStats> stats;

  [[nodiscard]] std::vector<std::size_t> pareto_front(
      const std::vector<Objective>& objectives) const {
    return cells.pareto_front(objectives);
  }
  void write_csv(std::ostream& os) const { cells.write_csv(os); }
  [[nodiscard]] std::string csv() const;
  void write_json(std::ostream& os) const { cells.write_json(os); }
  [[nodiscard]] std::string json() const;
};

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_RESULT_HPP
