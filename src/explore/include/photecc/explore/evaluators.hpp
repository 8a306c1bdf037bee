// Built-in cell evaluators: the analytic link-level evaluation (the
// paper's Fig. 5/6 machinery) and the dynamic NoC simulation on
// noc::NetworkSimulator, plus result_schema(), the one place a grid's
// column layout is decided.  Both evaluators are pure functions of the
// Scenario that write only the Scenario's own table row, so the runner
// may call them from any thread.
#ifndef PHOTECC_EXPLORE_EVALUATORS_HPP
#define PHOTECC_EXPLORE_EVALUATORS_HPP

#include "photecc/explore/grid.hpp"
#include "photecc/explore/result.hpp"
#include "photecc/explore/scenario.hpp"

namespace photecc::explore {

/// The paper's three schemes in presentation order — the code-axis twin
/// of ecc::paper_schemes().
[[nodiscard]] const std::vector<std::string>& paper_scheme_names();

/// The paper's Fig. 6b objective pair on evaluate_link_cell's metric
/// names: minimise CT, minimise Pchannel.  Defined next to the metrics
/// so a metric rename cannot silently drift apart from the front
/// extraction.
[[nodiscard]] const std::vector<Objective>& fig6b_objectives();

/// The metric-name groups result_schema() composes every grid's columns
/// from, each in column order: the link evaluator's columns, the
/// simulator's aggregate columns, its environment columns, its
/// per-channel columns (exported as "ch<k>_<metric>") and the cooling
/// columns (the simulator publishes only duty_bound: the minimum over
/// its scheme menu; over a network, the loosest channel's).
[[nodiscard]] const std::vector<std::string>& link_cell_metric_names();
[[nodiscard]] const std::vector<std::string>& noc_cell_metric_names();
[[nodiscard]] const std::vector<std::string>& noc_env_metric_names();
[[nodiscard]] const std::vector<std::string>& network_channel_metric_names();
[[nodiscard]] const std::vector<std::string>& cooling_metric_names();

/// The column layout of `grid`'s results: its axis_labels() and the
/// metric columns of the evaluator it runs, in export order.  Optional
/// groups appear only when declared, so grids without them keep their
/// historical export layout.
///  - A link grid: link_cell_metric_names(), then cooling_metric_names()
///    when the cooling axis is declared.
///  - A simulator grid (ScenarioGrid::runs_simulator):
///    noc_cell_metric_names(); noc_env_metric_names() when any cell or
///    network channel declares an environment timeline; duty_bound when
///    the cooling axis is declared; and, with a network section,
///    "ch<k>_<metric>" for every channel k and every
///    network_channel_metric_names() entry.
[[nodiscard]] ResultSchema result_schema(const ScenarioGrid& grid);

/// Stores one analytic cell in row `row` of `table` (which must carry
/// the SchemeMetrics column): its feasibility, the
/// link_cell_metric_names() columns (total_loss_db is the channel's
/// link budget), the cooling columns when `cooling`, and the
/// SchemeMetrics.  evaluate_link_cell and LoweredPlan both finish every
/// cell through it.
void store_link_cell(ResultTable& table, std::size_t row,
                     core::SchemeMetrics metrics, double total_loss_db,
                     const link::MwsrChannel& channel, bool cooling);

/// Analytic evaluation: core::evaluate_scheme on the scenario's channel,
/// stored in row scenario.index of `table` (a table of
/// result_schema(grid) with the SchemeMetrics column).  The per-cell
/// reference the lowered plan is tested against.
void evaluate_link_cell(const Scenario& scenario, ResultTable& table);

/// Dynamic evaluation: one NetworkSimulator::run seeded with the
/// scenario's deterministic seed, stored in row scenario.index of
/// `table` (a table of result_schema(grid)).  The topology is the
/// scenario's NetworkSpec when it declares one, else the paper's
/// Fig. 2a network: one channel per ONI (tile_count == channel_count ==
/// link.oni_count, interleaved).  The scheme menu is the scenario's
/// single code when the code axis is set, else the paper's adaptive
/// three-scheme menu.  A cell is feasible when it delivers a message.
void evaluate_network_cell(const Scenario& scenario, ResultTable& table);

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_EVALUATORS_HPP
