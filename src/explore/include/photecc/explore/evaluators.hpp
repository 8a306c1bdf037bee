// Built-in cell evaluators: the analytic link-level evaluation (the
// paper's Fig. 5/6 machinery) and the dynamic NoC simulation on
// noc::NetworkSimulator.  Both are pure functions of the Scenario — no
// shared mutable state — so the runner may call them from any thread.
#ifndef PHOTECC_EXPLORE_EVALUATORS_HPP
#define PHOTECC_EXPLORE_EVALUATORS_HPP

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

/// The exact metric names evaluate_link_cell / evaluate_network_cell
/// publish (the latter's aggregate columns), in column order — the
/// validation surface for objective references (spec layer).  Defined
/// next to the evaluators so a metric rename cannot silently drift
/// apart from the declared list (locked by a test).
[[nodiscard]] const std::vector<std::string>& link_cell_metric_names();
[[nodiscard]] const std::vector<std::string>& noc_cell_metric_names();

/// Extra metrics evaluate_network_cell publishes *only* when the
/// scenario or any network channel declares an environment timeline
/// (appended after noc_cell_metric_names(), in this order):
/// dropped_thermal, recalibrations, recalibration_energy_j,
/// peak_activity, final_activity.  Kept separate so environment-free
/// grids stay column-stable with their pre-environment exports.
[[nodiscard]] const std::vector<std::string>& noc_env_metric_names();

/// Per-channel metrics evaluate_network_cell publishes for every
/// channel k of a declared NetworkSpec, as columns named
/// "ch<k>_<metric>" (appended after the aggregate columns): delivered,
/// dropped, dropped_thermal, mean_latency_s, p95_latency_s,
/// total_energy_j, energy_per_bit_j, recalibrations.
[[nodiscard]] const std::vector<std::string>& network_channel_metric_names();

/// Cooling-axis metrics, emitted *only* when the scenario declares the
/// cooling axis (Scenario::cooling_weight), so cooling-free grids stay
/// column-stable: evaluate_link_cell appends duty_bound and
/// thermal_headroom_w; evaluate_network_cell appends duty_bound (the
/// minimum over its scheme menu; over a network, the loosest channel's).
[[nodiscard]] const std::vector<std::string>& cooling_metric_names();

/// Analytic evaluation: core::evaluate_scheme on the scenario's channel.
/// Metrics: link_cell_metric_names() — ct, p_channel_w, p_laser_w,
/// p_mr_w, p_enc_dec_w, energy_per_bit_j, code_rate, op_laser_w, snr,
/// p_interconnect_w, total_loss_db.  Also fills CellResult::scheme for
/// the core bridges.
[[nodiscard]] CellResult evaluate_link_cell(const Scenario& scenario);

/// Dynamic evaluation: one NetworkSimulator::run seeded with the
/// scenario's deterministic seed.  The topology is the scenario's
/// NetworkSpec when it declares one, else the paper's Fig. 2a network:
/// one channel per ONI (tile_count == channel_count ==
/// link.oni_count, interleaved).  The scheme menu is the scenario's
/// single code when the code axis is set, else the paper's adaptive
/// three-scheme menu.  Metrics: noc_cell_metric_names() — delivered,
/// dropped, deadline_misses, mean_latency_s, p95_latency_s,
/// max_latency_s, total_energy_j, laser_energy_j, idle_laser_energy_j,
/// energy_per_bit_j, busy_time_s — then noc_env_metric_names() when the
/// scenario or any channel declares an environment, duty_bound on the
/// cooling axis, and, only with a NetworkSpec, the "ch<k>_<metric>"
/// columns per channel (network_channel_metric_names()).
[[nodiscard]] CellResult evaluate_network_cell(const Scenario& scenario);

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_EVALUATORS_HPP
