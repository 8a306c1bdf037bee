// One cell of a declarative design-space grid: every knob the engine can
// sweep, fully resolved.  A Scenario is cheap to materialise, so the
// grid enumerates them lazily and the runner never holds more than one
// per worker.
#ifndef PHOTECC_EXPLORE_SCENARIO_HPP
#define PHOTECC_EXPLORE_SCENARIO_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "photecc/core/channel_power.hpp"
#include "photecc/core/manager.hpp"
#include "photecc/link/mwsr_channel.hpp"

namespace photecc::explore {

/// Lookup in an (axis name, value label) list — a Scenario's labels.
[[nodiscard]] inline std::optional<std::string> find_label(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& axis) {
  for (const auto& [name, value] : labels)
    if (name == axis) return value;
  return std::nullopt;
}

/// One declared grid axis as exports name it: the axis name and one
/// label per axis value, in axis order (see ScenarioGrid::axis_labels).
struct AxisLabels {
  std::string name;
  std::vector<std::string> labels;
};

/// Traffic workload axis value for NoC scenarios.
struct TrafficSpec {
  enum class Kind { kUniform, kHotspot, kTrace };
  std::string label = "uniform";
  Kind kind = Kind::kUniform;
  double rate_msgs_per_s = 2e8;     ///< aggregate injection rate
  std::uint64_t payload_bits = 4096;
  std::size_t hotspot = 0;          ///< hot tile (kHotspot only)
  double hotspot_fraction = 0.5;    ///< traffic share aimed at the hotspot
  std::string trace_path;           ///< message timeline file (kTrace only)
};

/// Poisson uniform-random workload at `rate_msgs_per_s`.
[[nodiscard]] TrafficSpec uniform_traffic(double rate_msgs_per_s,
                                          std::uint64_t payload_bits = 4096);

/// Uniform workload with a fraction redirected to one hot tile.
[[nodiscard]] TrafficSpec hotspot_traffic(double rate_msgs_per_s,
                                          std::size_t hotspot,
                                          double hotspot_fraction,
                                          std::uint64_t payload_bits = 4096);

/// Message timeline replayed from a trace file (noc::TraceTraffic
/// format; see traffic.hpp).  The file is read when a cell evaluates.
[[nodiscard]] TrafficSpec trace_traffic(std::string path);

/// Tiled-network configuration (see noc::NetworkSimulator): the
/// topology plus the per-channel coding and environment assignment.  A
/// grid with a NetworkSpec routes cells through the simulator; all
/// declared axes still sweep on top of it.  Without one, simulated
/// cells run the paper's topology: one channel per ONI.
struct NetworkSpec {
  std::size_t tile_count = 16;
  std::size_t channel_count = 4;
  std::string mapping = "interleaved";  ///< "interleaved" or "blocked"
  /// Per-channel pinned codes (registry names, one per channel).  An
  /// empty vector — or an empty string entry — leaves the channel on
  /// the scenario's menu (single code when the code axis is set, else
  /// the adaptive paper menu).
  std::vector<std::string> channel_codes;
  /// Labelled per-channel environment timelines (one per channel when
  /// non-empty); empty inherits the scenario link's timeline
  /// everywhere.  The labels feed exports and bench tables.
  std::vector<std::pair<std::string, env::EnvironmentTimeline>>
      channel_environments;
};

/// One fully-specified cell of the design space.
struct Scenario {
  std::size_t index = 0;    ///< position in grid enumeration order
  std::uint64_t seed = 0;   ///< deterministic per-cell seed (index-derived)
  /// Code registry name; unset = "adaptive" (the NoC evaluator offers
  /// the manager the full paper menu, the link evaluator uses uncoded).
  std::optional<std::string> code;
  /// Cooling axis value: set when the grid declares cooling_weights().
  /// 0 = cooling off (the plain code above); w > 0 means `code` has
  /// already been wrapped into COOL(<base>, w) by the grid, and the
  /// evaluators emit the cooling metric columns (duty_bound,
  /// thermal_headroom_w).
  std::optional<std::size_t> cooling_weight;
  double target_ber = 1e-9;
  link::MwsrParams link{};
  core::SystemConfig system{};
  std::optional<TrafficSpec> traffic;  ///< set when the grid has NoC axes
  /// Tiled-network configuration; set when the grid declares one (unset:
  /// the simulator runs one channel per ONI).
  std::optional<NetworkSpec> network;
  bool laser_gating = true;
  core::Policy policy = core::Policy::kMinEnergy;
  double noc_horizon_s = 2e-6;
  /// (axis name, value label) for every axis the grid declares, in the
  /// grid's canonical axis order.
  std::vector<std::pair<std::string, std::string>> labels;

  /// Value of the named axis label, or nullopt when the grid does not
  /// declare that axis.
  [[nodiscard]] std::optional<std::string> label(
      const std::string& axis) const {
    return find_label(labels, axis);
  }
};

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_SCENARIO_HPP
