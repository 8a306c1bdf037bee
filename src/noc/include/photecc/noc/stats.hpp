// Result types of the NoC simulator (noc::NetworkSimulator): the
// per-class requirements handed to each channel's manager, the
// per-message delivery record, and the aggregate / per-phase statistics
// every channel sink accumulates (see channel_engine.hpp).
#ifndef PHOTECC_NOC_STATS_HPP
#define PHOTECC_NOC_STATS_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "photecc/core/manager.hpp"
#include "photecc/noc/message.hpp"

namespace photecc::noc {

/// Per-traffic-class communication requirements handed to the manager.
struct ClassRequirements {
  double target_ber = 1e-9;
  core::Policy policy = core::Policy::kMinEnergy;
  std::optional<double> max_ct;
  std::optional<double> max_channel_power_w;
};

/// Outcome of one delivered message.
struct DeliveredMessage {
  Message message;
  /// Index of the channel that delivered it: the destination tile's
  /// home channel (the destination ONI itself in the paper's
  /// one-channel-per-ONI topology).
  std::size_t channel = 0;
  double start_time_s = 0.0;       ///< transmission start (after grant)
  double completion_time_s = 0.0;
  double latency_s = 0.0;          ///< completion - creation
  std::string scheme;              ///< code chosen by the manager
  double energy_j = 0.0;           ///< laser + MR + codec for this transfer
  bool deadline_missed = false;
  /// Environment activity sampled when this transfer was configured.
  double activity = 0.0;
  /// True when this transfer forced a manager re-solve (drift past the
  /// hysteresis band, or the first transfer of its request).
  bool recalibrated = false;
};

/// Statistics of one environment phase window (see
/// env::EnvironmentTimeline::phase_windows); filled only when the
/// simulator runs with an environment timeline.
struct NocPhaseStats {
  std::string label;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t deadline_misses = 0;
  double mean_latency_s = 0.0;

  [[nodiscard]] bool operator==(const NocPhaseStats&) const = default;
};

/// Aggregate statistics of one run.
struct NocStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;       ///< no feasible scheme
  /// Drops caused by a thermal infeasibility window: the request is
  /// feasible at the timeline's t = 0 baseline but not at the sampled
  /// environment (subset of `dropped`; zero without a timeline).
  std::uint64_t dropped_thermal = 0;
  std::uint64_t deadline_misses = 0;
  double mean_latency_s = 0.0;
  double max_latency_s = 0.0;
  /// 95th-percentile latency by the nearest-rank definition: the value
  /// at 1-indexed rank ceil(0.95 * N) of the sorted latencies (no
  /// interpolation; for N = 20 that is the 19th smallest).
  double p95_latency_s = 0.0;
  double total_energy_j = 0.0;
  double laser_energy_j = 0.0;
  double mr_energy_j = 0.0;
  double codec_energy_j = 0.0;
  double idle_laser_energy_j = 0.0;  ///< burned while idle (no gating)
  double busy_time_s = 0.0;          ///< summed channel busy time
  double horizon_s = 0.0;
  /// Closed-loop accounting (zero without an environment timeline):
  /// manager re-solves triggered by drift, and their summed cost.
  /// recalibration_energy_j is part of total_energy_j.
  std::uint64_t recalibrations = 0;
  double recalibration_energy_j = 0.0;
  double recalibration_latency_s = 0.0;
  /// Highest / end-of-horizon activity sampled on any channel (the
  /// hottest channel's view); filled only when a timeline is declared.
  double peak_activity = 0.0;
  double final_activity = 0.0;
  /// Per-phase breakdown over the timeline's phase windows (empty
  /// without an environment timeline).
  std::vector<NocPhaseStats> phases;
  /// Scheme usage histogram (scheme name -> transfers).
  std::map<std::string, std::uint64_t> scheme_usage;
  /// Mean latency per traffic class.
  std::map<TrafficClass, double> class_mean_latency_s;

  /// Energy per delivered payload bit [J].
  [[nodiscard]] double energy_per_bit_j(std::uint64_t payload_bits) const {
    return payload_bits ? total_energy_j / static_cast<double>(payload_bits)
                        : 0.0;
  }

  /// Exact (bitwise on doubles) equality.
  [[nodiscard]] bool operator==(const NocStats&) const = default;
};

}  // namespace photecc::noc

#endif  // PHOTECC_NOC_STATS_HPP
