// Event-driven tiled photonic network: N tiles sharing K MWSR
// broadcast channels — the project's one NoC simulator.
//
// The paper's Fig. 2a topology (one reader channel per ONI, everything
// homogeneous) is the special case tile_count == channel_count ==
// oni_count with the interleaved mapping, so tile t reads channel t.
// The general network adds what the single-link paper cannot express:
//
//  * a NetworkTopology maps tiles to shared channels (interleaved or
//    blocked), so K can be much smaller than N;
//  * every channel has its own coding-scheme menu and thermal
//    environment timeline — hot-spot readers can run strong codes
//    while cool edge channels stay uncoded; channels whose settings
//    resolve equal share one manager and its solves;
//  * arbitration is per channel over per-tile virtual-channel queues,
//    the same round-robin grant the paper's arbiter uses (token-style,
//    with a fixed arbitration overhead per grant).
//
// Energy accounting follows the paper's power model: the laser burns
// Plaser(scheme) per wavelength while transmitting; with laser gating
// enabled (ref [9]) it is off when the channel idles, otherwise it keeps
// burning at the idle operating point.
//
// Each channel runs through the shared channel engine (see
// channel_engine.hpp) with two sinks — its own NocStats and the network
// aggregate — so aggregated statistics accumulate message by message in
// channel order.
#ifndef PHOTECC_NOC_NETWORK_HPP
#define PHOTECC_NOC_NETWORK_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "photecc/core/manager.hpp"
#include "photecc/env/environment.hpp"
#include "photecc/math/rng.hpp"
#include "photecc/noc/message.hpp"
#include "photecc/noc/stats.hpp"
#include "photecc/noc/traffic.hpp"

namespace photecc::noc {

/// Tile-to-channel map of the shared-channel network.
struct NetworkTopology {
  /// How tiles are distributed over the channels.
  enum class Mapping {
    kInterleaved,  ///< tile t reads channel t % K (neighbours spread)
    kBlocked,      ///< contiguous blocks of ceil(N/K) tiles per channel
  };

  std::size_t tile_count = 16;
  std::size_t channel_count = 4;
  Mapping mapping = Mapping::kInterleaved;

  /// Throws std::invalid_argument on an unusable geometry.
  void validate() const;

  /// Channel that delivers messages addressed to `tile`.
  [[nodiscard]] std::size_t channel_of_tile(std::size_t tile) const;

  /// Tiles whose inbound traffic `channel` carries, ascending.
  [[nodiscard]] std::vector<std::size_t> tiles_of_channel(
      std::size_t channel) const;

  [[nodiscard]] bool operator==(const NetworkTopology&) const = default;
};

/// Per-channel overrides; fields left at their defaults inherit the
/// network-wide configuration.
struct NetworkChannelConfig {
  /// Thermal environment of this channel's waveguide/reader region
  /// (hot-spot readers vs cool edges); overrides base_link's timeline.
  std::optional<env::EnvironmentTimeline> environment;
  /// Coding menu offered to this channel's manager; empty inherits the
  /// network menu.  A one-element menu pins the channel to that code.
  std::vector<ecc::BlockCodePtr> scheme_menu;
  /// Photonic ONI count the channel's link budget is solved with
  /// (rings/drops on the waveguide); 0 inherits tile_count.
  std::size_t oni_count = 0;
};

/// Network configuration: the topology plus the homogeneous baseline
/// every channel starts from and the per-channel overrides.
struct NetworkConfig {
  NetworkTopology topology{};
  link::MwsrParams base_link{};  ///< oni_count is resolved per channel
  core::SystemConfig system{};
  /// Network-wide scheme menu (empty: the paper's three schemes).
  std::vector<ecc::BlockCodePtr> scheme_menu;
  /// Per-channel overrides; empty means K default channels, otherwise
  /// exactly topology.channel_count entries.
  std::vector<NetworkChannelConfig> channels;
  std::map<TrafficClass, ClassRequirements> class_requirements;
  ClassRequirements default_requirements{};
  bool laser_gating = true;
  double laser_wake_s = 10e-9;
  double arbitration_s = 2e-9;
  double flight_time_s = 0.8e-9;
  core::RecalibrationConfig recalibration{};
};

/// Network statistics: the aggregate view plus the per-channel
/// breakdown.  `aggregate` is finalised over the whole event stream
/// (global latency order, energies summed message by message in
/// channel order).
struct NetworkStats {
  NocStats aggregate;
  std::vector<NocStats> channels;
  /// Delivered payload bits per channel (aggregate total is in
  /// NetworkRunResult::total_payload_bits).
  std::vector<std::uint64_t> channel_payload_bits;
};

/// Result of a network run.
struct NetworkRunResult {
  NetworkStats stats;
  std::uint64_t total_payload_bits = 0;
  /// Per-message log in delivery order (channel-major); each entry's
  /// `channel` field names the delivering channel.  Filled when
  /// keep_log is set.
  std::vector<DeliveredMessage> log;
};

/// The tiled-network simulator.
class NetworkSimulator {
 public:
  explicit NetworkSimulator(NetworkConfig config);

  /// Runs the tile-addressed schedule produced by `traffic` (sources
  /// and destinations are tile indices) up to `horizon_s`.  Transfers
  /// still in flight at the horizon complete (the horizon bounds
  /// arrivals, not drain).
  [[nodiscard]] NetworkRunResult run(const TrafficGenerator& traffic,
                                     double horizon_s, std::uint64_t seed,
                                     bool keep_log = false) const;

  /// Runs a pre-built tile-addressed message schedule.
  [[nodiscard]] NetworkRunResult run(std::vector<Message> schedule,
                                     double horizon_s,
                                     bool keep_log = false) const;

  /// Seed for per-channel derived workloads: `base` itself for a
  /// single-channel network (it replays the undivided workload),
  /// math::derive_seed(base, channel) otherwise.  Composite seeding must
  /// go through derive_seed — see the contract in traffic.hpp.
  [[nodiscard]] static std::uint64_t channel_seed(std::uint64_t base,
                                                  std::size_t channel_count,
                                                  std::size_t channel) {
    return channel_count <= 1 ? base : math::derive_seed(base, channel);
  }

  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  /// The manager owning channel `ch`'s link budget and code menu;
  /// channels with equal resolved overrides share one.
  [[nodiscard]] const core::LinkManager& manager(std::size_t ch) const {
    return *managers_[manager_of_.at(ch)];
  }

 private:
  NetworkConfig config_;
  /// One manager per distinct resolved link (post override-inheritance).
  std::vector<std::shared_ptr<const core::LinkManager>> managers_;
  std::vector<std::size_t> manager_of_;  ///< channel -> managers_ index
  std::vector<bool> has_env_;
};

}  // namespace photecc::noc

#endif  // PHOTECC_NOC_NETWORK_HPP
