#include "photecc/noc/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "photecc/ecc/registry.hpp"
#include "photecc/noc/channel_engine.hpp"

namespace photecc::noc {

void NetworkTopology::validate() const {
  if (tile_count < 2)
    throw std::invalid_argument("NetworkTopology: need >= 2 tiles");
  if (channel_count < 1)
    throw std::invalid_argument("NetworkTopology: need >= 1 channel");
  if (channel_count > tile_count)
    throw std::invalid_argument(
        "NetworkTopology: more channels than tiles");
}

std::size_t NetworkTopology::channel_of_tile(std::size_t tile) const {
  if (tile >= tile_count)
    throw std::out_of_range("NetworkTopology::channel_of_tile: bad tile");
  switch (mapping) {
    case Mapping::kBlocked: {
      const std::size_t block =
          (tile_count + channel_count - 1) / channel_count;
      return std::min(tile / block, channel_count - 1);
    }
    case Mapping::kInterleaved:
    default:
      return tile % channel_count;
  }
}

std::vector<std::size_t> NetworkTopology::tiles_of_channel(
    std::size_t channel) const {
  if (channel >= channel_count)
    throw std::out_of_range("NetworkTopology::tiles_of_channel: bad channel");
  std::vector<std::size_t> tiles;
  for (std::size_t t = 0; t < tile_count; ++t)
    if (channel_of_tile(t) == channel) tiles.push_back(t);
  return tiles;
}

NetworkSimulator::NetworkSimulator(NetworkConfig config)
    : config_(std::move(config)) {
  config_.topology.validate();
  const std::size_t channel_count = config_.topology.channel_count;
  if (config_.channels.empty()) {
    config_.channels.resize(channel_count);
  } else if (config_.channels.size() != channel_count) {
    throw std::invalid_argument(
        "NetworkSimulator: channels must be empty or one per channel");
  }
  if (config_.scheme_menu.empty()) config_.scheme_menu = ecc::paper_schemes();

  // Channels whose overrides resolve to the same environment, ONI count
  // and menu (the same code pointers) solve the same link: they share
  // one manager, and run() shares that manager's solves among them.
  manager_of_.reserve(channel_count);
  has_env_.reserve(channel_count);
  for (std::size_t ch = 0; ch < channel_count; ++ch) {
    const NetworkChannelConfig& overrides = config_.channels[ch];
    link::MwsrParams link = config_.base_link;
    if (overrides.environment) link.environment = overrides.environment;
    const std::size_t oni =
        overrides.oni_count ? overrides.oni_count : config_.topology.tile_count;
    if (oni < 2)
      throw std::invalid_argument("NetworkSimulator: need >= 2 ONIs");
    link.oni_count = oni;
    const auto& menu = overrides.scheme_menu.empty() ? config_.scheme_menu
                                                     : overrides.scheme_menu;
    has_env_.push_back(link.environment.has_value());

    const auto same_link = [&](const auto& manager) {
      const link::MwsrParams& params = manager->channel().params();
      return params.environment == link.environment &&
             params.oni_count == oni && manager->codes() == menu;
    };
    const auto found =
        std::find_if(managers_.begin(), managers_.end(), same_link);
    manager_of_.push_back(
        static_cast<std::size_t>(found - managers_.begin()));
    if (found != managers_.end()) continue;
    core::SystemConfig system = config_.system;
    system.oni_count = oni;
    managers_.push_back(std::make_shared<const core::LinkManager>(
        link::MwsrChannel(link), menu, system));
  }
}

NetworkRunResult NetworkSimulator::run(const TrafficGenerator& traffic,
                                       double horizon_s, std::uint64_t seed,
                                       bool keep_log) const {
  return run(traffic.generate(horizon_s, seed), horizon_s, keep_log);
}

NetworkRunResult NetworkSimulator::run(std::vector<Message> schedule,
                                       double horizon_s,
                                       bool keep_log) const {
  if (horizon_s <= 0.0)
    throw std::invalid_argument("NetworkSimulator::run: non-positive horizon");
  const NetworkTopology& topo = config_.topology;
  const std::size_t channel_count = topo.channel_count;

  NetworkRunResult result;
  result.stats.aggregate.horizon_s = horizon_s;
  result.stats.channels.resize(channel_count);
  result.stats.channel_payload_bits.assign(channel_count, 0);

  // Route: the destination tile's home channel delivers the message.
  std::vector<std::vector<Message>> per_channel(channel_count);
  for (auto& m : schedule) {
    if (m.destination >= topo.tile_count || m.source >= topo.tile_count)
      throw std::invalid_argument("NetworkSimulator::run: tile out of range");
    if (m.source == m.destination)
      throw std::invalid_argument("NetworkSimulator::run: self loop message");
    per_channel[topo.channel_of_tile(m.destination)].push_back(std::move(m));
  }

  // Per-channel environments.  The aggregate tracks phase windows only
  // when every channel declares the same timeline (always true for one
  // channel) — under heterogeneous environments the network has no
  // single phase axis and aggregate.phases stays empty.
  std::vector<const env::EnvironmentTimeline*> timelines(channel_count);
  std::vector<std::vector<env::EnvironmentTimeline::PhaseWindow>> windows(
      channel_count);
  bool shared_env = true;
  for (std::size_t ch = 0; ch < channel_count; ++ch) {
    timelines[ch] = &manager(ch).channel().environment_timeline();
    if (has_env_[ch]) windows[ch] = timelines[ch]->phase_windows(horizon_s);
    if (!has_env_[ch] || !(*timelines[ch] == *timelines[0]))
      shared_env = false;
  }

  const auto make_phase_accumulators =
      [](const std::vector<env::EnvironmentTimeline::PhaseWindow>& wins,
         std::vector<NocPhaseStats>& stats,
         std::vector<math::RunningStats>& latency) {
        stats.resize(wins.size());
        latency.resize(wins.size());
        for (std::size_t i = 0; i < wins.size(); ++i) {
          stats[i].label = wins[i].label;
          stats[i].start_s = wins[i].start_s;
          stats[i].end_s = wins[i].end_s;
        }
      };

  // Aggregate accumulators (message order = channel-major).
  std::vector<double> agg_latencies;
  std::map<TrafficClass, math::RunningStats> agg_class_latency;
  std::vector<NocPhaseStats> agg_phase_stats;
  std::vector<math::RunningStats> agg_phase_latency;
  if (shared_env)
    make_phase_accumulators(windows[0], agg_phase_stats, agg_phase_latency);

  ChannelParams params;
  params.queue_count = topo.tile_count;
  params.wavelengths = config_.system.wavelengths;
  params.f_mod_hz = config_.system.f_mod_hz;
  params.laser_gating = config_.laser_gating;
  params.laser_wake_s = config_.laser_wake_s;
  params.arbitration_s = config_.arbitration_s;
  params.flight_time_s = config_.flight_time_s;
  params.horizon_s = horizon_s;
  params.keep_log = keep_log;
  params.recalibration = config_.recalibration;
  params.class_requirements = &config_.class_requirements;
  params.default_requirements = &config_.default_requirements;

  // One run-scoped solve memo per distinct manager, shared by every
  // channel solving against it.
  std::vector<core::ConfigureMemo> memos;
  memos.reserve(managers_.size());
  for (const auto& manager : managers_) memos.emplace_back(manager);

  ChannelSink aggregate;
  aggregate.stats = &result.stats.aggregate;
  aggregate.latencies = &agg_latencies;
  aggregate.class_latency = &agg_class_latency;
  aggregate.total_payload_bits = &result.total_payload_bits;
  aggregate.log = keep_log ? &result.log : nullptr;
  aggregate.phase_stats = shared_env ? &agg_phase_stats : nullptr;
  aggregate.phase_latency = shared_env ? &agg_phase_latency : nullptr;

  for (std::size_t ch = 0; ch < channel_count; ++ch) {
    params.channel_index = ch;
    params.has_env = has_env_[ch];
    params.timeline = timelines[ch];
    params.windows = &windows[ch];
    params.memo = &memos[manager_of_[ch]];

    NocStats& channel_stats = result.stats.channels[ch];
    channel_stats.horizon_s = horizon_s;
    std::vector<double> latencies;
    std::map<TrafficClass, math::RunningStats> class_latency;
    std::vector<NocPhaseStats> phase_stats;
    std::vector<math::RunningStats> phase_latency;
    if (has_env_[ch])
      make_phase_accumulators(windows[ch], phase_stats, phase_latency);

    ChannelSink sink;
    sink.stats = &channel_stats;
    sink.latencies = &latencies;
    sink.class_latency = &class_latency;
    sink.total_payload_bits = &result.stats.channel_payload_bits[ch];
    sink.phase_stats = has_env_[ch] ? &phase_stats : nullptr;
    sink.phase_latency = has_env_[ch] ? &phase_latency : nullptr;

    run_channel(per_channel[ch], params, {sink, aggregate});

    finalize_stats(channel_stats, latencies, class_latency,
                   has_env_[ch] ? &phase_stats : nullptr,
                   has_env_[ch] ? &phase_latency : nullptr);
  }

  finalize_stats(result.stats.aggregate, agg_latencies, agg_class_latency,
                 shared_env ? &agg_phase_stats : nullptr,
                 shared_env ? &agg_phase_latency : nullptr);
  return result;
}

}  // namespace photecc::noc
