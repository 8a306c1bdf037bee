#include "photecc/noc/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "photecc/ecc/registry.hpp"
#include "photecc/math/stats.hpp"
#include "photecc/noc/channel_engine.hpp"

namespace photecc::noc {

NocSimulator::NocSimulator(NocConfig config) : config_(std::move(config)) {
  if (config_.oni_count < 2)
    throw std::invalid_argument("NocSimulator: need >= 2 ONIs");
  if (config_.scheme_menu.empty())
    config_.scheme_menu = ecc::paper_schemes();
  config_.link_params.oni_count = config_.oni_count;
  config_.system.oni_count = config_.oni_count;
  manager_ = std::make_shared<core::LinkManager>(
      link::MwsrChannel(config_.link_params), config_.scheme_menu,
      config_.system);
}

const ClassRequirements& NocSimulator::requirements_for(
    TrafficClass cls) const {
  const auto it = config_.class_requirements.find(cls);
  return it == config_.class_requirements.end() ? config_.default_requirements
                                                : it->second;
}

NocRunResult NocSimulator::run(const TrafficGenerator& traffic,
                               double horizon_s, std::uint64_t seed,
                               bool keep_log) const {
  return run(traffic.generate(horizon_s, seed), horizon_s, keep_log);
}

NocRunResult NocSimulator::run(std::vector<Message> schedule,
                               double horizon_s, bool keep_log) const {
  if (horizon_s <= 0.0)
    throw std::invalid_argument("NocSimulator::run: non-positive horizon");
  NocRunResult result;
  result.stats.horizon_s = horizon_s;

  const std::size_t nw = config_.system.wavelengths;
  const double f_mod = config_.system.f_mod_hz;

  // The time-varying environment: the channel's resolved timeline.
  // When the NocConfig declares no timeline the channel falls back to
  // the constant chip-activity alias, every sample equals the static
  // operating point and recalibration costs nothing — the
  // pre-environment event loop, bit for bit.
  const bool has_env = config_.link_params.environment.has_value();
  const env::EnvironmentTimeline& timeline =
      manager_->channel().environment_timeline();
  // Recalibration cost accrues only on drift-triggered re-solves, so a
  // constant timeline (and the chip_activity alias) never pays it.
  const core::RecalibrationConfig& recal_config = config_.recalibration;

  // Per-phase accumulators over the timeline's phase windows.
  std::vector<env::EnvironmentTimeline::PhaseWindow> windows;
  std::vector<math::RunningStats> phase_latency;
  std::vector<NocPhaseStats> phase_stats;
  if (has_env) {
    windows = timeline.phase_windows(horizon_s);
    phase_latency.resize(windows.size());
    phase_stats.resize(windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
      phase_stats[i].label = windows[i].label;
      phase_stats[i].start_s = windows[i].start_s;
      phase_stats[i].end_s = windows[i].end_s;
    }
  }
  // Partition messages per destination channel (channels are
  // independent: every reader owns its waveguides and wavelengths).
  std::vector<std::vector<Message>> per_channel(config_.oni_count);
  for (auto& m : schedule) {
    if (m.destination >= config_.oni_count || m.source >= config_.oni_count)
      throw std::invalid_argument("NocSimulator::run: ONI out of range");
    if (m.source == m.destination)
      throw std::invalid_argument("NocSimulator::run: self loop message");
    per_channel[m.destination].push_back(std::move(m));
  }

  std::vector<double> latencies;
  std::map<TrafficClass, math::RunningStats> class_latency;
  // Every reader channel runs through the shared channel engine with
  // one sink: this simulator's aggregate.  Channels run in ONI order,
  // so the aggregate accumulates message by message exactly as the
  // original single-loop implementation did.  All channels share one
  // manager, so they share one solve memo.
  core::ConfigureMemo memo(manager_);
  ChannelParams params;
  params.queue_count = config_.oni_count;
  params.wavelengths = nw;
  params.f_mod_hz = f_mod;
  params.laser_gating = config_.laser_gating;
  params.laser_wake_s = config_.laser_wake_s;
  params.arbitration_s = config_.arbitration_s;
  params.flight_time_s = config_.flight_time_s;
  params.horizon_s = horizon_s;
  params.keep_log = keep_log;
  params.has_env = has_env;
  params.timeline = &timeline;
  params.windows = &windows;
  params.recalibration = recal_config;
  params.class_requirements = &config_.class_requirements;
  params.default_requirements = &config_.default_requirements;
  params.memo = &memo;

  ChannelSink sink;
  sink.stats = &result.stats;
  sink.latencies = &latencies;
  sink.class_latency = &class_latency;
  sink.total_payload_bits = &result.total_payload_bits;
  sink.log = keep_log ? &result.log : nullptr;
  sink.phase_stats = has_env ? &phase_stats : nullptr;
  sink.phase_latency = has_env ? &phase_latency : nullptr;

  for (std::size_t ch = 0; ch < config_.oni_count; ++ch) {
    params.channel_index = ch;
    run_channel(per_channel[ch], params, {sink});
  }

  finalize_stats(result.stats, latencies, class_latency,
                 has_env ? &phase_stats : nullptr,
                 has_env ? &phase_latency : nullptr);
  return result;
}

}  // namespace photecc::noc
