#include "photecc/explore/evaluators.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include <algorithm>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/core/channel_power.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/link/link_budget.hpp"
#include "photecc/noc/network.hpp"
#include "photecc/noc/traffic.hpp"

namespace photecc::explore {

const std::vector<std::string>& paper_scheme_names() {
  static const std::vector<std::string> names{"w/o ECC", "H(71,64)",
                                              "H(7,4)"};
  return names;
}

const std::vector<Objective>& fig6b_objectives() {
  static const std::vector<Objective> objectives{{"ct", true},
                                                 {"p_channel_w", true}};
  return objectives;
}

const std::vector<std::string>& link_cell_metric_names() {
  static const std::vector<std::string> names{
      "ct",          "p_channel_w",      "p_laser_w",
      "p_mr_w",      "p_enc_dec_w",      "energy_per_bit_j",
      "code_rate",   "op_laser_w",       "snr",
      "p_interconnect_w", "total_loss_db"};
  return names;
}

const std::vector<std::string>& noc_cell_metric_names() {
  static const std::vector<std::string> names{
      "delivered",       "dropped",         "deadline_misses",
      "mean_latency_s",  "p95_latency_s",   "max_latency_s",
      "total_energy_j",  "laser_energy_j",  "idle_laser_energy_j",
      "energy_per_bit_j", "busy_time_s"};
  return names;
}

const std::vector<std::string>& noc_env_metric_names() {
  static const std::vector<std::string> names{
      "dropped_thermal", "recalibrations", "recalibration_energy_j",
      "peak_activity", "final_activity"};
  return names;
}

const std::vector<std::string>& network_channel_metric_names() {
  static const std::vector<std::string> names{
      "delivered",      "dropped",          "dropped_thermal",
      "mean_latency_s", "p95_latency_s",    "total_energy_j",
      "energy_per_bit_j", "recalibrations"};
  return names;
}

const std::vector<std::string>& cooling_metric_names() {
  static const std::vector<std::string> names{"duty_bound",
                                              "thermal_headroom_w"};
  return names;
}

namespace {

/// Smallest transmit duty bound across a scheme menu — what the
/// hottest-case wire count of an adaptive channel is bounded by.
double menu_duty_bound(const std::vector<ecc::BlockCodePtr>& menu) {
  double bound = 1.0;
  for (const auto& code : menu)
    bound = std::min(bound, code->transmit_duty_bound());
  return bound;
}

}  // namespace

CellResult evaluate_link_cell(const Scenario& scenario) {
  cooling::register_cooling_codes();
  CellResult result;
  result.index = scenario.index;
  result.labels = scenario.labels;

  const link::MwsrChannel channel{scenario.link};
  const auto code = ecc::make_code(scenario.code.value_or("w/o ECC"));
  core::SchemeMetrics m =
      core::evaluate_scheme(channel, *code, scenario.target_ber,
                            scenario.system);
  result.feasible = m.feasible;
  result.set_metric("ct", m.ct);
  result.set_metric("p_channel_w", m.p_channel_w);
  result.set_metric("p_laser_w", m.p_laser_w);
  result.set_metric("p_mr_w", m.p_mr_w);
  result.set_metric("p_enc_dec_w", m.p_enc_dec_w);
  result.set_metric("energy_per_bit_j", m.energy_per_bit_j);
  result.set_metric("code_rate", m.code_rate);
  result.set_metric("op_laser_w", m.operating_point.op_laser_w);
  result.set_metric("snr", m.operating_point.snr);
  result.set_metric("p_interconnect_w", m.p_interconnect_w);

  const auto budget =
      link::compute_link_budget(channel, channel.worst_channel());
  result.set_metric("total_loss_db", budget.total_loss_db);

  if (scenario.cooling_weight) {
    result.set_metric("duty_bound", m.duty_bound);
    result.set_metric(
        "thermal_headroom_w",
        core::thermal_headroom_w(channel, m, channel.environment()));
  }

  result.scheme = std::move(m);
  return result;
}

namespace {

std::shared_ptr<const noc::TrafficGenerator> make_generator(
    const Scenario& scenario) {
  const TrafficSpec spec = scenario.traffic.value_or(TrafficSpec{});
  const std::size_t tiles = scenario.network ? scenario.network->tile_count
                                             : scenario.link.oni_count;
  switch (spec.kind) {
    case TrafficSpec::Kind::kHotspot:
      return std::make_shared<noc::HotspotTraffic>(
          tiles, spec.rate_msgs_per_s, spec.payload_bits, spec.hotspot,
          spec.hotspot_fraction);
    case TrafficSpec::Kind::kTrace:
      return std::make_shared<noc::TraceTraffic>(
          noc::TraceTraffic::from_file(spec.trace_path));
    case TrafficSpec::Kind::kUniform:
      break;
  }
  return std::make_shared<noc::UniformRandomTraffic>(
      tiles, spec.rate_msgs_per_s, spec.payload_bits,
      noc::TrafficClass::kBestEffort, scenario.target_ber);
}

/// Aggregate columns, in the noc_cell_metric_names() order
/// (+ noc_env_metric_names() when env_columns).
void set_aggregate_metrics(CellResult& result, const noc::NocStats& stats,
                           std::uint64_t total_payload_bits,
                           bool env_columns) {
  result.feasible = stats.delivered > 0;
  result.set_metric("delivered", static_cast<double>(stats.delivered));
  result.set_metric("dropped", static_cast<double>(stats.dropped));
  result.set_metric("deadline_misses",
                    static_cast<double>(stats.deadline_misses));
  result.set_metric("mean_latency_s", stats.mean_latency_s);
  result.set_metric("p95_latency_s", stats.p95_latency_s);
  result.set_metric("max_latency_s", stats.max_latency_s);
  result.set_metric("total_energy_j", stats.total_energy_j);
  result.set_metric("laser_energy_j", stats.laser_energy_j);
  result.set_metric("idle_laser_energy_j", stats.idle_laser_energy_j);
  result.set_metric("energy_per_bit_j",
                    stats.energy_per_bit_j(total_payload_bits));
  result.set_metric("busy_time_s", stats.busy_time_s);
  if (env_columns) {
    // Environment-only columns: appended after the stable set so
    // environment-free grids keep their historical export layout.
    result.set_metric("dropped_thermal",
                      static_cast<double>(stats.dropped_thermal));
    result.set_metric("recalibrations",
                      static_cast<double>(stats.recalibrations));
    result.set_metric("recalibration_energy_j",
                      stats.recalibration_energy_j);
    result.set_metric("peak_activity", stats.peak_activity);
    result.set_metric("final_activity", stats.final_activity);
  }
}

}  // namespace

CellResult evaluate_network_cell(const Scenario& scenario) {
  cooling::register_cooling_codes();
  CellResult result;
  result.index = scenario.index;
  result.labels = scenario.labels;

  noc::NetworkConfig config;
  config.base_link = scenario.link;
  config.system = scenario.system;
  config.scheme_menu = scenario.code
                           ? std::vector<ecc::BlockCodePtr>{ecc::make_code(
                                 *scenario.code)}
                           : ecc::paper_schemes();
  config.default_requirements.target_ber = scenario.target_ber;
  config.default_requirements.policy = scenario.policy;
  config.laser_gating = scenario.laser_gating;
  bool env_columns = scenario.link.environment.has_value();
  double duty_bound = menu_duty_bound(config.scheme_menu);

  if (!scenario.network) {
    // The paper's Fig. 2a topology: one reader channel per ONI.
    config.topology.tile_count = scenario.link.oni_count;
    config.topology.channel_count = scenario.link.oni_count;
  } else {
    const NetworkSpec& net = *scenario.network;
    config.topology.tile_count = net.tile_count;
    config.topology.channel_count = net.channel_count;
    if (net.mapping == "interleaved")
      config.topology.mapping = noc::NetworkTopology::Mapping::kInterleaved;
    else if (net.mapping == "blocked")
      config.topology.mapping = noc::NetworkTopology::Mapping::kBlocked;
    else
      throw std::invalid_argument("NetworkSpec: unknown mapping '" +
                                  net.mapping +
                                  "' (expected interleaved or blocked)");

    if (!net.channel_codes.empty() &&
        net.channel_codes.size() != net.channel_count)
      throw std::invalid_argument(
          "NetworkSpec: channel_codes must name one code per channel");
    if (!net.channel_environments.empty() &&
        net.channel_environments.size() != net.channel_count)
      throw std::invalid_argument(
          "NetworkSpec: channel_environments must give one timeline per "
          "channel");
    if (!net.channel_codes.empty() || !net.channel_environments.empty()) {
      config.channels.resize(net.channel_count);
      for (std::size_t ch = 0; ch < net.channel_count; ++ch) {
        if (!net.channel_codes.empty() && !net.channel_codes[ch].empty())
          config.channels[ch].scheme_menu = {
              ecc::make_code(net.channel_codes[ch])};
        if (!net.channel_environments.empty())
          config.channels[ch].environment =
              net.channel_environments[ch].second;
      }
    }
    env_columns = env_columns || !net.channel_environments.empty();

    // The network-wide duty bound is the loosest channel's: every
    // channel without a pinned cooling code can light all its wires.
    if (!net.channel_codes.empty()) {
      duty_bound = 0.0;
      for (const noc::NetworkChannelConfig& channel : config.channels)
        duty_bound = std::max(
            duty_bound, menu_duty_bound(channel.scheme_menu.empty()
                                            ? config.scheme_menu
                                            : channel.scheme_menu));
    }
  }

  const noc::NetworkSimulator simulator{std::move(config)};
  const auto generator = make_generator(scenario);
  const noc::NetworkRunResult run =
      simulator.run(*generator, scenario.noc_horizon_s, scenario.seed);

  set_aggregate_metrics(result, run.stats.aggregate, run.total_payload_bits,
                        env_columns);
  if (scenario.cooling_weight) result.set_metric("duty_bound", duty_bound);

  if (!scenario.network) return result;
  for (std::size_t ch = 0; ch < run.stats.channels.size(); ++ch) {
    const noc::NocStats& cs = run.stats.channels[ch];
    const std::string prefix = "ch" + std::to_string(ch) + "_";
    result.set_metric(prefix + "delivered",
                      static_cast<double>(cs.delivered));
    result.set_metric(prefix + "dropped", static_cast<double>(cs.dropped));
    result.set_metric(prefix + "dropped_thermal",
                      static_cast<double>(cs.dropped_thermal));
    result.set_metric(prefix + "mean_latency_s", cs.mean_latency_s);
    result.set_metric(prefix + "p95_latency_s", cs.p95_latency_s);
    result.set_metric(prefix + "total_energy_j", cs.total_energy_j);
    result.set_metric(
        prefix + "energy_per_bit_j",
        cs.energy_per_bit_j(run.stats.channel_payload_bits[ch]));
    result.set_metric(prefix + "recalibrations",
                      static_cast<double>(cs.recalibrations));
  }
  return result;
}

}  // namespace photecc::explore
