#include "photecc/explore/evaluators.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

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

ResultSchema result_schema(const ScenarioGrid& grid) {
  ResultSchema schema;
  schema.axes = grid.axis_labels();
  const bool cooling = !grid.cooling_axis().empty();
  std::vector<std::string>& metrics = schema.metrics;
  if (!grid.runs_simulator()) {
    metrics = link_cell_metric_names();
    if (cooling)
      for (const std::string& name : cooling_metric_names())
        metrics.push_back(name);
    return schema;
  }

  metrics = noc_cell_metric_names();
  const auto& network = grid.network_spec();
  const auto& variants = grid.link_variant_axis();
  const bool environment =
      !grid.environment_axis().empty() ||
      (network && !network->channel_environments.empty()) ||
      (variants.empty()
           ? grid.base_link_params().environment.has_value()
           : std::any_of(variants.begin(), variants.end(),
                         [](const LinkVariant& v) {
                           return v.second.environment.has_value();
                         }));
  if (environment)
    for (const std::string& name : noc_env_metric_names())
      metrics.push_back(name);
  if (cooling) metrics.push_back(cooling_metric_names().front());
  if (network)
    for (std::size_t ch = 0; ch < network->channel_count; ++ch)
      for (const std::string& name : network_channel_metric_names())
        metrics.push_back("ch" + std::to_string(ch) + "_" + name);
  return schema;
}

void store_link_cell(ResultTable& table, std::size_t row,
                     core::SchemeMetrics m, double total_loss_db,
                     const link::MwsrChannel& channel, bool cooling) {
  table.set_feasible(row, m.feasible);
  const std::span<double> out = table.metric_row(row);
  out[0] = m.ct;
  out[1] = m.p_channel_w;
  out[2] = m.p_laser_w;
  out[3] = m.p_mr_w;
  out[4] = m.p_enc_dec_w;
  out[5] = m.energy_per_bit_j;
  out[6] = m.code_rate;
  out[7] = m.operating_point.op_laser_w;
  out[8] = m.operating_point.snr;
  out[9] = m.p_interconnect_w;
  out[10] = total_loss_db;
  if (cooling) {
    out[11] = m.duty_bound;
    out[12] = core::thermal_headroom_w(channel, m, channel.environment());
  }
  table.scheme(row) = std::move(m);
}

void evaluate_link_cell(const Scenario& scenario, ResultTable& table) {
  cooling::register_cooling_codes();
  const link::MwsrChannel channel{scenario.link};
  const auto code = ecc::make_code(scenario.code.value_or("w/o ECC"));
  core::SchemeMetrics m =
      core::evaluate_scheme(channel, *code, scenario.target_ber,
                            scenario.system);
  const auto budget =
      link::compute_link_budget(channel, channel.worst_channel());
  store_link_cell(table, scenario.index, std::move(m), budget.total_loss_db,
                  channel, scenario.cooling_weight.has_value());
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

}  // namespace

void evaluate_network_cell(const Scenario& scenario, ResultTable& table) {
  cooling::register_cooling_codes();

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

  // The columns in result_schema() order; whether the environment
  // columns exist is the grid's decision, read off the schema.
  const noc::NocStats& stats = run.stats.aggregate;
  table.set_feasible(scenario.index, stats.delivered > 0);
  const std::span<double> row = table.metric_row(scenario.index);
  std::size_t k = 0;
  const auto put = [&](double value) {
    if (k < row.size()) row[k] = value;
    ++k;
  };
  put(static_cast<double>(stats.delivered));
  put(static_cast<double>(stats.dropped));
  put(static_cast<double>(stats.deadline_misses));
  put(stats.mean_latency_s);
  put(stats.p95_latency_s);
  put(stats.max_latency_s);
  put(stats.total_energy_j);
  put(stats.laser_energy_j);
  put(stats.idle_laser_energy_j);
  put(stats.energy_per_bit_j(run.total_payload_bits));
  put(stats.busy_time_s);
  if (table.schema().metric_column(noc_env_metric_names().front())) {
    put(static_cast<double>(stats.dropped_thermal));
    put(static_cast<double>(stats.recalibrations));
    put(stats.recalibration_energy_j);
    put(stats.peak_activity);
    put(stats.final_activity);
  }
  if (scenario.cooling_weight) put(duty_bound);
  if (scenario.network) {
    for (std::size_t ch = 0; ch < run.stats.channels.size(); ++ch) {
      const noc::NocStats& cs = run.stats.channels[ch];
      put(static_cast<double>(cs.delivered));
      put(static_cast<double>(cs.dropped));
      put(static_cast<double>(cs.dropped_thermal));
      put(cs.mean_latency_s);
      put(cs.p95_latency_s);
      put(cs.total_energy_j);
      put(cs.energy_per_bit_j(run.stats.channel_payload_bits[ch]));
      put(static_cast<double>(cs.recalibrations));
    }
  }
  if (k != row.size())
    throw std::logic_error("evaluate_network_cell: wrote " +
                           std::to_string(k) + " of " +
                           std::to_string(row.size()) + " schema columns");
}

}  // namespace photecc::explore
