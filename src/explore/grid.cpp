#include "photecc/explore/grid.hpp"

#include <stdexcept>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/math/rng.hpp"
#include "photecc/math/table.hpp"

namespace photecc::explore {

TrafficSpec uniform_traffic(double rate_msgs_per_s,
                            std::uint64_t payload_bits) {
  TrafficSpec spec;
  spec.label = "uniform@" + math::format_sci(rate_msgs_per_s, 1);
  spec.kind = TrafficSpec::Kind::kUniform;
  spec.rate_msgs_per_s = rate_msgs_per_s;
  spec.payload_bits = payload_bits;
  return spec;
}

TrafficSpec hotspot_traffic(double rate_msgs_per_s, std::size_t hotspot,
                            double hotspot_fraction,
                            std::uint64_t payload_bits) {
  TrafficSpec spec;
  spec.label = "hotspot" + std::to_string(hotspot) + "@" +
               math::format_sci(rate_msgs_per_s, 1);
  spec.kind = TrafficSpec::Kind::kHotspot;
  spec.rate_msgs_per_s = rate_msgs_per_s;
  spec.payload_bits = payload_bits;
  spec.hotspot = hotspot;
  spec.hotspot_fraction = hotspot_fraction;
  return spec;
}

TrafficSpec trace_traffic(std::string path) {
  TrafficSpec spec;
  spec.label = "trace@" + path;
  spec.kind = TrafficSpec::Kind::kTrace;
  spec.trace_path = std::move(path);
  return spec;
}

ScenarioGrid& ScenarioGrid::codes(std::vector<std::string> names) {
  codes_ = std::move(names);
  return *this;
}

ScenarioGrid& ScenarioGrid::cooling_weights(
    std::vector<std::size_t> weights) {
  cooling_weights_ = std::move(weights);
  return *this;
}

ScenarioGrid& ScenarioGrid::ber_targets(std::vector<double> bers) {
  bers_ = std::move(bers);
  return *this;
}

ScenarioGrid& ScenarioGrid::link_variants(std::vector<LinkVariant> variants) {
  link_variants_ = std::move(variants);
  return *this;
}

ScenarioGrid& ScenarioGrid::oni_counts(std::vector<std::size_t> counts) {
  oni_counts_ = std::move(counts);
  return *this;
}

ScenarioGrid& ScenarioGrid::traffic_patterns(std::vector<TrafficSpec> specs) {
  traffic_ = std::move(specs);
  return *this;
}

ScenarioGrid& ScenarioGrid::laser_gating(std::vector<bool> values) {
  gating_ = std::move(values);
  return *this;
}

ScenarioGrid& ScenarioGrid::policies(std::vector<core::Policy> values) {
  policies_ = std::move(values);
  return *this;
}

ScenarioGrid& ScenarioGrid::modulations(
    std::vector<math::Modulation> values) {
  modulations_ = std::move(values);
  return *this;
}

ScenarioGrid& ScenarioGrid::environments(
    std::vector<EnvironmentVariant> variants) {
  environments_ = std::move(variants);
  return *this;
}

ScenarioGrid& ScenarioGrid::base_link(link::MwsrParams params) {
  base_link_ = std::move(params);
  return *this;
}

ScenarioGrid& ScenarioGrid::base_system(core::SystemConfig config) {
  base_system_ = std::move(config);
  return *this;
}

ScenarioGrid& ScenarioGrid::base_seed(std::uint64_t seed) {
  base_seed_ = seed;
  return *this;
}

ScenarioGrid& ScenarioGrid::noc_horizon(double horizon_s) {
  noc_horizon_s_ = horizon_s;
  return *this;
}

ScenarioGrid& ScenarioGrid::network(NetworkSpec spec) {
  network_ = std::move(spec);
  return *this;
}

ScenarioGrid& ScenarioGrid::simulator(bool on) {
  simulator_ = on;
  return *this;
}

namespace {

/// Length an axis contributes to the mixed radix (1 when undeclared).
std::size_t radix(std::size_t axis_length) {
  return axis_length ? axis_length : 1;
}

// The label formats of at() that are more than the value's own name;
// axis_labels() renders the result schema's dictionaries with them.
std::string cooling_label(std::size_t weight) {
  // append() sidesteps GCC 12's -Wrestrict false positive (PR105651).
  return weight == 0 ? std::string("off")
                     : std::string("w").append(std::to_string(weight));
}
std::string ber_label(double ber) { return math::format_sci(ber, 0); }
std::string gating_label(bool on) { return on ? "on" : "off"; }

}  // namespace

std::size_t ScenarioGrid::size() const {
  return radix(codes_.size()) * radix(cooling_weights_.size()) *
         radix(bers_.size()) *
         radix(link_variants_.size()) * radix(oni_counts_.size()) *
         radix(traffic_.size()) * radix(gating_.size()) *
         radix(policies_.size()) * radix(modulations_.size()) *
         radix(environments_.size());
}

bool ScenarioGrid::runs_simulator() const {
  return simulator_ || network_ || !traffic_.empty() || !gating_.empty() ||
         !policies_.empty();
}

std::vector<AxisLabels> ScenarioGrid::axis_labels() const {
  std::vector<AxisLabels> axes;
  const auto add = [&axes](const char* name, const auto& values,
                           const auto& format) {
    if (values.empty()) return;
    AxisLabels& axis = axes.emplace_back(AxisLabels{name, {}});
    for (const auto& value : values) axis.labels.push_back(format(value));
  };
  add("code", codes_, [](const std::string& code) { return code; });
  add("cooling", cooling_weights_, cooling_label);
  add("target_ber", bers_, ber_label);
  add("link", link_variants_, [](const LinkVariant& v) { return v.first; });
  add("oni_count", oni_counts_,
      [](std::size_t count) { return std::to_string(count); });
  add("traffic", traffic_, [](const TrafficSpec& t) { return t.label; });
  add("laser_gating", gating_, gating_label);
  add("policy", policies_, [](core::Policy p) { return core::to_string(p); });
  add("modulation", modulations_,
      [](math::Modulation m) { return math::to_string(m); });
  add("environment", environments_,
      [](const EnvironmentVariant& v) { return v.first; });
  return axes;
}

Scenario ScenarioGrid::at(std::size_t i) const {
  if (i >= size())
    throw std::out_of_range("ScenarioGrid::at: index " + std::to_string(i) +
                            " >= size " + std::to_string(size()));
  Scenario s;
  s.index = i;
  s.link = base_link_;
  s.system = base_system_;
  s.network = network_;
  s.noc_horizon_s = noc_horizon_s_;

  // Deterministic per-cell seed: the shared splitmix64 mixer over the
  // base seed and the cell index, so cell seeds do not depend on
  // evaluation order or thread count.
  s.seed = math::derive_seed(base_seed_, i);

  // Mixed-radix decode, innermost (fastest-varying) axis first.  The
  // label list is built in the same canonical order.
  std::size_t rem = i;
  const auto digit = [&rem](std::size_t axis_length) {
    const std::size_t r = radix(axis_length);
    const std::size_t d = rem % r;
    rem /= r;
    return d;
  };

  if (const std::size_t d = digit(codes_.size()); !codes_.empty()) {
    s.code = codes_[d];
    s.labels.emplace_back("code", *s.code);
  }
  if (const std::size_t d = digit(cooling_weights_.size());
      !cooling_weights_.empty()) {
    // The code label above keeps the base name; the wrap shows up in
    // the cooling label and in the scheme column of the cell result.
    const std::size_t w = cooling_weights_[d];
    s.cooling_weight = w;
    if (w > 0)
      s.code = cooling::cooling_name(s.code.value_or("w/o ECC"), w);
    s.labels.emplace_back("cooling", cooling_label(w));
  }
  if (const std::size_t d = digit(bers_.size()); !bers_.empty()) {
    s.target_ber = bers_[d];
    s.labels.emplace_back("target_ber", ber_label(s.target_ber));
  }
  if (const std::size_t d = digit(link_variants_.size());
      !link_variants_.empty()) {
    s.link = link_variants_[d].second;
    s.labels.emplace_back("link", link_variants_[d].first);
  }
  if (const std::size_t d = digit(oni_counts_.size()); !oni_counts_.empty()) {
    s.link.oni_count = oni_counts_[d];
    s.system.oni_count = oni_counts_[d];
    s.labels.emplace_back("oni_count", std::to_string(oni_counts_[d]));
  }
  if (const std::size_t d = digit(traffic_.size()); !traffic_.empty()) {
    s.traffic = traffic_[d];
    s.labels.emplace_back("traffic", traffic_[d].label);
  }
  if (const std::size_t d = digit(gating_.size()); !gating_.empty()) {
    s.laser_gating = gating_[d];
    s.labels.emplace_back("laser_gating", gating_label(s.laser_gating));
  }
  if (const std::size_t d = digit(policies_.size()); !policies_.empty()) {
    s.policy = policies_[d];
    s.labels.emplace_back("policy", core::to_string(s.policy));
  }
  if (const std::size_t d = digit(modulations_.size());
      !modulations_.empty()) {
    s.link.modulation = modulations_[d];
    s.labels.emplace_back("modulation",
                          math::to_string(s.link.modulation));
  }
  if (const std::size_t d = digit(environments_.size());
      !environments_.empty()) {
    s.link.environment = environments_[d].second;
    s.labels.emplace_back("environment", environments_[d].first);
  }
  return s;
}

}  // namespace photecc::explore
