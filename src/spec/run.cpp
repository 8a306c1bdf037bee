#include "photecc/spec/run.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/math/json.hpp"
#include "photecc/spec/registries.hpp"

namespace photecc::spec {

namespace {

namespace json = math::json;

std::string element_path(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

void check_finite_positive(double value, const std::string& path) {
  if (!std::isfinite(value) || value <= 0.0)
    throw SpecError(path, "must be a finite value > 0, got " +
                              json::number(value));
}

/// Resolves one ecc registry name (COOL(...) included).
void check_code(const std::string& name, const std::string& path) {
  try {
    (void)ecc::make_code(name);
  } catch (const std::invalid_argument&) {
    throw SpecError(path, "unknown code '" + name + "'");
  }
}

/// Lowers one environment entry; the env factories range-check
/// everything (activities in [0, 1], ordered ramp endpoints, positive
/// durations/tau), so their exceptions are rewrapped with the entry's
/// field path.
explore::EnvironmentVariant lower_environment(const EnvironmentEntry& entry,
                                              const std::string& path) {
  const EnvironmentLowering lowering =
      environment_registry().make(entry.kind, path + ".kind");
  try {
    env::EnvironmentTimeline timeline = lowering(entry);
    std::string label = timeline.label();
    return {std::move(label), std::move(timeline)};
  } catch (const std::invalid_argument& e) {
    throw SpecError(path, e.what());
  }
}

/// Smallest ONI count any cell of the grid can have: the oni_counts
/// axis when declared, else the link-variant axis, else the base link.
std::size_t min_oni_count(const explore::ScenarioGrid& grid) {
  if (!grid.oni_axis().empty())
    return *std::min_element(grid.oni_axis().begin(), grid.oni_axis().end());
  if (grid.link_variant_axis().empty())
    return grid.base_link_params().oni_count;
  std::size_t min_oni = std::numeric_limits<std::size_t>::max();
  for (const explore::LinkVariant& variant : grid.link_variant_axis())
    min_oni = std::min(min_oni, variant.second.oni_count);
  return min_oni;
}

void check_traffic(const TrafficEntry& entry, const std::string& path) {
  if (entry.kind == "trace") {
    // The trace file carries the whole schedule; every generator field
    // must stay at its default or to_json() would silently drop it
    // (same round-trip rule as the hotspot fields below).
    if (entry.trace_path.empty())
      throw SpecError(path + ".path", "required for kind 'trace'");
    if (entry.rate_msgs_per_s != TrafficEntry{}.rate_msgs_per_s ||
        entry.payload_bits != TrafficEntry{}.payload_bits)
      throw SpecError(path,
                      "rate_msgs_per_s / payload_bits are not valid for "
                      "kind 'trace' (the trace file carries the schedule)");
  } else {
    if (!entry.trace_path.empty())
      throw SpecError(path, "path is only valid for kind 'trace', got kind '" +
                                entry.kind + "'");
    check_finite_positive(entry.rate_msgs_per_s, path + ".rate_msgs_per_s");
    if (entry.payload_bits == 0)
      throw SpecError(path + ".payload_bits", "must be > 0");
  }
  if (entry.kind != "hotspot" &&
      (entry.hotspot != TrafficEntry{}.hotspot ||
       entry.hotspot_fraction != TrafficEntry{}.hotspot_fraction))
    // Mirrors the JSON reader's rejection of these keys on other kinds;
    // otherwise to_json() would silently drop the values and break the
    // struct-level round trip.
    throw SpecError(path,
                    "hotspot / hotspot_fraction are only valid for kind "
                    "'hotspot', got kind '" + entry.kind + "'");
  if (entry.kind == "hotspot" &&
      (!std::isfinite(entry.hotspot_fraction) ||
       entry.hotspot_fraction < 0.0 || entry.hotspot_fraction > 1.0))
    throw SpecError(path + ".hotspot_fraction",
                    "value " + json::number(entry.hotspot_fraction) +
                        " outside [0, 1]");
}

explore::NetworkSpec lower_network(const NetworkEntry& entry) {
  if (entry.kind != "tiled")
    throw SpecError("network.kind",
                    "unknown network kind '" + entry.kind + "' (known: tiled)");
  if (entry.tile_count < 2)
    throw SpecError("network.tile_count",
                    "a tiled network needs >= 2 tiles, got " +
                        std::to_string(entry.tile_count));
  if (entry.channel_count < 1 || entry.channel_count > entry.tile_count)
    throw SpecError("network.channel_count",
                    "must be in [1, tile_count], got " +
                        std::to_string(entry.channel_count));
  if (entry.mapping != "interleaved" && entry.mapping != "blocked")
    throw SpecError("network.mapping",
                    "unknown mapping '" + entry.mapping +
                        "' (known: interleaved, blocked)");
  if (!entry.channel_codes.empty() &&
      entry.channel_codes.size() != entry.channel_count)
    throw SpecError("network.channel_codes",
                    "must name one code per channel (" +
                        std::to_string(entry.channel_count) + "), got " +
                        std::to_string(entry.channel_codes.size()));
  for (std::size_t i = 0; i < entry.channel_codes.size(); ++i)
    if (!entry.channel_codes[i].empty())  // "" inherits the menu
      check_code(entry.channel_codes[i],
                 element_path("network.channel_codes", i));
  if (!entry.channel_environments.empty() &&
      entry.channel_environments.size() != entry.channel_count)
    throw SpecError("network.channel_environments",
                    "must give one timeline per channel (" +
                        std::to_string(entry.channel_count) + "), got " +
                        std::to_string(entry.channel_environments.size()));

  explore::NetworkSpec net;
  net.tile_count = entry.tile_count;
  net.channel_count = entry.channel_count;
  net.mapping = entry.mapping;
  net.channel_codes = entry.channel_codes;
  for (std::size_t i = 0; i < entry.channel_environments.size(); ++i)
    net.channel_environments.push_back(lower_environment(
        entry.channel_environments[i],
        element_path("network.channel_environments", i)));
  return net;
}

}  // namespace

explore::ScenarioGrid lower(const ExperimentSpec& spec) {
  // The COOL(...) family resolves through the ecc factory hook; make
  // sure it is installed before any make_code call below.
  cooling::register_cooling_codes();
  explore::ScenarioGrid grid;

  // A named evaluator becomes the grid's simulator flag; "auto" leaves
  // the routing to the declared axes and network section.
  bool link_evaluator = false;
  if (spec.evaluator != "auto") {
    if (!evaluator_registry().contains(spec.evaluator)) {
      std::string known = "auto";
      for (const auto& name : evaluator_registry().names())
        known += ", " + name;
      throw SpecError("evaluator", "unknown evaluator '" + spec.evaluator +
                                       "' (known: " + known + ")");
    }
    const bool simulator =
        evaluator_registry().make(spec.evaluator, "evaluator");
    grid.simulator(simulator);
    link_evaluator = !simulator;
  }

  grid.base_link(link_registry().make(spec.base_link, "base.link"));
  grid.base_seed(spec.seed);
  check_finite_positive(spec.noc_horizon_s, "base.noc_horizon_s");
  grid.noc_horizon(spec.noc_horizon_s);

  for (std::size_t i = 0; i < spec.codes.size(); ++i)
    check_code(spec.codes[i], element_path("axes.codes", i));
  grid.codes(spec.codes);

  for (std::size_t i = 0; i < spec.ber_targets.size(); ++i) {
    const double ber = spec.ber_targets[i];
    if (!std::isfinite(ber) || ber <= 0.0 || ber >= 0.5)
      throw SpecError(element_path("axes.ber_targets", i),
                      "value " + json::number(ber) +
                          " outside the BER range (0, 0.5)");
  }
  grid.ber_targets(spec.ber_targets);

  std::vector<explore::LinkVariant> variants;
  for (std::size_t i = 0; i < spec.links.size(); ++i)
    variants.emplace_back(
        spec.links[i],
        link_registry().make(spec.links[i], element_path("axes.links", i)));
  grid.link_variants(std::move(variants));

  for (std::size_t i = 0; i < spec.oni_counts.size(); ++i)
    if (spec.oni_counts[i] < 2)
      throw SpecError(element_path("axes.oni_counts", i),
                      "an MWSR channel needs >= 2 ONIs (writers + the "
                      "reader), got " + std::to_string(spec.oni_counts[i]));
  grid.oni_counts(spec.oni_counts);

  std::vector<explore::TrafficSpec> patterns;
  for (std::size_t i = 0; i < spec.traffic.size(); ++i) {
    const TrafficEntry& entry = spec.traffic[i];
    const std::string path = element_path("axes.traffic", i);
    const TrafficLowering lowering =
        traffic_registry().make(entry.kind, path + ".kind");
    check_traffic(entry, path);
    // Hotspot indices address tiles: the network's tile count when a
    // network section is declared, else the smallest ONI count any cell
    // can take (every traffic entry is crossed with every ONI/link).
    if (entry.kind == "hotspot") {
      const std::size_t tiles =
          spec.network ? spec.network->tile_count : min_oni_count(grid);
      if (entry.hotspot >= tiles)
        throw SpecError(path + ".hotspot",
                        "tile index " + std::to_string(entry.hotspot) +
                            " out of range for the smallest tile count " +
                            std::to_string(tiles) + " in this spec");
    }
    patterns.push_back(lowering(entry));
  }
  grid.traffic_patterns(std::move(patterns));
  grid.laser_gating(spec.laser_gating);

  std::vector<core::Policy> policies;
  for (std::size_t i = 0; i < spec.policies.size(); ++i)
    policies.push_back(policy_registry().make(
        spec.policies[i], element_path("axes.policies", i)));
  grid.policies(std::move(policies));

  std::vector<math::Modulation> modulations;
  for (std::size_t i = 0; i < spec.modulations.size(); ++i)
    modulations.push_back(modulation_registry().make(
        spec.modulations[i], element_path("axes.modulations", i)));
  grid.modulations(std::move(modulations));

  std::vector<explore::EnvironmentVariant> environments;
  for (std::size_t i = 0; i < spec.environments.size(); ++i)
    environments.push_back(lower_environment(
        spec.environments[i], element_path("axes.environments", i)));
  grid.environments(std::move(environments));

  if (spec.network) grid.network(lower_network(*spec.network));

  // The routing checks ask the finished grid: runs_simulator() is the
  // one routing decision.  An explicit link evaluator cannot run what
  // only the simulator can, and the link plan solves one static
  // operating point (the t = 0 sample), so a time-varying timeline
  // would silently collapse to its initial value.
  if (link_evaluator && grid.runs_simulator())
    throw SpecError("evaluator",
                    "evaluator '" + spec.evaluator +
                        "' cannot run a network section or the NoC axes "
                        "(traffic, laser_gating, policies); use auto, noc "
                        "or network");
  if (!grid.runs_simulator())
    for (std::size_t i = 0; i < spec.environments.size(); ++i)
      if (spec.environments[i].kind != "constant")
        throw SpecError(element_path("axes.environments", i) + ".kind",
                        "time-varying environment '" +
                            spec.environments[i].kind +
                            "' needs the 'noc' evaluator (the link "
                            "evaluator solves at the t = 0 sample); use "
                            "kind 'constant' or declare a NoC axis or "
                            "evaluator");

  // Objectives may name any metric column of the grid — the same schema
  // the exports are written in.
  if (spec.objectives.empty()) return grid;
  const std::vector<std::string> known_metrics =
      explore::result_schema(grid).metrics;
  for (std::size_t i = 0; i < spec.objectives.size(); ++i) {
    const std::string& metric = spec.objectives[i].metric;
    const std::string path = element_path("objectives", i) + ".metric";
    if (metric.empty()) throw SpecError(path, "must not be empty");
    if (std::find(known_metrics.begin(), known_metrics.end(), metric) ==
        known_metrics.end()) {
      std::string known;
      for (const std::string& name : known_metrics) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      throw SpecError(path, "unknown metric '" + metric +
                                "' for this spec's evaluator (known: " +
                                known + ")");
    }
  }
  return grid;
}

void validate(const ExperimentSpec& spec) { (void)lower(spec); }

std::vector<explore::Objective> lower_objectives(const ExperimentSpec& spec) {
  std::vector<explore::Objective> objectives;
  objectives.reserve(spec.objectives.size());
  for (const ObjectiveEntry& entry : spec.objectives)
    objectives.push_back({entry.metric, entry.minimize});
  return objectives;
}

explore::ExperimentResult run(const ExperimentSpec& spec) {
  return explore::SweepRunner{{spec.threads}}.run(lower(spec));
}

}  // namespace photecc::spec
