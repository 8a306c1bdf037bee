#include "photecc/spec/run.hpp"

#include <utility>

#include "lowering.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/spec/registries.hpp"

namespace photecc::spec {

explore::ScenarioGrid detail::lower_unchecked(const ExperimentSpec& spec) {
  explore::ScenarioGrid grid;
  grid.base_link(link_registry().make(spec.base_link, "base.link"));
  grid.base_seed(spec.seed);
  grid.noc_horizon(spec.noc_horizon_s);
  // The evaluator name becomes the grid's routing flag; "auto" leaves
  // the decision to the declared axes and network section.
  if (spec.evaluator != "auto")
    grid.simulator(evaluator_registry().make(spec.evaluator, "evaluator"));

  if (!spec.codes.empty()) grid.codes(spec.codes);
  if (!spec.ber_targets.empty()) grid.ber_targets(spec.ber_targets);
  if (!spec.links.empty()) {
    std::vector<explore::LinkVariant> variants;
    variants.reserve(spec.links.size());
    for (std::size_t i = 0; i < spec.links.size(); ++i)
      variants.emplace_back(
          spec.links[i],
          link_registry().make(spec.links[i],
                               "axes.links[" + std::to_string(i) + "]"));
    grid.link_variants(std::move(variants));
  }
  if (!spec.oni_counts.empty()) grid.oni_counts(spec.oni_counts);
  if (!spec.traffic.empty()) {
    std::vector<explore::TrafficSpec> patterns;
    patterns.reserve(spec.traffic.size());
    for (std::size_t i = 0; i < spec.traffic.size(); ++i) {
      const TrafficEntry& entry = spec.traffic[i];
      const TrafficLowering lowering = traffic_registry().make(
          entry.kind, "axes.traffic[" + std::to_string(i) + "].kind");
      patterns.push_back(lowering(entry));
    }
    grid.traffic_patterns(std::move(patterns));
  }
  if (!spec.laser_gating.empty()) grid.laser_gating(spec.laser_gating);
  if (!spec.policies.empty()) {
    std::vector<core::Policy> policies;
    policies.reserve(spec.policies.size());
    for (std::size_t i = 0; i < spec.policies.size(); ++i) {
      // core::policy_from_string is the canonical inverse; the registry
      // is only consulted for names it does not know (custom policies
      // and the known-name error listing).
      const auto policy = core::policy_from_string(spec.policies[i]);
      policies.push_back(policy ? *policy
                                : policy_registry().make(
                                      spec.policies[i],
                                      "axes.policies[" +
                                          std::to_string(i) + "]"));
    }
    grid.policies(std::move(policies));
  }
  if (!spec.modulations.empty()) {
    std::vector<math::Modulation> modulations;
    modulations.reserve(spec.modulations.size());
    for (std::size_t i = 0; i < spec.modulations.size(); ++i)
      modulations.push_back(modulation_registry().make(
          spec.modulations[i],
          "axes.modulations[" + std::to_string(i) + "]"));
    grid.modulations(std::move(modulations));
  }
  if (!spec.environments.empty()) {
    std::vector<explore::EnvironmentVariant> variants;
    variants.reserve(spec.environments.size());
    for (std::size_t i = 0; i < spec.environments.size(); ++i) {
      const EnvironmentEntry& entry = spec.environments[i];
      const EnvironmentLowering lowering = environment_registry().make(
          entry.kind, "axes.environments[" + std::to_string(i) + "].kind");
      env::EnvironmentTimeline timeline = lowering(entry);
      std::string label = timeline.label();
      variants.emplace_back(std::move(label), std::move(timeline));
    }
    grid.environments(std::move(variants));
  }
  if (spec.network) {
    const NetworkEntry& entry = *spec.network;
    explore::NetworkSpec net;
    net.tile_count = entry.tile_count;
    net.channel_count = entry.channel_count;
    net.mapping = entry.mapping;
    net.channel_codes = entry.channel_codes;
    net.channel_environments.reserve(entry.channel_environments.size());
    for (std::size_t i = 0; i < entry.channel_environments.size(); ++i) {
      const EnvironmentLowering lowering = environment_registry().make(
          entry.channel_environments[i].kind,
          "network.channel_environments[" + std::to_string(i) + "].kind");
      env::EnvironmentTimeline timeline =
          lowering(entry.channel_environments[i]);
      std::string label = timeline.label();
      net.channel_environments.emplace_back(std::move(label),
                                            std::move(timeline));
    }
    grid.network(std::move(net));
  }
  return grid;
}

explore::ScenarioGrid lower(const ExperimentSpec& spec) {
  validate(spec);
  return detail::lower_unchecked(spec);
}

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
