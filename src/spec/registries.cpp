#include "photecc/spec/registries.hpp"

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/scenario.hpp"

namespace photecc::spec {

namespace {

link::MwsrParams length_variant(double waveguide_length_m) {
  link::MwsrParams params;
  params.waveguide_length_m = waveguide_length_m;
  return params;
}

}  // namespace

Registry<link::MwsrParams>& link_registry() {
  static Registry<link::MwsrParams>* registry = [] {
    auto* r = new Registry<link::MwsrParams>("link variant");
    const auto paper = [] { return link::MwsrParams{}; };
    r->add("paper", paper);
    r->add("paper-6cm", paper);
    r->add("paper-6cm-12oni", paper);
    r->add("short-2cm-4oni", [] {
      link::MwsrParams params;
      params.waveguide_length_m = 0.02;
      params.oni_count = 4;
      return params;
    });
    // Length-only variants; the keys match the labels the historical
    // bench sweeps printed ("2 cm"), keeping their exports byte-stable.
    r->add("2 cm", [] { return length_variant(0.02); });
    r->add("4 cm", [] { return length_variant(0.04); });
    r->add("6 cm", [] { return length_variant(0.06); });
    r->add("10 cm", [] { return length_variant(0.10); });
    r->add("14 cm", [] { return length_variant(0.14); });
    return r;
  }();
  return *registry;
}

Registry<bool>& evaluator_registry() {
  static Registry<bool>* registry = [] {
    auto* r = new Registry<bool>("evaluator");
    r->add("link", [] { return false; });
    // "noc" and "network" name the one simulator; both stay registered
    // so existing documents keep resolving.
    for (const char* name : {"noc", "network"})
      r->add(name, [] { return true; });
    return r;
  }();
  return *registry;
}

Registry<TrafficLowering>& traffic_registry() {
  static Registry<TrafficLowering>* registry = [] {
    auto* r = new Registry<TrafficLowering>("traffic kind");
    r->add("uniform", [] {
      return TrafficLowering{[](const TrafficEntry& entry) {
        return explore::uniform_traffic(entry.rate_msgs_per_s,
                                        entry.payload_bits);
      }};
    });
    r->add("hotspot", [] {
      return TrafficLowering{[](const TrafficEntry& entry) {
        return explore::hotspot_traffic(entry.rate_msgs_per_s, entry.hotspot,
                                        entry.hotspot_fraction,
                                        entry.payload_bits);
      }};
    });
    r->add("trace", [] {
      return TrafficLowering{[](const TrafficEntry& entry) {
        return explore::trace_traffic(entry.trace_path);
      }};
    });
    return r;
  }();
  return *registry;
}

Registry<EnvironmentLowering>& environment_registry() {
  static Registry<EnvironmentLowering>* registry = [] {
    auto* r = new Registry<EnvironmentLowering>("environment kind");
    r->add("constant", [] {
      return EnvironmentLowering{[](const EnvironmentEntry& e) {
        return env::EnvironmentTimeline::constant(e.activity);
      }};
    });
    r->add("step", [] {
      return EnvironmentLowering{[](const EnvironmentEntry& e) {
        return env::EnvironmentTimeline::step(e.at_s, e.from_activity,
                                              e.to_activity);
      }};
    });
    r->add("ramp", [] {
      return EnvironmentLowering{[](const EnvironmentEntry& e) {
        return env::EnvironmentTimeline::ramp(e.start_s, e.end_s,
                                              e.from_activity,
                                              e.to_activity);
      }};
    });
    r->add("phases", [] {
      return EnvironmentLowering{[](const EnvironmentEntry& e) {
        std::vector<env::EnvironmentPhase> schedule;
        schedule.reserve(e.phases.size());
        for (const EnvironmentPhaseEntry& phase : e.phases)
          schedule.push_back(
              {phase.duration_s, phase.activity, phase.label});
        return env::EnvironmentTimeline::phases(std::move(schedule),
                                                e.cyclic);
      }};
    });
    r->add("self-heating", [] {
      return EnvironmentLowering{[](const EnvironmentEntry& e) {
        return env::EnvironmentTimeline::self_heating(
            e.baseline_activity, e.busy_gain, e.tau_s);
      }};
    });
    return r;
  }();
  return *registry;
}

Registry<core::Policy>& policy_registry() {
  static Registry<core::Policy>* registry = [] {
    auto* r = new Registry<core::Policy>("policy");
    for (const core::Policy policy : core::all_policies())
      r->add(core::to_string(policy), [policy] { return policy; });
    return r;
  }();
  return *registry;
}

Registry<math::Modulation>& modulation_registry() {
  static Registry<math::Modulation>* registry = [] {
    auto* r = new Registry<math::Modulation>("modulation");
    for (const math::Modulation modulation : math::all_modulations())
      r->add(math::to_string(modulation), [modulation] { return modulation; });
    return r;
  }();
  return *registry;
}

namespace {

ExperimentSpec fig6b_preset() {
  ExperimentSpec spec;
  spec.name = "fig6b";
  spec.codes = explore::paper_scheme_names();
  spec.ber_targets = {1e-6, 1e-8, 1e-10, 1e-12};
  spec.objectives = {{"ct", true}, {"p_channel_w", true}};
  return spec;
}

ExperimentSpec noc_preset() {
  ExperimentSpec spec;
  spec.name = "noc";
  spec.noc_horizon_s = 1e-6;
  spec.traffic = {
      {"uniform", 1e8, 4096, 0, 0.5, ""},
      {"uniform", 4e8, 4096, 0, 0.5, ""},
      {"hotspot", 2e8, 4096, 0, 0.5, ""},
  };
  spec.laser_gating = {true, false};
  spec.policies = {"min-energy", "min-time"};
  spec.oni_counts = {8, 12};
  spec.objectives = {{"mean_latency_s", true}, {"energy_per_bit_j", true}};
  return spec;
}

/// The OOK-vs-PAM4 sweep of bench_modulation_tradeoff: the full code
/// menu on the paper channel and a short-reach variant.
ExperimentSpec modulation_preset() {
  ExperimentSpec spec;
  spec.name = "modulation";
  for (const auto& code : ecc::all_known_codes())
    spec.codes.push_back(code->name());
  spec.ber_targets = {1e-6, 1e-9};
  spec.links = {"paper-6cm-12oni", "short-2cm-4oni"};
  spec.modulations = {"ook", "pam4"};
  spec.objectives = {{"ct", true}, {"p_channel_w", true}};
  return spec;
}

/// The thermal-transient sweep: the paper's scheme menu under a
/// mid-horizon activity ramp from the paper's 25 % toward saturation,
/// plus a self-heating variant — the dynamic twin of ablation AB5.
ExperimentSpec thermal_preset() {
  ExperimentSpec spec;
  spec.name = "thermal";
  spec.noc_horizon_s = 2e-6;
  spec.codes = explore::paper_scheme_names();
  spec.ber_targets = {1e-11};
  spec.traffic = {{"uniform", 4e8, 4096, 0, 0.5, ""}};
  EnvironmentEntry constant;
  EnvironmentEntry ramp;
  ramp.kind = "ramp";
  ramp.start_s = 2e-7;
  ramp.end_s = 1.2e-6;
  ramp.from_activity = 0.25;
  ramp.to_activity = 1.0;
  EnvironmentEntry self_heating;
  self_heating.kind = "self-heating";
  self_heating.baseline_activity = 0.25;
  self_heating.busy_gain = 0.75;
  self_heating.tau_s = 4e-7;
  spec.environments = {constant, ramp, self_heating};
  spec.objectives = {{"dropped_thermal", true}, {"energy_per_bit_j", true}};
  return spec;
}

/// The tiled-network sweep (schema v3): 16 tiles over 4 MWSR channels
/// where the interleaved mapping puts channels 0-1 under a thermal
/// ramp (hot cluster) and leaves 2-3 at the paper's 25 % activity —
/// per-code sweeps on top expose where uniform coding loses to the
/// per-channel assignment of bench_network_pareto.
ExperimentSpec network_preset() {
  ExperimentSpec spec;
  spec.name = "network";
  spec.noc_horizon_s = 2e-6;
  spec.ber_targets = {1e-11};
  spec.codes = explore::paper_scheme_names();
  spec.traffic = {{"uniform", 4e8, 4096, 0, 0.5, ""}};
  NetworkEntry net;
  net.tile_count = 16;
  net.channel_count = 4;
  EnvironmentEntry hot;
  hot.kind = "ramp";
  hot.start_s = 2e-7;
  hot.end_s = 1.2e-6;
  hot.from_activity = 0.25;
  hot.to_activity = 1.0;
  EnvironmentEntry cool;
  cool.activity = 0.25;
  net.channel_environments = {hot, hot, cool, cool};
  spec.network = net;
  spec.objectives = {{"dropped_thermal", true}, {"energy_per_bit_j", true}};
  return spec;
}

/// The cooling-code sweep (schema v4): the ramp / self-heating
/// environments of the thermal preset, with weight-bounded cooling
/// wraps of H(71,64) next to the bare FEC menu — the duty-bound
/// columns and dropped_thermal objective expose the thermal headroom a
/// cooling code buys at its rate cost.
ExperimentSpec cooling_preset() {
  ExperimentSpec spec;
  spec.name = "cooling";
  spec.noc_horizon_s = 2e-6;
  spec.codes = {"w/o ECC", "H(71,64)",
                cooling::cooling_name(std::size_t{64}, std::size_t{16}),
                cooling::cooling_name("H(71,64)", 16),
                cooling::cooling_name("H(71,64)", 32)};
  spec.ber_targets = {1e-11};
  spec.traffic = {{"uniform", 4e8, 4096, 0, 0.5, ""}};
  EnvironmentEntry ramp;
  ramp.kind = "ramp";
  ramp.start_s = 2e-7;
  ramp.end_s = 1.2e-6;
  ramp.from_activity = 0.25;
  ramp.to_activity = 1.0;
  EnvironmentEntry self_heating;
  self_heating.kind = "self-heating";
  self_heating.baseline_activity = 0.25;
  self_heating.busy_gain = 0.75;
  self_heating.tau_s = 4e-7;
  spec.environments = {ramp, self_heating};
  spec.objectives = {{"dropped_thermal", true}, {"energy_per_bit_j", true}};
  return spec;
}

ExperimentSpec modulation_smoke_preset() {
  ExperimentSpec spec;
  spec.name = "modulation-smoke";
  spec.codes = explore::paper_scheme_names();
  spec.ber_targets = {1e-8, 1e-10};
  spec.modulations = {"ook", "pam4"};
  spec.objectives = {{"ct", true}, {"p_channel_w", true}};
  return spec;
}

}  // namespace

Registry<ExperimentSpec>& preset_registry() {
  static Registry<ExperimentSpec>* registry = [] {
    auto* r = new Registry<ExperimentSpec>("preset");
    r->add("fig6b", fig6b_preset);
    r->add("noc", noc_preset);
    r->add("modulation", modulation_preset);
    r->add("modulation-smoke", modulation_smoke_preset);
    r->add("thermal", thermal_preset);
    r->add("network", network_preset);
    r->add("cooling", cooling_preset);
    return r;
  }();
  return *registry;
}

}  // namespace photecc::spec
