// String-keyed extensible registries: the indirection that lets an
// ExperimentSpec stay plain data.  Every axis value a spec names is
// resolved here, once, by spec::lower — link variants to MwsrParams,
// evaluator names to the grid's simulator flag, traffic kinds to
// TrafficSpec lowerings, policy and modulation names to their enums —
// and preset names to whole specs.
// Registries are process-global and append-only: library users may
// register their own variants next to the built-ins and reference them
// from JSON configs without touching this module.
#ifndef PHOTECC_SPEC_REGISTRIES_HPP
#define PHOTECC_SPEC_REGISTRIES_HPP

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "photecc/core/manager.hpp"
#include "photecc/env/environment.hpp"
#include "photecc/explore/scenario.hpp"
#include "photecc/link/mwsr_channel.hpp"
#include "photecc/math/modulation.hpp"
#include "photecc/spec/error.hpp"
#include "photecc/spec/spec.hpp"

namespace photecc::spec {

/// Insertion-ordered name -> factory map with uniform unknown-name
/// reporting: make() failures are SpecError listing every known name.
template <typename T>
class Registry {
 public:
  using Factory = std::function<T()>;

  /// `kind` names the registry in error messages ("link variant", ...).
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers a factory; duplicate or empty names are programming
  /// errors (std::invalid_argument).
  void add(std::string name, Factory factory) {
    if (name.empty())
      throw std::invalid_argument(kind_ + " registry: empty name");
    if (contains(name))
      throw std::invalid_argument(kind_ + " registry: duplicate name '" +
                                  name + "'");
    entries_.emplace_back(std::move(name), std::move(factory));
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    for (const auto& [existing, factory] : entries_) {
      (void)factory;
      if (existing == name) return true;
    }
    return false;
  }

  /// Resolves `name`, reporting failures against `field` ("base.link").
  [[nodiscard]] T make(const std::string& name,
                       const std::string& field) const {
    for (const auto& [existing, factory] : entries_)
      if (existing == name) return factory();
    std::string known;
    for (const auto& [existing, factory] : entries_) {
      (void)factory;
      if (!known.empty()) known += ", ";
      known += existing;
    }
    throw SpecError(field, "unknown " + kind_ + " '" + name +
                               "' (known: " + known + ")");
  }

  /// Registered names in insertion order.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, factory] : entries_) {
      (void)factory;
      out.push_back(name);
    }
    return out;
  }

 private:
  std::string kind_;
  std::vector<std::pair<std::string, Factory>> entries_;
};

/// Lowers one TrafficEntry to the explore engine's TrafficSpec.
using TrafficLowering =
    std::function<explore::TrafficSpec(const TrafficEntry&)>;

/// Named MwsrParams variants.  Built-ins: "paper" (the paper's 6 cm /
/// 12-ONI channel; aliases "paper-6cm", "paper-6cm-12oni"),
/// "short-2cm-4oni", and waveguide-length-only variants "2 cm", "4 cm",
/// "6 cm", "10 cm", "14 cm".
[[nodiscard]] Registry<link::MwsrParams>& link_registry();

/// Named cell evaluators, as the flag they lower onto the grid
/// (explore::ScenarioGrid::simulator): "link" (false — the analytic
/// lowered plan) and the simulator under two names, "noc" and "network"
/// (true — explore::evaluate_network_cell).  The spec value "auto" is
/// not an entry: it leaves the routing to the grid's axes.
[[nodiscard]] Registry<bool>& evaluator_registry();

/// Traffic kinds.  Built-ins: "uniform", "hotspot", "trace" (schema
/// v3: replays a noc::TraceTraffic message file).
[[nodiscard]] Registry<TrafficLowering>& traffic_registry();

/// Lowers one EnvironmentEntry to an env timeline.  The lowering also
/// range-checks the entry (the env factories throw std::invalid_argument
/// for out-of-range values, which spec::lower rewraps as SpecError).
using EnvironmentLowering =
    std::function<env::EnvironmentTimeline(const EnvironmentEntry&)>;

/// Environment timeline kinds (schema v2).  Built-ins: "constant",
/// "step", "ramp", "phases", "self-heating".
[[nodiscard]] Registry<EnvironmentLowering>& environment_registry();

/// Manager policies, prepopulated from core::all_policies().
[[nodiscard]] Registry<core::Policy>& policy_registry();

/// Signaling formats, prepopulated from math::all_modulations().
[[nodiscard]] Registry<math::Modulation>& modulation_registry();

/// Whole-experiment presets (the grids the CLI and benches ship):
/// "fig6b", "noc", "modulation", "modulation-smoke", "thermal",
/// "network" (tiled multi-channel sweep, schema v3).
[[nodiscard]] Registry<ExperimentSpec>& preset_registry();

}  // namespace photecc::spec

#endif  // PHOTECC_SPEC_REGISTRIES_HPP
