// photecc::spec — one declarative, serializable description of a whole
// cross-layer experiment.
//
// An ExperimentSpec is *data*: every knob of the exploration stack —
// link variant, modulation, code menu, BER targets, traffic, gating,
// policy, objectives, evaluator, seed, thread count — as plain
// string-keyed values resolved through the extensible registries of
// registries.hpp.  The same spec can be produced three equivalent ways
// (the struct itself, a JSON document, explore_cli flags) and is lowered
// by run.hpp onto the existing explore::ScenarioGrid / SweepRunner
// engine.  The struct is a plain aggregate; C++20 designated
// initializers name the fields a C++ caller sets:
//
//   const spec::ExperimentSpec experiment{
//       .name = "fig6b",
//       .base_link = "paper-6cm",
//       .codes = {"H(71,64)", "BCH(15,7,2)"},
//       .ber_targets = {1e-8, 1e-10},
//       .modulations = {"pam4"},
//       .objectives = {{"ct"}, {"p_channel_w"}},
//   };
//
// Every member carries a default member initializer (`{}` where the
// default is empty), so an initializer that omits members stays
// warning-free under -Wextra.
//
// Serialization contract: to_json() is a pure function of the struct
// (canonical key order, axes omitted when undeclared, shortest
// round-trip number formatting), and from_json() is strict (unknown
// keys, wrong types, duplicate keys and unsupported schema versions are
// all SpecError/ParseError with a field path — never a partial spec).
// Hence `spec -> to_json -> from_json -> to_json` is byte-identical.
//
// Schema versioning: the document carries `"photecc_spec": <N>`.  The
// version is bumped only when a field changes meaning or is removed;
// adding optional fields keeps the version.  A reader rejects versions
// it does not know.  Writers emit the *smallest* version that can
// express the spec (a spec without v3 features serialises exactly as
// it did under v2, so existing documents and canonical hashes stay
// byte-stable).  Version history:
//   1 — the original schema (still accepted; a v1 document parses to
//       the same spec it always did).
//   2 — adds the `axes.environments` block (time-varying environment
//       timelines).  An environments block inside a v1 document is
//       rejected with a pointer at the version field.
//   3 — adds the kind-discriminated top-level `network` section (tiled
//       multi-channel topology with per-channel coding and
//       environments) and the "trace" traffic kind (file-driven
//       message timelines).  Either feature inside a v1/v2 document is
//       rejected with a pointer at the version field.
//   4 — adds the "cooling" scheme kind to `axes.codes` and
//       `network.channel_codes`: entries may be objects
//       `{"kind": "cooling", "inner": <code>|"n": <bits>, "weight": w}`
//       (or equivalently "COOL(...)" name strings) naming a
//       weight-bounded cooling code, pure or concatenated with an inner
//       FEC.  A cooling entry inside a v1..v3 document is rejected with
//       a pointer at the version field.
#ifndef PHOTECC_SPEC_SPEC_HPP
#define PHOTECC_SPEC_SPEC_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "photecc/math/json.hpp"
#include "photecc/spec/error.hpp"

namespace photecc::spec {

/// The newest schema version to_json() can write (it emits the
/// smallest version that expresses the spec).  from_json() accepts
/// every version in [kMinSchemaVersion, kSchemaVersion].
inline constexpr std::uint64_t kSchemaVersion = 4;
inline constexpr std::uint64_t kMinSchemaVersion = 1;

/// Default base seed — the ScenarioGrid default, restated here so a
/// default-constructed spec lowers to a byte-identical grid.
inline constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

/// One value of the traffic axis, keyed by a traffic-registry kind.
/// The "trace" kind (schema v3) replays a noc::TraceTraffic file and
/// carries only `trace_path` (serialized as "path"); the rate/payload/
/// hotspot fields belong to the generated kinds, exactly as the hotspot
/// fields belong to "hotspot" only.
struct TrafficEntry {
  std::string kind = "uniform";      ///< traffic_registry() key
  double rate_msgs_per_s = 2e8;      ///< aggregate injection rate
  std::uint64_t payload_bits = 4096;
  std::size_t hotspot = 0;           ///< hot tile ("hotspot" kind only)
  double hotspot_fraction = 0.5;     ///< share aimed at the hotspot
  std::string trace_path{};          ///< message file ("trace" kind only)

  [[nodiscard]] bool operator==(const TrafficEntry&) const = default;
};

/// One phase of a declarative "phases" environment timeline.
struct EnvironmentPhaseEntry {
  double duration_s = 1e-6;
  double activity = 0.25;
  std::string label{};  ///< optional; "" omits the key

  [[nodiscard]] bool operator==(const EnvironmentPhaseEntry&) const = default;
};

/// One value of the environment axis, keyed by an environment-registry
/// kind (schema v2).  Only the fields of the declared kind are
/// serialized; setting fields of another kind is a validation error
/// (mirroring TrafficEntry's hotspot fields).
///
///   constant:     activity
///   step:         at_s, from_activity, to_activity
///   ramp:         start_s, end_s, from_activity, to_activity
///   phases:       phases[], cyclic
///   self-heating: baseline_activity, busy_gain, tau_s
struct EnvironmentEntry {
  std::string kind = "constant";     ///< environment_registry() key
  double activity = 0.25;            ///< constant
  double at_s = 0.0;                 ///< step
  double start_s = 0.0;              ///< ramp
  double end_s = 0.0;                ///< ramp
  double from_activity = 0.25;       ///< step / ramp
  double to_activity = 0.25;         ///< step / ramp
  std::vector<EnvironmentPhaseEntry> phases{};  ///< phases
  bool cyclic = true;                ///< phases
  double baseline_activity = 0.25;   ///< self-heating
  double busy_gain = 0.5;            ///< self-heating
  double tau_s = 1e-6;               ///< self-heating

  [[nodiscard]] bool operator==(const EnvironmentEntry&) const = default;
};

/// The kind-discriminated `network` section (schema v3): a tiled
/// multi-channel topology the whole grid evaluates on (it is a base
/// setting, not an axis — every declared axis sweeps on top of it).
/// The only built-in kind is "tiled" (N tiles sharing K MWSR channels,
/// lowered to noc::NetworkSimulator).
struct NetworkEntry {
  std::string kind = "tiled";
  std::size_t tile_count = 16;
  std::size_t channel_count = 4;
  std::string mapping = "interleaved";  ///< "interleaved" or "blocked"
  /// Per-channel pinned codes (one name per channel; "" leaves that
  /// channel on the grid's menu).  Empty = every channel inherits.
  std::vector<std::string> channel_codes{};
  /// Per-channel environment timelines (one entry per channel when
  /// non-empty; hot-spot readers vs cool edges).  Empty = every channel
  /// inherits the base link's timeline.
  std::vector<EnvironmentEntry> channel_environments{};

  [[nodiscard]] bool operator==(const NetworkEntry&) const = default;
};

/// One dimension of the Pareto extraction the experiment reports.
struct ObjectiveEntry {
  std::string metric{};
  bool minimize = true;

  [[nodiscard]] bool operator==(const ObjectiveEntry&) const = default;
};

/// The whole experiment, declaratively.  Empty axis vectors mean "axis
/// not declared" (the grid then holds the base value with no label
/// column), exactly like ScenarioGrid.
struct ExperimentSpec {
  std::string name{};                ///< free-form; "" omits the field
  std::string evaluator = "auto";    ///< "auto" or evaluator_registry() key
  std::size_t threads = 0;           ///< 0 = hardware concurrency

  // Base values applied to every cell before axis overrides.
  std::string base_link = "paper";   ///< link_registry() key
  std::uint64_t seed = kDefaultSeed;
  double noc_horizon_s = 2e-6;

  /// Tiled-network section (schema v3); unset = the classic
  /// single-channel evaluation path, byte-identical to pre-v3 specs.
  std::optional<NetworkEntry> network{};

  // Axes (canonical grid order: code, BER, link, ONI, traffic, gating,
  // policy, modulation, environment).
  std::vector<std::string> codes{};       ///< ecc registry names
  std::vector<double> ber_targets{};
  std::vector<std::string> links{};       ///< link_registry() keys
  std::vector<std::size_t> oni_counts{};
  std::vector<TrafficEntry> traffic{};
  std::vector<bool> laser_gating{};
  std::vector<std::string> policies{};    ///< core policy names
  std::vector<std::string> modulations{};  ///< math modulation names
  std::vector<EnvironmentEntry> environments{};  ///< schema v2

  std::vector<ObjectiveEntry> objectives{};

  [[nodiscard]] bool operator==(const ExperimentSpec&) const = default;

  /// Canonical JSON document (ends with a newline).
  [[nodiscard]] std::string to_json() const;
};

/// Strict parse + validate.  Throws math::json::ParseError for
/// malformed JSON and SpecError (field path + reason) for everything
/// else: unknown keys, wrong types, unsupported schema version, values
/// the validator rejects.
[[nodiscard]] ExperimentSpec from_json(const std::string& text);

/// Same strictness on an already-parsed document — for callers that
/// carry a spec inside a larger JSON envelope (the serve layer's
/// request lines) and must not re-serialise just to re-parse.  Throws
/// SpecError exactly like from_json; from_json(text) is precisely
/// from_json_value(math::json::parse(text)).
[[nodiscard]] ExperimentSpec from_json_value(
    const math::json::Value& document);

/// Stable content fingerprint of a spec: math::fnv1a64 over the
/// canonical to_json() dump.  Two specs hash equal iff their canonical
/// documents are byte-equal (up to FNV collisions — exact-reuse caches
/// must also compare the canonical bytes).  Because to_json() is
/// byte-stable, this value is stable across runs, platforms and JSON
/// formatting differences of the input document; a test pins the hash
/// of examples/specs/fig6b.json so accidental canonical-form drift
/// breaks loudly.
[[nodiscard]] std::uint64_t canonical_hash(const ExperimentSpec& spec);

/// Semantic validation, as used by from_json: exactly spec::lower
/// (run.hpp) with the grid discarded.  Every name resolves in its
/// registry, every number is in range, an explicit "link" evaluator
/// declares no network section or NoC axis, and every objective names
/// a metric column of the grid the spec lowers to
/// (explore::result_schema).  Throws SpecError naming the offending
/// field.
void validate(const ExperimentSpec& spec);

}  // namespace photecc::spec

#endif  // PHOTECC_SPEC_SPEC_HPP
