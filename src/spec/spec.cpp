#include "photecc/spec/spec.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/math/json.hpp"

namespace photecc::spec {

namespace json = math::json;

// --- Serialization -----------------------------------------------------
//
// Canonical emission: fixed key order (photecc_spec, name, evaluator,
// threads, base, axes in grid order, objectives), unset axes and the
// empty name/objectives omitted, numbers via to_chars.  from_json below
// reconstructs the exact struct, so to_json(from_json(to_json(s))) ==
// to_json(s) byte for byte.

namespace {

std::string string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += json::escape(values[i]);
  }
  return out + "]";
}

/// One codes-axis / channel_codes entry.  Cooling codes (schema v4)
/// serialize as kind-discriminated objects so the document states the
/// weight bound explicitly; every other code name stays a plain string,
/// byte-identical to the pre-v4 form.
std::string code_entry(const std::string& name) {
  if (cooling::is_cooling_name(name)) {
    try {
      const cooling::CoolingName parsed = *cooling::parse_cooling_name(name);
      std::string out = "{\"kind\": \"cooling\", ";
      out += parsed.pure ? "\"n\": " + std::to_string(parsed.length)
                         : "\"inner\": " + json::escape(parsed.inner);
      return out + ", \"weight\": " + std::to_string(parsed.weight) + "}";
    } catch (const std::invalid_argument&) {
      // Malformed COOL(...) — validate() rejects it; emit verbatim.
    }
  }
  return json::escape(name);
}

std::string code_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += code_entry(values[i]);
  }
  return out + "]";
}

std::string double_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += json::number(values[i]);
  }
  return out + "]";
}

std::string size_array(const std::vector<std::size_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string bool_array(const std::vector<bool>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += values[i] ? "true" : "false";
  }
  return out + "]";
}

/// One environment entry as a single-line `{...}` object (without
/// surrounding indentation) — shared by the environments axis and the
/// network section's channel_environments.
std::string environment_object(const EnvironmentEntry& e) {
  std::string out = "{\"kind\": " + json::escape(e.kind);
  if (e.kind == "constant") {
    out += ", \"activity\": " + json::number(e.activity);
  } else if (e.kind == "step") {
    out += ", \"at_s\": " + json::number(e.at_s) +
           ", \"from_activity\": " + json::number(e.from_activity) +
           ", \"to_activity\": " + json::number(e.to_activity);
  } else if (e.kind == "ramp") {
    out += ", \"start_s\": " + json::number(e.start_s) +
           ", \"end_s\": " + json::number(e.end_s) +
           ", \"from_activity\": " + json::number(e.from_activity) +
           ", \"to_activity\": " + json::number(e.to_activity);
  } else if (e.kind == "phases") {
    out += ", \"cyclic\": " + std::string(e.cyclic ? "true" : "false") +
           ", \"phases\": [";
    for (std::size_t p = 0; p < e.phases.size(); ++p) {
      if (p) out += ", ";
      out += "{\"duration_s\": " + json::number(e.phases[p].duration_s) +
             ", \"activity\": " + json::number(e.phases[p].activity);
      if (!e.phases[p].label.empty())
        out += ", \"label\": " + json::escape(e.phases[p].label);
      out += "}";
    }
    out += "]";
  } else if (e.kind == "self-heating") {
    out += ", \"baseline_activity\": " + json::number(e.baseline_activity) +
           ", \"busy_gain\": " + json::number(e.busy_gain) +
           ", \"tau_s\": " + json::number(e.tau_s);
  }
  return out + "}";
}

std::string environment_array(const std::vector<EnvironmentEntry>& entries) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += "      " + environment_object(entries[i]);
    out += i + 1 < entries.size() ? ",\n" : "\n";
  }
  return out + "    ]";
}

std::string traffic_array(const std::vector<TrafficEntry>& entries) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TrafficEntry& e = entries[i];
    out += "      {\"kind\": " + json::escape(e.kind);
    if (e.kind == "trace") {
      out += ", \"path\": " + json::escape(e.trace_path);
    } else {
      out += ", \"rate_msgs_per_s\": " + json::number(e.rate_msgs_per_s) +
             ", \"payload_bits\": " + std::to_string(e.payload_bits);
      if (e.kind == "hotspot") {
        out += ", \"hotspot\": " + std::to_string(e.hotspot) +
               ", \"hotspot_fraction\": " + json::number(e.hotspot_fraction);
      }
    }
    out += i + 1 < entries.size() ? "},\n" : "}\n";
  }
  return out + "    ]";
}

/// True when the spec uses a v3 feature; to_json then writes 3, else 2
/// (the minimal-version rule that keeps pre-v3 documents and their
/// canonical hashes byte-stable).
bool needs_schema_v3(const ExperimentSpec& spec) {
  if (spec.network) return true;
  for (const TrafficEntry& entry : spec.traffic)
    if (entry.kind == "trace") return true;
  return false;
}

/// True when the spec uses a v4 feature (a cooling code on either code
/// axis); composes with needs_schema_v3 under the same minimal-version
/// rule.
bool needs_schema_v4(const ExperimentSpec& spec) {
  for (const std::string& name : spec.codes)
    if (cooling::is_cooling_name(name)) return true;
  if (spec.network)
    for (const std::string& name : spec.network->channel_codes)
      if (cooling::is_cooling_name(name)) return true;
  return false;
}

}  // namespace

std::string ExperimentSpec::to_json() const {
  std::ostringstream os;
  os << "{\n  \"photecc_spec\": "
     << (needs_schema_v4(*this)   ? 4
         : needs_schema_v3(*this) ? 3
                                  : 2);
  if (!name.empty()) os << ",\n  \"name\": " << json::escape(name);
  os << ",\n  \"evaluator\": " << json::escape(evaluator);
  os << ",\n  \"threads\": " << threads;
  os << ",\n  \"base\": {\n"
     << "    \"link\": " << json::escape(base_link) << ",\n"
     << "    \"seed\": " << seed << ",\n"
     << "    \"noc_horizon_s\": " << json::number(noc_horizon_s) << "\n"
     << "  }";

  if (network) {
    const NetworkEntry& n = *network;
    os << ",\n  \"network\": {\n"
       << "    \"kind\": " << json::escape(n.kind) << ",\n"
       << "    \"tile_count\": " << n.tile_count << ",\n"
       << "    \"channel_count\": " << n.channel_count << ",\n"
       << "    \"mapping\": " << json::escape(n.mapping);
    if (!n.channel_codes.empty())
      os << ",\n    \"channel_codes\": " << code_array(n.channel_codes);
    if (!n.channel_environments.empty()) {
      os << ",\n    \"channel_environments\": [\n";
      for (std::size_t i = 0; i < n.channel_environments.size(); ++i) {
        os << "      " << environment_object(n.channel_environments[i]);
        os << (i + 1 < n.channel_environments.size() ? ",\n" : "\n");
      }
      os << "    ]";
    }
    os << "\n  }";
  }

  std::vector<std::string> axis_lines;
  if (!codes.empty())
    axis_lines.push_back("\"codes\": " + code_array(codes));
  if (!ber_targets.empty())
    axis_lines.push_back("\"ber_targets\": " + double_array(ber_targets));
  if (!links.empty())
    axis_lines.push_back("\"links\": " + string_array(links));
  if (!oni_counts.empty())
    axis_lines.push_back("\"oni_counts\": " + size_array(oni_counts));
  if (!traffic.empty())
    axis_lines.push_back("\"traffic\": " + traffic_array(traffic));
  if (!laser_gating.empty())
    axis_lines.push_back("\"laser_gating\": " + bool_array(laser_gating));
  if (!policies.empty())
    axis_lines.push_back("\"policies\": " + string_array(policies));
  if (!modulations.empty())
    axis_lines.push_back("\"modulations\": " + string_array(modulations));
  if (!environments.empty())
    axis_lines.push_back("\"environments\": " +
                         environment_array(environments));
  if (!axis_lines.empty()) {
    os << ",\n  \"axes\": {\n";
    for (std::size_t i = 0; i < axis_lines.size(); ++i) {
      os << "    " << axis_lines[i];
      os << (i + 1 < axis_lines.size() ? ",\n" : "\n");
    }
    os << "  }";
  }

  if (!objectives.empty()) {
    os << ",\n  \"objectives\": [\n";
    for (std::size_t i = 0; i < objectives.size(); ++i) {
      os << "    {\"metric\": " << json::escape(objectives[i].metric)
         << ", \"minimize\": " << (objectives[i].minimize ? "true" : "false")
         << (i + 1 < objectives.size() ? "},\n" : "}\n");
    }
    os << "  ]";
  }
  os << "\n}\n";
  return os.str();
}

// --- Parsing -----------------------------------------------------------

namespace {

/// Rewraps a json::TypeError as a SpecError at `path`, so "expected
/// number, got string" arrives with the offending field attached.
template <typename Fn>
auto at_path(const std::string& path, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const json::TypeError& e) {
    throw SpecError(path, e.what());
  }
}

std::string expect_string(const json::Value& v, const std::string& path) {
  return at_path(path, [&] { return v.as_string(); });
}

double expect_double(const json::Value& v, const std::string& path) {
  return at_path(path, [&] { return v.as_double(); });
}

bool expect_bool(const json::Value& v, const std::string& path) {
  return at_path(path, [&] { return v.as_bool(); });
}

std::uint64_t expect_uint64(const json::Value& v, const std::string& path) {
  return at_path(path, [&] { return v.as_uint64(); });
}

const json::Value::Array& expect_array(const json::Value& v,
                                       const std::string& path) {
  return at_path(path, [&]() -> const json::Value::Array& {
    const auto& array = v.as_array();
    if (array.empty())
      throw SpecError(
          path, "must not be empty (omit the key to leave it undeclared)");
    return array;
  });
}

const json::Value::Object& expect_object(const json::Value& v,
                                         const std::string& path) {
  return at_path(path, [&]() -> const json::Value::Object& {
    return v.as_object();
  });
}

std::string element_path(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

[[noreturn]] void unknown_key(const std::string& path,
                              std::string_view expected) {
  throw SpecError(path,
                  "unknown key (expected: " + std::string(expected) + ")");
}

std::vector<std::string> parse_string_array(const json::Value& v,
                                            const std::string& path) {
  std::vector<std::string> out;
  const auto& array = expect_array(v, path);
  for (std::size_t i = 0; i < array.size(); ++i)
    out.push_back(expect_string(array[i], element_path(path, i)));
  return out;
}

[[noreturn]] void cooling_needs_v4(std::uint64_t version) {
  throw SpecError("photecc_spec",
                  "cooling codes need schema version >= 4, "
                  "document declares " + std::to_string(version));
}

/// One codes-axis / channel_codes entry: a plain code-name string, or
/// (schema v4) the kind-discriminated cooling object, canonicalised to
/// its COOL(...) name so the spec struct stays a vector of registry
/// names.  COOL(...) *strings* are gated on v4 too — a pre-v4 document
/// cannot smuggle the feature past the version check.
std::string parse_code_entry(const json::Value& v, const std::string& path,
                             std::uint64_t version) {
  if (v.type() == json::Value::Type::kString) {
    const std::string& name = v.as_string();
    if (cooling::is_cooling_name(name) && version < 4)
      cooling_needs_v4(version);
    return name;
  }
  // Anything that is neither a name string nor a cooling object is a
  // plain type error on the entry, not a version problem.
  if (v.type() != json::Value::Type::kObject)
    (void)expect_string(v, path);
  if (version < 4) cooling_needs_v4(version);
  std::string kind;
  bool saw_kind = false;
  std::optional<std::string> inner;
  std::optional<std::uint64_t> length;
  std::optional<std::uint64_t> weight;
  for (const auto& [key, value] : expect_object(v, path)) {
    const std::string key_path = path + "." + key;
    if (key == "kind") {
      kind = expect_string(value, key_path);
      saw_kind = true;
    } else if (key == "inner") {
      inner = expect_string(value, key_path);
    } else if (key == "n") {
      length = expect_uint64(value, key_path);
    } else if (key == "weight") {
      weight = expect_uint64(value, key_path);
    } else {
      unknown_key(key_path, "kind, inner, n, weight");
    }
  }
  if (!saw_kind)
    throw SpecError(path + ".kind",
                    "required (the only scheme kind: cooling)");
  if (kind != "cooling")
    throw SpecError(path + ".kind",
                    "unknown scheme kind '" + kind + "' (known: cooling)");
  if (inner.has_value() == length.has_value())
    throw SpecError(path,
                    "a cooling entry takes exactly one of 'inner' "
                    "(concatenated with a FEC) or 'n' (pure)");
  if (!weight)
    throw SpecError(path + ".weight", "required (the wire weight bound)");
  return inner ? cooling::cooling_name(
                     *inner, static_cast<std::size_t>(*weight))
               : cooling::cooling_name(
                     static_cast<std::size_t>(*length),
                     static_cast<std::size_t>(*weight));
}

std::vector<std::string> parse_code_array(const json::Value& v,
                                          const std::string& path,
                                          std::uint64_t version) {
  std::vector<std::string> out;
  const auto& array = expect_array(v, path);
  for (std::size_t i = 0; i < array.size(); ++i)
    out.push_back(
        parse_code_entry(array[i], element_path(path, i), version));
  return out;
}

std::vector<double> parse_double_array(const json::Value& v,
                                       const std::string& path) {
  std::vector<double> out;
  const auto& array = expect_array(v, path);
  for (std::size_t i = 0; i < array.size(); ++i)
    out.push_back(expect_double(array[i], element_path(path, i)));
  return out;
}

std::vector<std::size_t> parse_size_array(const json::Value& v,
                                          const std::string& path) {
  std::vector<std::size_t> out;
  const auto& array = expect_array(v, path);
  for (std::size_t i = 0; i < array.size(); ++i)
    out.push_back(static_cast<std::size_t>(
        expect_uint64(array[i], element_path(path, i))));
  return out;
}

std::vector<bool> parse_bool_array(const json::Value& v,
                                   const std::string& path) {
  std::vector<bool> out;
  const auto& array = expect_array(v, path);
  for (std::size_t i = 0; i < array.size(); ++i)
    out.push_back(expect_bool(array[i], element_path(path, i)));
  return out;
}

TrafficEntry parse_traffic_entry(const json::Value& v,
                                 const std::string& path,
                                 std::uint64_t version) {
  TrafficEntry entry;
  bool saw_kind = false;
  for (const auto& [key, value] : expect_object(v, path)) {
    const std::string key_path = path + "." + key;
    if (key == "kind") {
      entry.kind = expect_string(value, key_path);
      saw_kind = true;
    } else if (key == "rate_msgs_per_s") {
      entry.rate_msgs_per_s = expect_double(value, key_path);
    } else if (key == "payload_bits") {
      entry.payload_bits = expect_uint64(value, key_path);
    } else if (key == "hotspot") {
      entry.hotspot =
          static_cast<std::size_t>(expect_uint64(value, key_path));
    } else if (key == "hotspot_fraction") {
      entry.hotspot_fraction = expect_double(value, key_path);
    } else if (key == "path") {
      entry.trace_path = expect_string(value, key_path);
    } else {
      unknown_key(key_path,
                  "kind, rate_msgs_per_s, payload_bits, hotspot, "
                  "hotspot_fraction, path");
    }
  }
  if (!saw_kind)
    throw SpecError(path + ".kind",
                    "required (one of: uniform, hotspot, trace)");
  if (entry.kind == "trace" && version < 3)
    throw SpecError("photecc_spec",
                    "traffic kind 'trace' needs schema version >= 3, "
                    "document declares " + std::to_string(version));
  if (entry.kind != "hotspot" &&
      (v.find("hotspot") != nullptr || v.find("hotspot_fraction") != nullptr))
    throw SpecError(path, "hotspot / hotspot_fraction are only valid for "
                          "kind 'hotspot', got kind '" + entry.kind + "'");
  if (entry.kind != "trace" && v.find("path") != nullptr)
    throw SpecError(path, "path is only valid for kind 'trace', got kind '" +
                              entry.kind + "'");
  if (entry.kind == "trace" &&
      (v.find("rate_msgs_per_s") != nullptr ||
       v.find("payload_bits") != nullptr))
    throw SpecError(path,
                    "rate_msgs_per_s / payload_bits are not valid for kind "
                    "'trace' (the trace file carries the schedule)");
  return entry;
}

EnvironmentPhaseEntry parse_environment_phase(const json::Value& v,
                                              const std::string& path) {
  EnvironmentPhaseEntry phase;
  for (const auto& [key, value] : expect_object(v, path)) {
    const std::string key_path = path + "." + key;
    if (key == "duration_s") {
      phase.duration_s = expect_double(value, key_path);
    } else if (key == "activity") {
      phase.activity = expect_double(value, key_path);
    } else if (key == "label") {
      phase.label = expect_string(value, key_path);
    } else {
      unknown_key(key_path, "duration_s, activity, label");
    }
  }
  return phase;
}

EnvironmentEntry parse_environment_entry(const json::Value& v,
                                         const std::string& path) {
  EnvironmentEntry entry;
  bool saw_kind = false;
  std::vector<std::string> present;
  for (const auto& [key, value] : expect_object(v, path)) {
    const std::string key_path = path + "." + key;
    if (key == "kind") {
      entry.kind = expect_string(value, key_path);
      saw_kind = true;
      continue;
    }
    present.push_back(key);
    if (key == "activity") {
      entry.activity = expect_double(value, key_path);
    } else if (key == "at_s") {
      entry.at_s = expect_double(value, key_path);
    } else if (key == "start_s") {
      entry.start_s = expect_double(value, key_path);
    } else if (key == "end_s") {
      entry.end_s = expect_double(value, key_path);
    } else if (key == "from_activity") {
      entry.from_activity = expect_double(value, key_path);
    } else if (key == "to_activity") {
      entry.to_activity = expect_double(value, key_path);
    } else if (key == "cyclic") {
      entry.cyclic = expect_bool(value, key_path);
    } else if (key == "phases") {
      const auto& array = expect_array(value, key_path);
      for (std::size_t i = 0; i < array.size(); ++i)
        entry.phases.push_back(parse_environment_phase(
            array[i], element_path(key_path, i)));
    } else if (key == "baseline_activity") {
      entry.baseline_activity = expect_double(value, key_path);
    } else if (key == "busy_gain") {
      entry.busy_gain = expect_double(value, key_path);
    } else if (key == "tau_s") {
      entry.tau_s = expect_double(value, key_path);
    } else {
      unknown_key(key_path,
                  "kind, activity, at_s, start_s, end_s, from_activity, "
                  "to_activity, phases, cyclic, baseline_activity, "
                  "busy_gain, tau_s");
    }
  }
  if (!saw_kind)
    throw SpecError(path + ".kind",
                    "required (one of: constant, step, ramp, phases, "
                    "self-heating)");
  // Keys must match the declared kind; otherwise to_json() would drop
  // them silently and break the round trip (same rule as traffic's
  // hotspot fields).  Unknown kinds fall through to validate(), which
  // reports them against the registry.
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      allowed{{"constant", {"activity"}},
              {"step", {"at_s", "from_activity", "to_activity"}},
              {"ramp", {"start_s", "end_s", "from_activity", "to_activity"}},
              {"phases", {"phases", "cyclic"}},
              {"self-heating", {"baseline_activity", "busy_gain", "tau_s"}}};
  for (const auto& [kind, keys] : allowed) {
    if (kind != entry.kind) continue;
    for (const std::string& key : present) {
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        throw SpecError(path + "." + key,
                        "not valid for environment kind '" + entry.kind +
                            "'");
    }
  }
  return entry;
}

void parse_base(const json::Value& v, ExperimentSpec& spec) {
  for (const auto& [key, value] : expect_object(v, "base")) {
    const std::string key_path = "base." + key;
    if (key == "link") {
      spec.base_link = expect_string(value, key_path);
    } else if (key == "seed") {
      spec.seed = expect_uint64(value, key_path);
    } else if (key == "noc_horizon_s") {
      spec.noc_horizon_s = expect_double(value, key_path);
    } else {
      unknown_key(key_path, "link, seed, noc_horizon_s");
    }
  }
}

void parse_axes(const json::Value& v, ExperimentSpec& spec,
                std::uint64_t version) {
  for (const auto& [key, value] : expect_object(v, "axes")) {
    const std::string key_path = "axes." + key;
    if (key == "codes") {
      spec.codes = parse_code_array(value, key_path, version);
    } else if (key == "ber_targets") {
      spec.ber_targets = parse_double_array(value, key_path);
    } else if (key == "links") {
      spec.links = parse_string_array(value, key_path);
    } else if (key == "oni_counts") {
      spec.oni_counts = parse_size_array(value, key_path);
    } else if (key == "traffic") {
      const auto& array = expect_array(value, key_path);
      for (std::size_t i = 0; i < array.size(); ++i)
        spec.traffic.push_back(parse_traffic_entry(
            array[i], element_path(key_path, i), version));
    } else if (key == "laser_gating") {
      spec.laser_gating = parse_bool_array(value, key_path);
    } else if (key == "policies") {
      spec.policies = parse_string_array(value, key_path);
    } else if (key == "modulations") {
      spec.modulations = parse_string_array(value, key_path);
    } else if (key == "environments") {
      if (version < 2)
        throw SpecError("photecc_spec",
                        "axes.environments needs schema version >= 2, "
                        "document declares " + std::to_string(version));
      const auto& array = expect_array(value, key_path);
      for (std::size_t i = 0; i < array.size(); ++i)
        spec.environments.push_back(
            parse_environment_entry(array[i], element_path(key_path, i)));
    } else {
      unknown_key(key_path,
                  "codes, ber_targets, links, oni_counts, traffic, "
                  "laser_gating, policies, modulations, environments");
    }
  }
}

void parse_network(const json::Value& v, ExperimentSpec& spec,
                   std::uint64_t version) {
  if (version < 3)
    throw SpecError("photecc_spec",
                    "the network section needs schema version >= 3, "
                    "document declares " + std::to_string(version));
  NetworkEntry entry;
  bool saw_kind = false;
  for (const auto& [key, value] : expect_object(v, "network")) {
    const std::string key_path = "network." + key;
    if (key == "kind") {
      entry.kind = expect_string(value, key_path);
      saw_kind = true;
    } else if (key == "tile_count") {
      entry.tile_count =
          static_cast<std::size_t>(expect_uint64(value, key_path));
    } else if (key == "channel_count") {
      entry.channel_count =
          static_cast<std::size_t>(expect_uint64(value, key_path));
    } else if (key == "mapping") {
      entry.mapping = expect_string(value, key_path);
    } else if (key == "channel_codes") {
      entry.channel_codes = parse_code_array(value, key_path, version);
    } else if (key == "channel_environments") {
      const auto& array = expect_array(value, key_path);
      for (std::size_t i = 0; i < array.size(); ++i)
        entry.channel_environments.push_back(parse_environment_entry(
            array[i], element_path(key_path, i)));
    } else {
      unknown_key(key_path,
                  "kind, tile_count, channel_count, mapping, "
                  "channel_codes, channel_environments");
    }
  }
  if (!saw_kind)
    throw SpecError("network.kind", "required (the only built-in: tiled)");
  spec.network = std::move(entry);
}

void parse_objectives(const json::Value& v, ExperimentSpec& spec) {
  const auto& array = expect_array(v, "objectives");
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string entry_path = element_path("objectives", i);
    ObjectiveEntry entry;
    bool saw_metric = false;
    for (const auto& [key, value] : expect_object(array[i], entry_path)) {
      const std::string key_path = entry_path + "." + key;
      if (key == "metric") {
        entry.metric = expect_string(value, key_path);
        saw_metric = true;
      } else if (key == "minimize") {
        entry.minimize = expect_bool(value, key_path);
      } else {
        unknown_key(key_path, "metric, minimize");
      }
    }
    if (!saw_metric) throw SpecError(entry_path + ".metric", "required");
    spec.objectives.push_back(std::move(entry));
  }
}

}  // namespace

ExperimentSpec from_json(const std::string& text) {
  return from_json_value(json::parse(text));
}

ExperimentSpec from_json_value(const json::Value& document) {
  const auto& members = expect_object(document, "document");

  // Version first: a document from a future schema should fail on the
  // version mismatch, not on whatever unknown key happens to come first.
  const json::Value* version = document.find("photecc_spec");
  if (version == nullptr)
    throw SpecError("photecc_spec",
                    "required (the schema version; current: " +
                        std::to_string(kSchemaVersion) + ")");
  const std::uint64_t parsed_version =
      expect_uint64(*version, "photecc_spec");
  if (parsed_version < kMinSchemaVersion || parsed_version > kSchemaVersion)
    throw SpecError("photecc_spec",
                    "unsupported schema version " +
                        std::to_string(parsed_version) + " (supported: " +
                        std::to_string(kMinSchemaVersion) + ".." +
                        std::to_string(kSchemaVersion) + ")");

  ExperimentSpec spec;
  for (const auto& [key, value] : members) {
    if (key == "photecc_spec") {
      continue;  // handled above
    } else if (key == "name") {
      spec.name = expect_string(value, key);
    } else if (key == "evaluator") {
      spec.evaluator = expect_string(value, key);
    } else if (key == "threads") {
      spec.threads = static_cast<std::size_t>(expect_uint64(value, key));
    } else if (key == "base") {
      parse_base(value, spec);
    } else if (key == "network") {
      parse_network(value, spec, parsed_version);
    } else if (key == "axes") {
      parse_axes(value, spec, parsed_version);
    } else if (key == "objectives") {
      parse_objectives(value, spec);
    } else {
      unknown_key(key,
                  "photecc_spec, name, evaluator, threads, base, network, "
                  "axes, objectives");
    }
  }
  validate(spec);
  return spec;
}

std::uint64_t canonical_hash(const ExperimentSpec& spec) {
  return math::fnv1a64(spec.to_json());
}

}  // namespace photecc::spec
