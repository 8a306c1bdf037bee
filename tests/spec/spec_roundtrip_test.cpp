// The serialization contract: ExperimentSpec -> to_json -> from_json is
// the identity, and to_json(from_json(to_json(s))) is byte-identical to
// to_json(s) — for default specs, every preset, every shipped
// examples/specs document, and a spec exercising every field.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "photecc/spec/registries.hpp"
#include "photecc/spec/spec.hpp"

namespace spec = photecc::spec;

namespace {

spec::ExperimentSpec full_spec() {
  spec::ExperimentSpec everything{
      .name = "everything",
      .evaluator = "noc",
      .threads = 4,
      .base_link = "short-2cm-4oni",
      .seed = 0x9e3779b97f4a7c15ULL,  // > 2^53: must survive exactly
      .noc_horizon_s = 5e-7,
      .codes = {"w/o ECC", "H(71,64)", "BCH(15,7,2)"},
      .ber_targets = {1e-6, 1e-10},
      .links = {"paper-6cm-12oni", "short-2cm-4oni"},
      .oni_counts = {4, 8},
      .traffic = {{.rate_msgs_per_s = 2e8},
                  {.kind = "hotspot", .rate_msgs_per_s = 1e8}},
      .laser_gating = {true, false},
      .policies = {"min-energy", "min-time"},
      .modulations = {"ook", "pam4"},
      .objectives = {{"mean_latency_s"},
                     {"energy_per_bit_j", true},
                     {"delivered", false}}};
  spec::validate(everything);
  return everything;
}

}  // namespace

TEST(SpecRoundTrip, DefaultSpecIsByteStable) {
  const spec::ExperimentSpec original;
  const std::string json = original.to_json();
  const spec::ExperimentSpec reparsed = spec::from_json(json);
  EXPECT_EQ(reparsed, original);
  EXPECT_EQ(reparsed.to_json(), json);
}

TEST(SpecRoundTrip, FullSpecIsByteStable) {
  const spec::ExperimentSpec original = full_spec();
  const std::string json = original.to_json();
  const spec::ExperimentSpec reparsed = spec::from_json(json);
  EXPECT_EQ(reparsed, original);
  EXPECT_EQ(reparsed.to_json(), json);
}

TEST(SpecRoundTrip, SeedBeyondDoublePrecisionSurvives) {
  spec::ExperimentSpec original;
  original.seed = 0xFFFFFFFFFFFFFFFFULL;
  const spec::ExperimentSpec reparsed = spec::from_json(original.to_json());
  EXPECT_EQ(reparsed.seed, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(SpecRoundTrip, EveryPresetIsByteStable) {
  for (const std::string& name : spec::preset_registry().names()) {
    const spec::ExperimentSpec preset =
        spec::preset_registry().make(name, "preset");
    const std::string json = preset.to_json();
    const spec::ExperimentSpec reparsed = spec::from_json(json);
    EXPECT_EQ(reparsed, preset) << "preset " << name;
    EXPECT_EQ(reparsed.to_json(), json) << "preset " << name;
  }
}

TEST(SpecRoundTrip, EveryExampleSpecIsByteStable) {
  // The shipped documents are what users copy: each must reach the
  // canonical fixed point in one rewrite, byte for byte.
  std::size_t documents = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           PHOTECC_SOURCE_DIR "/examples/specs")) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const std::string first = spec::from_json(text.str()).to_json();
    const std::string second = spec::from_json(first).to_json();
    EXPECT_EQ(second, first);
    ++documents;
  }
  EXPECT_GT(documents, 0u);
}

TEST(SpecRoundTrip, HandWrittenDocumentNormalizesStably) {
  // A non-canonical document (reordered keys, extra whitespace, number
  // spellings the writer would not emit) parses to the same spec, and
  // one rewrite reaches the canonical fixed point.
  const std::string handwritten = R"js({
    "axes": {"ber_targets": [1.0e-6, 0.00000001], "codes": ["H(7,4)"]},
    "photecc_spec": 1,
    "base": {"noc_horizon_s": 0.000002, "link": "paper"},
    "threads": 2
  })js";
  const spec::ExperimentSpec parsed = spec::from_json(handwritten);
  EXPECT_EQ(parsed.codes, std::vector<std::string>{"H(7,4)"});
  EXPECT_EQ(parsed.ber_targets, (std::vector<double>{1e-6, 1e-8}));
  EXPECT_EQ(parsed.threads, 2u);
  const std::string canonical = parsed.to_json();
  EXPECT_EQ(spec::from_json(canonical).to_json(), canonical);
}

TEST(SpecRoundTrip, EnvironmentAxisOfEveryKindIsByteStable) {
  spec::ExperimentSpec original;
  original.codes = {"H(7,4)"};
  // Time-varying kinds need the dynamic evaluator to validate.
  original.evaluator = "noc";
  spec::EnvironmentEntry constant;
  constant.activity = 0.4;
  spec::EnvironmentEntry step;
  step.kind = "step";
  step.at_s = 1e-6;
  step.from_activity = 0.2;
  step.to_activity = 0.8;
  spec::EnvironmentEntry ramp;
  ramp.kind = "ramp";
  ramp.start_s = 1e-7;
  ramp.end_s = 2e-6;
  ramp.from_activity = 0.25;
  ramp.to_activity = 1.0;
  spec::EnvironmentEntry phases;
  phases.kind = "phases";
  phases.cyclic = false;
  phases.phases = {{1e-6, 0.25, "compute"}, {5e-7, 0.7, ""}};
  spec::EnvironmentEntry self_heating;
  self_heating.kind = "self-heating";
  self_heating.baseline_activity = 0.3;
  self_heating.busy_gain = 0.5;
  self_heating.tau_s = 4e-7;
  original.environments = {constant, step, ramp, phases, self_heating};

  const std::string json = original.to_json();
  // The writer stamps the current schema version.
  EXPECT_NE(json.find("\"photecc_spec\": 2"), std::string::npos);
  const spec::ExperimentSpec reparsed = spec::from_json(json);
  EXPECT_EQ(reparsed, original);
  EXPECT_EQ(reparsed.to_json(), json);
}

TEST(SpecRoundTrip, V1DocumentsWithoutEnvironmentsStillParse) {
  const std::string v1 = R"js({
    "photecc_spec": 1,
    "axes": {"codes": ["H(7,4)"], "ber_targets": [1e-9]}
  })js";
  const spec::ExperimentSpec parsed = spec::from_json(v1);
  EXPECT_EQ(parsed.codes, std::vector<std::string>{"H(7,4)"});
  EXPECT_TRUE(parsed.environments.empty());
  // Rewriting normalizes to the current version, stably.
  const std::string canonical = parsed.to_json();
  EXPECT_NE(canonical.find("\"photecc_spec\": 2"), std::string::npos);
  EXPECT_EQ(spec::from_json(canonical).to_json(), canonical);
}

TEST(SpecRoundTrip, NetworkAndTraceSpecIsByteStableAtVersion3) {
  spec::NetworkEntry net;
  net.tile_count = 8;
  net.channel_count = 2;
  net.mapping = "blocked";
  net.channel_codes = {"H(7,4)", "w/o ECC"};
  spec::EnvironmentEntry hot;
  hot.kind = "ramp";
  hot.start_s = 1e-6;
  hot.end_s = 4e-6;
  hot.from_activity = 0.25;
  hot.to_activity = 1.0;
  spec::EnvironmentEntry cool;
  cool.activity = 0.25;
  net.channel_environments = {hot, cool};

  const spec::ExperimentSpec original{
      .name = "tiled",
      .network = net,
      .codes = {"H(7,4)"},
      .traffic = {{.kind = "trace",
                   .trace_path = "examples/traces/sample.trace"},
                  {.rate_msgs_per_s = 2e8}}};
  spec::validate(original);
  const std::string json = original.to_json();
  // v3 features force the writer up to schema version 3.
  EXPECT_NE(json.find("\"photecc_spec\": 3"), std::string::npos);
  const spec::ExperimentSpec reparsed = spec::from_json(json);
  EXPECT_EQ(reparsed, original);
  EXPECT_EQ(reparsed.to_json(), json);
}

TEST(SpecRoundTrip, WriterEmitsTheSmallestExpressingVersion) {
  // A spec using no v3 feature keeps writing version 2, so pre-v3
  // documents (and their canonical hashes) stay byte-identical.
  const std::string plain = spec::ExperimentSpec{}.to_json();
  EXPECT_NE(plain.find("\"photecc_spec\": 2"), std::string::npos);
  EXPECT_EQ(plain.find("\"photecc_spec\": 3"), std::string::npos);
}

TEST(SpecRoundTrip, NameIsEscapedCorrectly) {
  spec::ExperimentSpec original;
  original.name = "odd \"name\"\twith\nescapes\\";
  const spec::ExperimentSpec reparsed = spec::from_json(original.to_json());
  EXPECT_EQ(reparsed.name, original.name);
  EXPECT_EQ(reparsed.to_json(), original.to_json());
}

TEST(SpecValidation, RejectsBadFieldsWithPaths) {
  const auto field_of = [](const spec::ExperimentSpec& experiment) {
    try {
      spec::validate(experiment);
    } catch (const spec::SpecError& e) {
      return e.field();
    }
    return std::string("(no error)");
  };

  EXPECT_EQ(field_of({.base_link = "no-such-link"}), "base.link");
  EXPECT_EQ(field_of({.codes = {"H(7,4)", "X(1,2)"}}), "axes.codes[1]");
  EXPECT_EQ(field_of({.ber_targets = {1e-9, 0.7}}), "axes.ber_targets[1]");
  EXPECT_EQ(field_of({.oni_counts = {8, 1}}), "axes.oni_counts[1]");
  EXPECT_EQ(field_of({.policies = {"fastest"}}), "axes.policies[0]");
  EXPECT_EQ(field_of({.modulations = {"qam64"}}), "axes.modulations[0]");
  EXPECT_EQ(field_of({.evaluator = "magic"}), "evaluator");
  EXPECT_EQ(field_of({.noc_horizon_s = -1.0}), "base.noc_horizon_s");
  EXPECT_EQ(field_of({.objectives = {{""}}}), "objectives[0].metric");
  EXPECT_EQ(field_of({.traffic = {{.kind = "hotspot",
                                   .rate_msgs_per_s = 1e8,
                                   .hotspot_fraction = 1.5}}}),
            "axes.traffic[0].hotspot_fraction");
  // Hotspot fields on a non-hotspot kind are rejected on the struct too
  // (to_json would drop them, silently breaking the round trip).
  EXPECT_EQ(field_of({.traffic = {{"uniform", 2e8, 4096, 3, 0.9, ""}}}),
            "axes.traffic[0]");
}

TEST(SpecRegistries, UnknownNamesListTheKnownOnes) {
  try {
    (void)spec::link_registry().make("warp-core", "base.link");
    FAIL() << "unknown link variant accepted";
  } catch (const spec::SpecError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("base.link"), std::string::npos);
    EXPECT_NE(message.find("warp-core"), std::string::npos);
    EXPECT_NE(message.find("paper"), std::string::npos);       // known list
    EXPECT_NE(message.find("short-2cm-4oni"), std::string::npos);
  }
}

TEST(SpecRegistries, DuplicateRegistrationIsRejected) {
  spec::Registry<int> registry{"test"};
  registry.add("one", [] { return 1; });
  EXPECT_THROW(registry.add("one", [] { return 2; }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("", [] { return 0; }), std::invalid_argument);
  EXPECT_TRUE(registry.contains("one"));
  EXPECT_FALSE(registry.contains("two"));
  EXPECT_EQ(registry.make("one", "f"), 1);
}
