// Schema v4: cooling codes in spec documents — the object form
// {"kind": "cooling", ...}, the COOL(...) string form, minimal-version
// emission (v2/v3 documents stay byte-identical), and version gating.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/spec.hpp"

namespace cooling = photecc::cooling;
namespace spec = photecc::spec;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string field_of(const std::string& document) {
  try {
    (void)spec::from_json(document);
  } catch (const spec::SpecError& e) {
    return e.field();
  }
  return "(no error)";
}

}  // namespace

TEST(CoolingSpec, StructSpecIsByteStableAtVersion4) {
  const spec::ExperimentSpec original{
      .name = "cooling-mix",
      .codes = {"H(71,64)", cooling::cooling_name("H(71,64)", 16),
                cooling::cooling_name(std::size_t{64}, std::size_t{16})},
      .ber_targets = {1e-11}};
  spec::validate(original);
  EXPECT_EQ(original.codes,
            (std::vector<std::string>{"H(71,64)", "COOL(H(71,64),16)",
                                      "COOL(64,16)"}));
  const std::string json = original.to_json();
  EXPECT_NE(json.find("\"photecc_spec\": 4"), std::string::npos);
  EXPECT_NE(json.find("{\"kind\": \"cooling\", \"inner\": \"H(71,64)\", "
                      "\"weight\": 16}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"kind\": \"cooling\", \"n\": 64, \"weight\": 16}"),
            std::string::npos);
  const spec::ExperimentSpec reparsed = spec::from_json(json);
  EXPECT_EQ(reparsed, original);
  EXPECT_EQ(reparsed.to_json(), json);
}

TEST(CoolingSpec, StringFormParsesAndCanonicalizesToTheObjectForm) {
  const std::string document = R"js({
    "photecc_spec": 4,
    "axes": {"codes": ["H(7,4)", "COOL(H(7,4),2)"], "ber_targets": [1e-9]}
  })js";
  const spec::ExperimentSpec parsed = spec::from_json(document);
  EXPECT_EQ(parsed.codes,
            (std::vector<std::string>{"H(7,4)", "COOL(H(7,4),2)"}));
  const std::string canonical = parsed.to_json();
  EXPECT_NE(canonical.find("\"kind\": \"cooling\""), std::string::npos);
  EXPECT_EQ(spec::from_json(canonical).to_json(), canonical);
}

TEST(CoolingSpec, CoolingFreeSpecsKeepWritingOlderVersions) {
  // No cooling feature -> the writer stays at v2 (or v3 for network
  // specs), so every pre-v4 document and canonical hash is unchanged.
  const std::string plain = spec::ExperimentSpec{}.to_json();
  EXPECT_NE(plain.find("\"photecc_spec\": 2"), std::string::npos);

  const std::string fig6b = spec::preset_registry()
                                .make("fig6b", "preset")
                                .to_json();
  EXPECT_NE(fig6b.find("\"photecc_spec\": 2"), std::string::npos);

  const std::string network = spec::preset_registry()
                                  .make("network", "preset")
                                  .to_json();
  EXPECT_NE(network.find("\"photecc_spec\": 3"), std::string::npos);
  EXPECT_EQ(network.find("\"photecc_spec\": 4"), std::string::npos);
}

TEST(CoolingSpec, ExistingExampleDocumentsStayByteStable) {
  for (const char* name : {"fig6b", "thermal", "network"}) {
    const std::string path = std::string(PHOTECC_SOURCE_DIR) +
                             "/examples/specs/" + name + ".json";
    const spec::ExperimentSpec parsed = spec::from_json(read_file(path));
    const std::string canonical = parsed.to_json();
    EXPECT_EQ(canonical.find("cooling"), std::string::npos) << name;
    EXPECT_EQ(spec::from_json(canonical).to_json(), canonical) << name;
  }
}

TEST(CoolingSpec, CoolingExampleMatchesThePresetAndRoundTrips) {
  const std::string content =
      read_file(PHOTECC_SOURCE_DIR "/examples/specs/cooling.json");
  const spec::ExperimentSpec from_file = spec::from_json(content);
  const spec::ExperimentSpec preset =
      spec::preset_registry().make("cooling", "preset");
  EXPECT_EQ(from_file, preset);
  EXPECT_NE(content.find("\"photecc_spec\": 4"), std::string::npos);
  EXPECT_EQ(spec::from_json(from_file.to_json()).to_json(),
            from_file.to_json());
}

TEST(CoolingSpec, CoolingEntriesAreRejectedBelowVersion4) {
  // Both spellings are v4 features; the error points at the version
  // field, not the entry.
  EXPECT_EQ(field_of(R"js({
    "photecc_spec": 2,
    "axes": {"codes": ["COOL(8,2)"]}
  })js"),
            "photecc_spec");
  EXPECT_EQ(field_of(R"js({
    "photecc_spec": 3,
    "axes": {"codes": [{"kind": "cooling", "n": 8, "weight": 2}]}
  })js"),
            "photecc_spec");
}

TEST(CoolingSpec, ObjectFormValidatesItsFields) {
  const auto doc = [](const std::string& entry) {
    return std::string(R"js({"photecc_spec": 4, "axes": {"codes": [)js") +
           entry + "]}}";
  };
  // Exactly one of inner | n.
  EXPECT_EQ(field_of(doc(R"js({"kind": "cooling", "inner": "H(7,4)",
                               "n": 8, "weight": 2})js")),
            "axes.codes[0]");
  EXPECT_EQ(field_of(doc(R"js({"kind": "cooling", "weight": 2})js")),
            "axes.codes[0]");
  // Weight is required; unknown kinds and keys are loud.
  EXPECT_EQ(field_of(doc(R"js({"kind": "cooling", "n": 8})js")),
            "axes.codes[0].weight");
  EXPECT_EQ(field_of(doc(R"js({"kind": "fec", "n": 8, "weight": 2})js")),
            "axes.codes[0].kind");
  EXPECT_EQ(field_of(doc(R"js({"kind": "cooling", "n": 8, "weight": 2,
                               "extra": 1})js")),
            "axes.codes[0].extra");
}

TEST(CoolingSpec, UnknownCoolingInnerFailsValidationLikeAnyCode) {
  const std::string document = R"js({
    "photecc_spec": 4,
    "axes": {"codes": [{"kind": "cooling", "inner": "X(9,9)", "weight": 2}]}
  })js";
  EXPECT_EQ(field_of(document), "axes.codes[0]");
}

TEST(CoolingSpec, NetworkChannelCodesAcceptCoolingAtVersion4) {
  spec::NetworkEntry net;
  net.tile_count = 4;
  net.channel_count = 2;
  net.channel_codes = {"H(7,4)", "COOL(H(7,4),2)"};
  const spec::ExperimentSpec original{
      .network = net,
      .codes = {"H(7,4)"},
      .traffic = {{.rate_msgs_per_s = 2e8}}};
  spec::validate(original);
  const std::string json = original.to_json();
  EXPECT_NE(json.find("\"photecc_spec\": 4"), std::string::npos);
  const spec::ExperimentSpec reparsed = spec::from_json(json);
  EXPECT_EQ(reparsed, original);
  EXPECT_EQ(reparsed.to_json(), json);
}

TEST(CoolingSpec, SchemaConstantIsVersion4) {
  EXPECT_EQ(spec::kSchemaVersion, 4u);
}
