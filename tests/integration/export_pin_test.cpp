// Byte-level pin of every export surface the result table renders: the
// CSV and JSON of a sweep and the serve NDJSON response stream
// (threads = 1, block_size = 7), as math::fnv1a64 fingerprints.  The
// cases are every preset, every shipped examples/specs document, two
// hand-built cooling-axis grids (the link plan and the simulator) and a
// code/BER grid that names the "noc" evaluator.  The values were
// recorded from the per-cell record implementation that the columnar
// ResultTable replaced; any drift is an export regression, not a reason
// to re-pin.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/explore/grid.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/serve/protocol.hpp"
#include "photecc/serve/service.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/run.hpp"

namespace {

namespace explore = photecc::explore;
namespace serve = photecc::serve;
namespace spec = photecc::spec;
using photecc::math::fnv1a64;

/// fnv1a64 of (csv, json, ndjson); ndjson is 0 for hand-built grids,
/// which have no spec document to serve.
struct Pin {
  std::uint64_t csv = 0;
  std::uint64_t json = 0;
  std::uint64_t ndjson = 0;
};

const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> table{
      {"preset fig6b",
       {0xf10a2392370d1990ULL, 0xf467217485b59430ULL,
        0x2dd013a262e519ccULL}},
      {"preset noc",
       {0x21bd70f3cb6fe90dULL, 0x1d5592537dc35f7aULL,
        0xb23f19235bb05aeaULL}},
      {"preset modulation",
       {0xd63bd441077b9177ULL, 0x94062144c63daf77ULL,
        0x0b7945fef2f9f124ULL}},
      {"preset modulation-smoke",
       {0x8839446f5ad77c90ULL, 0x485afcc6d2a6f35eULL,
        0x7ca99bb51d7ee3a2ULL}},
      {"preset thermal",
       {0x014fed17197d3677ULL, 0xcb985094fd49192fULL,
        0x187d77f969303ba6ULL}},
      {"preset network",
       {0xc4a4d5b7f5c8637fULL, 0x03ca7a1441722951ULL,
        0x824e505ed52b7b6aULL}},
      {"preset cooling",
       {0x606bf841d9ed76b8ULL, 0xe899a8517b1941c4ULL,
        0x8e27be611a5abb94ULL}},
      {"cooling.json",
       {0x606bf841d9ed76b8ULL, 0xe899a8517b1941c4ULL,
        0x8e27be611a5abb94ULL}},
      {"fig6b.json",
       {0xf10a2392370d1990ULL, 0xf467217485b59430ULL,
        0x2dd013a262e519ccULL}},
      {"modulation.json",
       {0xd63bd441077b9177ULL, 0x94062144c63daf77ULL,
        0x0b7945fef2f9f124ULL}},
      {"network.json",
       {0xc4a4d5b7f5c8637fULL, 0x03ca7a1441722951ULL,
        0x824e505ed52b7b6aULL}},
      {"noc.json",
       {0x21bd70f3cb6fe90dULL, 0x1d5592537dc35f7aULL,
        0xb23f19235bb05aeaULL}},
      {"thermal.json",
       {0x014fed17197d3677ULL, 0xcb985094fd49192fULL,
        0x187d77f969303ba6ULL}},
      {"evaluator noc on codes x bers",
       {0xf583e54f5fda56c8ULL, 0x808b6292a081ac30ULL,
        0xd3e91e463f5f930eULL}},
      {"cooling link grid",
       {0x0e64afce57f21743ULL, 0xe50d1a811c499c9aULL,
        0x0000000000000000ULL}},
      {"cooling noc grid",
       {0xdbfb8b0528a0ae0aULL, 0x035e2751fe3671e9ULL,
        0x0000000000000000ULL}},
  };
  return table;
}

std::string ndjson(const spec::ExperimentSpec& experiment) {
  serve::Service service({.threads = 1, .block_size = 7});
  std::ostringstream out;
  EXPECT_TRUE(
      service.handle_line(serve::sweep_request_line(experiment), out));
  return out.str();
}

spec::ExperimentSpec load(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return spec::from_json(text.str());
}

/// Every preset, every examples/specs/*.json and the "noc"-evaluator
/// code/BER grid, each run single-threaded.
std::vector<std::pair<std::string, spec::ExperimentSpec>> spec_cases() {
  std::vector<std::pair<std::string, spec::ExperimentSpec>> out;
  for (const std::string& name : spec::preset_registry().names())
    out.emplace_back("preset " + name,
                     spec::preset_registry().make(name, "preset"));

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           PHOTECC_SOURCE_DIR "/examples/specs"))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const auto& path : files)
    out.emplace_back(path.filename().string(), load(path));

  spec::ExperimentSpec noc_named;
  noc_named.name = "noc-named";
  noc_named.evaluator = "noc";
  noc_named.noc_horizon_s = 5e-7;
  noc_named.codes = {"w/o ECC", "H(71,64)", "H(7,4)"};
  noc_named.ber_targets = {1e-9, 1e-11};
  out.emplace_back("evaluator noc on codes x bers", noc_named);

  for (auto& [name, experiment] : out) experiment.threads = 1;
  return out;
}

/// The cooling axis exists only on hand-built grids: one link grid (the
/// lowered plan, with the duty_bound / thermal_headroom_w columns) and
/// one simulator grid (duty_bound after the aggregate columns).
std::vector<std::pair<std::string, explore::ScenarioGrid>> grid_cases() {
  photecc::link::MwsrParams hot;
  hot.waveguide_length_m = 0.14;
  hot.oni_count = 16;

  explore::ScenarioGrid link_grid;
  link_grid.codes({"H(71,64)", "BCH(15,7,2)"})
      .cooling_weights({0, 3})
      .ber_targets({1e-9, 1e-11})
      .base_link(hot);

  explore::ScenarioGrid sim_grid;
  sim_grid.codes({"H(71,64)", "H(7,4)"})
      .cooling_weights({0, 3})
      .ber_targets({1e-11})
      .traffic_patterns({explore::uniform_traffic(4e8)})
      .noc_horizon(5e-7);
  return {{"cooling link grid", link_grid}, {"cooling noc grid", sim_grid}};
}

void expect_pinned(const std::string& name, const Pin& actual) {
  const auto it = pins().find(name);
  const Pin expected = it == pins().end() ? Pin{} : it->second;
  EXPECT_EQ(actual.csv, expected.csv) << "csv";
  EXPECT_EQ(actual.json, expected.json) << "json";
  EXPECT_EQ(actual.ndjson, expected.ndjson) << "ndjson";
  if (actual.csv != expected.csv || actual.json != expected.json ||
      actual.ndjson != expected.ndjson) {
    std::ostringstream os;
    os << std::hex << "{\"" << name << "\",\n {0x" << actual.csv
       << "ULL, 0x" << actual.json << "ULL,\n  0x" << actual.ndjson
       << "ULL}},";
    ADD_FAILURE() << "actual pin:\n" << os.str();
  }
}

TEST(ExportPin, EverySpecExportsAndStreamsPinnedBytes) {
  const auto cases = spec_cases();
  EXPECT_EQ(cases.size(), 14u);  // 7 presets + 6 example specs + 1
  for (const auto& [name, experiment] : cases) {
    SCOPED_TRACE(name);
    const explore::ExperimentResult result = spec::run(experiment);
    expect_pinned(name, {fnv1a64(result.csv()), fnv1a64(result.json()),
                         fnv1a64(ndjson(experiment))});
  }
}

TEST(ExportPin, CoolingAxisGridsExportPinnedBytes) {
  for (const auto& [name, grid] : grid_cases()) {
    SCOPED_TRACE(name);
    const explore::ExperimentResult result =
        explore::SweepRunner{{1}}.run(grid);
    expect_pinned(name, {fnv1a64(result.csv()), fnv1a64(result.json()), 0});
  }
}

}  // namespace
