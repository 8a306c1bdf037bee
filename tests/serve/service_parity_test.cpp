// serve::Service answers every spec with exactly what spec::run computes:
// the header's metric list is the run's schema and the concatenated
// `cells` records are the run's cells, byte for byte.  The
// cases are every preset, every shipped examples/specs document, and the
// routing corners: a network section without NoC axes, and the "noc"
// evaluator on a network whose tiles outnumber the link's ONIs.
#include "photecc/serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/result.hpp"
#include "photecc/math/json.hpp"
#include "photecc/serve/protocol.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/run.hpp"
#include "photecc/spec/spec.hpp"

namespace {

namespace explore = photecc::explore;
namespace json = photecc::math::json;
namespace serve = photecc::serve;
namespace spec = photecc::spec;

spec::ExperimentSpec load(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return spec::from_json(text.str());
}

/// (case name, spec): every preset, every examples/specs/*.json, and
/// the routing corners built from network.json.
std::vector<std::pair<std::string, spec::ExperimentSpec>> cases() {
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

  const spec::ExperimentSpec network =
      load(PHOTECC_SOURCE_DIR "/examples/specs/network.json");
  spec::ExperimentSpec no_traffic = network;
  no_traffic.traffic.clear();
  out.emplace_back("network.json without traffic", no_traffic);
  // 16 tiles on the 12-ONI paper link, named by the "noc" evaluator.
  spec::ExperimentSpec noc_named = network;
  noc_named.evaluator = "noc";
  out.emplace_back("network.json with evaluator noc", noc_named);
  noc_named.traffic.clear();
  out.emplace_back("network.json with evaluator noc, no traffic",
                   noc_named);
  return out;
}

struct Streamed {
  std::vector<std::string> metrics;  ///< the header's metric list
  std::size_t cells = 0;             ///< the header's cell count
  std::string bodies;  ///< every cells record's array, joined by ','
  std::vector<std::string> kinds;    ///< record kinds in arrival order
  std::vector<std::uint64_t> begins;  ///< each cells record's "begin"
};

Streamed stream(const spec::ExperimentSpec& experiment,
                std::size_t threads = 1, std::size_t block_size = 7) {
  serve::Service service({.threads = threads, .block_size = block_size});
  std::ostringstream out;
  EXPECT_TRUE(
      service.handle_line(serve::sweep_request_line(experiment), out));
  Streamed streamed;
  std::istringstream lines(out.str());
  std::string line;
  const std::string array_key = "\"cells\":[";
  while (std::getline(lines, line)) {
    const json::Value record = json::parse(line);
    const std::string& kind = record.find("kind")->as_string();
    EXPECT_NE(kind, "error") << line;
    streamed.kinds.push_back(kind);
    if (kind == "header") {
      streamed.cells = record.find("cells")->as_uint64();
      for (const json::Value& name : record.find("metrics")->as_array())
        streamed.metrics.push_back(name.as_string());
    } else if (kind == "cells") {
      streamed.begins.push_back(record.find("begin")->as_uint64());
      // The record ends with the cells array: ..."cells":[...]}
      const std::size_t begin = line.find(array_key) + array_key.size();
      if (!streamed.bodies.empty()) streamed.bodies += ',';
      streamed.bodies += line.substr(begin, line.size() - begin - 2);
    }
  }
  return streamed;
}

Streamed expected(const spec::ExperimentSpec& experiment) {
  const explore::ExperimentResult result = spec::run(experiment);
  Streamed run;
  run.cells = result.cells.size();
  run.metrics = result.cells.schema().metrics;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (i) run.bodies += ',';
    result.cells.append_cell_json(run.bodies, i);
  }
  return run;
}

bool has_channel_columns(const std::vector<std::string>& metrics) {
  return std::find(metrics.begin(), metrics.end(), "ch0_delivered") !=
         metrics.end();
}

TEST(ServeParity, EverySpecStreamsWhatSpecRunComputes) {
  for (const auto& [name, experiment] : cases()) {
    SCOPED_TRACE(name);
    const Streamed served = stream(experiment);
    const Streamed run = expected(experiment);
    EXPECT_GT(run.cells, 0u);
    EXPECT_EQ(served.cells, run.cells);
    EXPECT_EQ(served.metrics, run.metrics);
    EXPECT_EQ(served.bodies, run.bodies);
    // A network section always runs the network, whichever simulator
    // name the spec uses and whether or not it sweeps a NoC axis.
    if (experiment.network) {
      EXPECT_TRUE(has_channel_columns(run.metrics));
    }
  }
}

TEST(ServeParity, SimulatorSweepStreamsInOrderAtFourThreads) {
  // One record per cell, computed by four workers out of order, must
  // still arrive in ascending order and concatenate to spec::run's JSON.
  const spec::ExperimentSpec network =
      load(PHOTECC_SOURCE_DIR "/examples/specs/network.json");
  const Streamed served = stream(network, 4, 1);
  const explore::ExperimentResult result = spec::run(network);
  EXPECT_EQ(served.metrics,
            explore::result_schema(spec::lower(network)).metrics);
  EXPECT_EQ(served.metrics, result.cells.schema().metrics);
  ASSERT_EQ(served.begins.size(), result.cells.size());
  for (std::size_t i = 0; i < served.begins.size(); ++i)
    EXPECT_EQ(served.begins[i], i);
  ASSERT_FALSE(served.kinds.empty());
  EXPECT_EQ(served.kinds.front(), "header");
  EXPECT_EQ(served.kinds.back(), "done");

  // The export frames the same cell objects one per line; JSON escapes
  // every newline inside a string, so the framing is the only "\n  ".
  std::string exported = result.json();
  const std::string head = "{\"cells\":[\n  ", tail = "\n]}\n";
  ASSERT_EQ(exported.rfind(head, 0), 0u);
  exported = exported.substr(head.size(),
                             exported.size() - head.size() - tail.size());
  for (std::size_t at = exported.find(",\n  "); at != std::string::npos;
       at = exported.find(",\n  ", at))
    exported.erase(at + 1, 3);
  EXPECT_EQ(served.bodies, exported);
}

}  // namespace
