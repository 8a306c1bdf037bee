// serve::Service happy paths: streamed sweep response shape, the
// cache's byte-identity guarantee (the acceptance criterion: a cached
// replay of the fig6b sweep is byte-identical to a fresh recompute, at
// 1 and at 4 threads), replay accounting and the control requests.
#include "photecc/serve/service.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "photecc/explore/evaluators.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/serve/protocol.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/spec.hpp"

namespace {

namespace serve = photecc::serve;
namespace spec = photecc::spec;

spec::ExperimentSpec fig6b() {
  return spec::preset_registry().make("fig6b", "preset");
}

std::string respond(serve::Service& service, const std::string& line) {
  std::ostringstream out;
  service.handle_line(line, out);
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool starts_with(const std::string& line, const std::string& prefix) {
  return line.compare(0, prefix.size(), prefix) == 0;
}

TEST(ServeService, SweepResponseShape) {
  serve::Service service({.threads = 1, .block_size = 5});
  const auto experiment = fig6b();  // 3 codes x 4 BERs = 12 cells
  const auto lines =
      lines_of(respond(service, serve::sweep_request_line(experiment)));

  // header, ceil(12 / 5) = 3 cells records, done.
  ASSERT_EQ(lines.size(), 5u);
  const std::string hash_hex =
      photecc::math::hex64(spec::canonical_hash(experiment));
  std::string metrics;
  for (const auto& name : photecc::explore::link_cell_metric_names()) {
    if (!metrics.empty()) metrics += ',';
    metrics += '"' + name + '"';
  }
  EXPECT_EQ(lines[0],
            "{\"kind\":\"header\",\"spec_hash\":\"" + hash_hex +
                "\",\"name\":\"fig6b\",\"cells\":12,\"block_size\":5,"
                "\"axes\":[\"code\",\"target_ber\"],\"metrics\":[" +
                metrics + "]}");
  EXPECT_TRUE(starts_with(lines[1], "{\"kind\":\"cells\",\"begin\":0,"
                                    "\"end\":5,"));
  EXPECT_TRUE(starts_with(lines[2], "{\"kind\":\"cells\",\"begin\":5,"
                                    "\"end\":10,"));
  EXPECT_TRUE(starts_with(lines[3], "{\"kind\":\"cells\",\"begin\":10,"
                                    "\"end\":12,"));
  EXPECT_TRUE(starts_with(lines[4], "{\"kind\":\"done\",\"cells\":12,"));
  EXPECT_NE(lines[4].find("\"lowered\":{\"channels_lowered\":1,"
                          "\"root_solves\":12,"),
            std::string::npos);

  EXPECT_EQ(service.stats().sweeps, 1u);
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().plans_lowered, 1u);
  EXPECT_EQ(service.stats().cells_streamed, 12u);
}

TEST(ServeService, DuplicateRequestIsByteIdenticalAndHitsTheCache) {
  serve::Service service({.threads = 1, .block_size = 5});
  const std::string request = serve::sweep_request_line(fig6b());
  const std::string first = respond(service, request);
  const std::string second = respond(service, request);

  EXPECT_EQ(first, second);  // byte-identical replay
  EXPECT_EQ(service.stats().sweeps, 2u);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().plans_lowered, 1u);  // exactly one lowering
  EXPECT_EQ(service.cache().entries(), 1u);

  // Replay accounting: cells double, solver work does not.
  EXPECT_EQ(service.stats().cells_streamed, 24u);
  EXPECT_EQ(service.stats().sweep.cells, 24u);
  EXPECT_EQ(service.stats().sweep.root_solves, 12u);
}

TEST(ServeService, CachedReplayMatchesFreshComputeAtOneAndFourThreads) {
  // The acceptance criterion: the cached fig6b response must be
  // byte-identical to a recomputed one, and thread count must not
  // leak into the bytes.
  const std::string request = serve::sweep_request_line(fig6b());

  serve::Service one({.threads = 1, .block_size = 5});
  const std::string computed_1t = respond(one, request);
  const std::string replayed_1t = respond(one, request);

  serve::Service four({.threads = 4, .block_size = 5});
  const std::string computed_4t = respond(four, request);
  const std::string replayed_4t = respond(four, request);

  EXPECT_EQ(computed_1t, replayed_1t);
  EXPECT_EQ(computed_4t, replayed_4t);
  EXPECT_EQ(computed_1t, computed_4t);
  EXPECT_EQ(one.stats().cache_hits, 1u);
  EXPECT_EQ(four.stats().cache_hits, 1u);
}

TEST(ServeService, IdIsEchoedButDoesNotDefeatTheCache) {
  serve::Service service({.threads = 1, .block_size = 64});
  const auto first =
      lines_of(respond(service, serve::sweep_request_line(fig6b(), "a")));
  const auto second =
      lines_of(respond(service, serve::sweep_request_line(fig6b(), "b")));

  EXPECT_EQ(service.stats().cache_hits, 1u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    // Every record echoes its request's id right after the kind...
    EXPECT_NE(first[i].find("\"id\":\"a\""), std::string::npos) << i;
    EXPECT_NE(second[i].find("\"id\":\"b\""), std::string::npos) << i;
    // ...and is otherwise byte-identical between compute and replay.
    std::string relabeled = second[i];
    relabeled.replace(relabeled.find("\"id\":\"b\""), 8, "\"id\":\"a\"");
    EXPECT_EQ(first[i], relabeled) << i;
  }
}

TEST(ServeService, NocGridTakesTheRunnerPathAndStillCaches) {
  serve::Service service({.threads = 1, .block_size = 64});
  spec::ExperimentSpec experiment;
  experiment.name = "noc-smoke";
  experiment.traffic.push_back({});  // uniform default => NoC axis
  experiment.noc_horizon_s = 2e-7;

  const std::string request = serve::sweep_request_line(experiment);
  const auto lines = lines_of(respond(service, request));
  ASSERT_EQ(lines.size(), 3u);  // header, one cells block, done
  EXPECT_NE(lines[0].find("\"axes\":[\"traffic\"]"), std::string::npos);
  // NoC metrics come from the cells, not the link evaluator's list.
  EXPECT_NE(lines[0].find("\"delivered\""), std::string::npos);
  EXPECT_TRUE(starts_with(lines[2], "{\"kind\":\"done\",\"cells\":1,"));
  // No plan on this path, and a replay is still byte-identical.
  EXPECT_EQ(service.stats().plans_lowered, 0u);
  EXPECT_EQ(respond(service, request),
            lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(ServeService, SimulatorHeaderPrecedesAnyCellEvaluation) {
  // The first cell of this sweep throws (its trace file does not
  // exist), so the header can only have been written before any cell
  // was evaluated; the failed sweep is not cached.
  serve::Service service({.threads = 1, .block_size = 64});
  spec::ExperimentSpec experiment;
  spec::TrafficEntry trace;
  trace.kind = "trace";
  trace.trace_path = "no/such/file.trace";
  experiment.traffic = {trace};
  const auto lines =
      lines_of(respond(service, serve::sweep_request_line(experiment)));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[0], "{\"kind\":\"header\","));
  EXPECT_NE(lines[0].find("\"axes\":[\"traffic\"]"), std::string::npos);
  EXPECT_TRUE(starts_with(lines[1], "{\"kind\":\"error\","));
  EXPECT_EQ(service.cache().entries(), 0u);
}

TEST(ServeService, StatsRecordReportsCounters) {
  serve::Service service({.threads = 1, .block_size = 5});
  (void)respond(service, serve::sweep_request_line(fig6b()));
  const auto lines =
      lines_of(respond(service, serve::request_line("stats", "s1")));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(starts_with(lines[0],
                          "{\"kind\":\"stats\",\"id\":\"s1\",\"serve\":{"
                          "\"requests\":2,\"sweeps\":1,\"errors\":0,"
                          "\"cache_hits\":0,\"cache_misses\":1,"
                          "\"plans_lowered\":1,\"cells_streamed\":12,"));
  EXPECT_NE(lines[0].find("\"cache\":{\"entries\":1,"), std::string::npos);
  EXPECT_NE(lines[0].find("\"sweep\":{\"cells\":12,"), std::string::npos);
}

TEST(ServeService, ShutdownSaysByeAndStopsTheLoop) {
  serve::Service service;
  std::ostringstream out;
  EXPECT_FALSE(service.handle_line(serve::request_line("shutdown"), out));
  EXPECT_EQ(out.str(), "{\"kind\":\"bye\"}\n");

  // run(): clean shutdown returns true, EOF returns false.
  std::istringstream session("\n" + serve::request_line("stats") + "\n" +
                             serve::request_line("shutdown") + "\n");
  std::ostringstream session_out;
  EXPECT_TRUE(service.run(session, session_out));
  std::istringstream eof_only("");
  EXPECT_FALSE(service.run(eof_only, session_out));
}

TEST(ServeService, BlankLinesAreIgnored) {
  serve::Service service;
  std::ostringstream out;
  EXPECT_TRUE(service.handle_line("", out));
  EXPECT_TRUE(service.handle_line("   \t", out));
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(service.stats().requests, 0u);
}

}  // namespace
