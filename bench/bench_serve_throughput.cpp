// Serve-daemon throughput benchmark: cold compute vs warm cache replay
// of the same sweep request, through the full NDJSON loop (parse,
// lower, execute, render, stream).
//
// Part 1 (headline): the 600-cell multi-axis grid requested twice from
// one service — the second response must be byte-identical and come
// from the PlanCache; the benchmark reports the cold/warm wall times
// and the replay speedup (the whole point of memoizing rendered
// responses: a warm request is pure byte copying).
//
// Part 2 (fan-out): 20 distinct single-change variants of the grid
// requested cold, then all 20 again warm — throughput with the cache
// populated vs not, plus occupancy counters.
//
// Usage: bench_serve_throughput [--smoke]
//   --smoke: the 12-cell fig6b grid, cold-vs-warm byte identity and
//   counter sanity only (no timing assertion — CI runs this in Debug).
//   Exit code != 0 on any identity or counter failure.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "photecc/ecc/registry.hpp"
#include "photecc/serve/protocol.hpp"
#include "photecc/serve/service.hpp"
#include "photecc/spec/registries.hpp"

namespace {

using namespace photecc;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool check(bool condition, const std::string& what) {
  if (!condition) std::cerr << "FAILED: " << what << "\n";
  return condition;
}

std::string respond(serve::Service& service, const std::string& request) {
  std::ostringstream out;
  service.handle_line(request, out);
  return out.str();
}

spec::ExperimentSpec headline_spec() {
  std::vector<std::string> code_names;
  for (const auto& code : ecc::all_known_codes())
    code_names.push_back(code->name());
  return {.name = "serve-headline",
          .codes = std::move(code_names),
          .ber_targets = {1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11},
          .links = {"2 cm", "4 cm", "6 cm", "10 cm", "14 cm"}};
}

int run_smoke() {
  serve::Service service({.block_size = 5});
  const std::string request = serve::sweep_request_line(
      spec::preset_registry().make("fig6b", "--smoke"));
  const std::string cold = respond(service, request);
  const std::string warm = respond(service, request);

  bool ok = check(cold == warm, "cold vs warm byte identity");
  ok &= check(service.stats().cache_hits == 1, "one cache hit");
  ok &= check(service.stats().plans_lowered == 1, "one plan lowering");
  ok &= check(service.stats().cells_streamed == 24, "12 + 12 cells");
  ok &= check(service.stats().sweep.root_solves == 12,
              "replay added no root solves");
  if (!ok) return 1;
  std::cout << "smoke OK: fig6b replay byte-identical, "
            << service.cache().size_bytes() << "-byte cache entry, stats "
            << service.stats().json(service.cache()) << "\n";
  return 0;
}

int run_full() {
  // --- Part 1: one 600-cell request, cold then warm.
  serve::Service service({.threads = 0, .block_size = 64});
  const std::string request = serve::sweep_request_line(headline_spec());

  auto start = std::chrono::steady_clock::now();
  const std::string cold = respond(service, request);
  const double cold_s = seconds_since(start);

  // Best-of-5 warm replays: the warm path is pure byte copying of a
  // ~260 KB response, so single-shot timings are scheduler noise.
  std::string warm;
  double warm_s = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    start = std::chrono::steady_clock::now();
    warm = respond(service, request);
    const double s = seconds_since(start);
    if (rep == 0 || s < warm_s) warm_s = s;
  }

  bool ok = check(cold == warm, "600-cell cold vs warm byte identity");
  ok &= check(service.stats().cache_hits == 5, "headline cache hits");
  const double replay_speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;

  // --- Part 2: 20 distinct variants cold, then the same 20 warm.
  std::vector<std::string> requests;
  for (int i = 0; i < 20; ++i) {
    spec::ExperimentSpec variant = headline_spec();
    variant.name = "serve-variant-" + std::to_string(i);
    variant.ber_targets = {1e-6 / (i + 1), 1e-9 / (i + 1)};
    requests.push_back(serve::sweep_request_line(variant));
  }
  start = std::chrono::steady_clock::now();
  std::vector<std::string> cold_responses;
  for (const std::string& line : requests)
    cold_responses.push_back(respond(service, line));
  const double fanout_cold_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i)
    ok &= check(respond(service, requests[i]) == cold_responses[i],
                "variant " + std::to_string(i) + " replay identity");
  const double fanout_warm_s = seconds_since(start);

  ok &= check(service.stats().errors == 0, "no error records");
  ok &= check(service.stats().cache_hits == 25, "25 total cache hits");

  std::cout << "{\n"
            << "  \"benchmark\": \"serve_throughput\",\n"
            << "  \"headline_cells\": 600,\n"
            << "  \"cold_s\": " << cold_s << ",\n"
            << "  \"warm_s\": " << warm_s << ",\n"
            << "  \"replay_speedup\": " << replay_speedup << ",\n"
            << "  \"response_bytes\": " << cold.size() << ",\n"
            << "  \"fanout_requests\": " << requests.size() << ",\n"
            << "  \"fanout_cold_s\": " << fanout_cold_s << ",\n"
            << "  \"fanout_warm_s\": " << fanout_warm_s << ",\n"
            << "  \"identical_output\": " << (ok ? "true" : "false") << ",\n"
            << "  \"stats\": " << service.stats().json(service.cache())
            << "\n}\n";

  ok &= check(replay_speedup >= 5.0, "warm replay >= 5x cold compute");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  try {
    return smoke ? run_smoke() : run_full();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
