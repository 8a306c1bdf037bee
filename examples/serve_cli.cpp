// Sweep-service daemon CLI — the stdin/stdout (or unix-socket)
// frontend of photecc::serve.
//
//   serve_cli                      NDJSON loop on stdin/stdout until a
//                                  {"kind":"shutdown"} request or EOF
//   serve_cli --socket PATH        same loop over a unix-domain socket,
//                                  one client at a time, shared cache
//   serve_cli --smoke              self-check: two identical fig6b
//                                  requests + one distinct spec piped
//                                  through a fresh service — duplicate
//                                  responses byte-identical, exactly
//                                  one cache hit and two plan
//                                  lowerings, cold-service recompute
//                                  byte-identical to the cached replay
//
// Operational flags (never affect sweep-response bytes except
// --block-size, which sets the cells-record framing):
//   --threads N             worker threads per sweep (0 = each spec's own)
//   --block-size N          cells per streamed "cells" record
//   --cache-bytes N         PlanCache byte budget
//   --max-request-bytes N   reject longer request lines
//
// Try it (one pipeline; the spec document must stay on one line):
//   explore_cli --preset fig6b --dump-spec | tr -d '\n' |
//     sed 's/.*/{"kind":"sweep","spec":&}/' | serve_cli
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "photecc/serve/protocol.hpp"
#include "photecc/serve/service.hpp"
#include "photecc/serve/socket.hpp"
#include "photecc/spec/cli.hpp"
#include "photecc/spec/registries.hpp"

namespace {

using namespace photecc;

int usage(std::ostream& os, int code) {
  os << "usage: serve_cli [--socket PATH] [--smoke]\n"
        "                 [--threads N] [--block-size N]\n"
        "                 [--cache-bytes N] [--max-request-bytes N]\n";
  return code;
}

bool check(bool condition, const std::string& what) {
  if (!condition) std::cerr << "smoke FAILED: " << what << "\n";
  return condition;
}

/// The duplicate-request smoke CI runs in Debug and Release: the whole
/// request->response loop through Service::run, twice the same spec
/// and once a different one, asserting the cache (not a recompute)
/// produced the second response.
int run_smoke(const serve::ServiceOptions& options) {
  const spec::ExperimentSpec fig6b =
      spec::preset_registry().make("fig6b", "--smoke");
  spec::ExperimentSpec variant = fig6b;
  variant.name = "fig6b-variant";
  variant.ber_targets = {1e-6, 1e-8};

  std::istringstream session(serve::sweep_request_line(fig6b) + "\n" +
                             serve::sweep_request_line(fig6b) + "\n" +
                             serve::sweep_request_line(variant) + "\n" +
                             serve::request_line("shutdown") + "\n");
  serve::Service service(options);
  std::ostringstream out;
  bool ok = check(service.run(session, out), "clean shutdown");

  // Split the session transcript back into the three sweep responses:
  // each ends with its "done" record, the transcript with "bye".
  const std::string transcript = out.str();
  std::vector<std::string> responses(1);
  std::istringstream lines(transcript);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"kind\":\"bye\"", 0) == 0) break;
    responses.back() += line + "\n";
    if (line.rfind("{\"kind\":\"done\"", 0) == 0) responses.emplace_back();
  }
  responses.pop_back();

  ok &= check(responses.size() == 3, "three sweep responses");
  ok &= check(service.stats().errors == 0, "no error records");
  if (!ok) return 1;
  ok &= check(responses[0] == responses[1],
              "duplicate responses byte-identical");
  ok &= check(responses[0] != responses[2],
              "distinct spec answered differently");
  ok &= check(service.stats().cache_hits == 1, "exactly one cache hit");
  ok &= check(service.stats().plans_lowered == 2,
              "exactly one plan lowering per distinct spec");

  // A cold service must recompute byte-for-byte what the warm one
  // replayed from its cache.
  serve::Service cold(options);
  std::ostringstream recomputed;
  cold.handle_line(serve::sweep_request_line(fig6b), recomputed);
  ok &= check(recomputed.str() == responses[1],
              "cold recompute byte-identical to cached replay");

  if (!ok) return 1;
  std::cout << "smoke OK: dup fig6b request served from cache ("
            << service.stats().cache_hits << " hit, "
            << service.stats().plans_lowered
            << " lowerings for 3 requests), replay byte-identical to "
               "cold recompute\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServiceOptions options;
  bool smoke = false;
  std::string socket_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        smoke = true;
      } else if (arg == "--socket" && i + 1 < argc) {
        socket_path = argv[++i];
      } else if (arg == "--threads" && i + 1 < argc) {
        options.threads = spec::parse_size("--threads", argv[++i]);
      } else if (arg == "--block-size" && i + 1 < argc) {
        options.block_size = spec::parse_size("--block-size", argv[++i]);
      } else if (arg == "--cache-bytes" && i + 1 < argc) {
        options.cache_budget_bytes =
            spec::parse_size("--cache-bytes", argv[++i]);
      } else if (arg == "--max-request-bytes" && i + 1 < argc) {
        options.max_request_bytes =
            spec::parse_size("--max-request-bytes", argv[++i]);
      } else if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return usage(std::cerr, 2);
      }
    }
    if (smoke) return run_smoke(options);

    serve::Service service(options);
    if (!socket_path.empty()) {
      std::string error;
      if (!serve::serve_unix_socket(service, {socket_path, 0}, error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      return 0;
    }
    service.run(std::cin, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
