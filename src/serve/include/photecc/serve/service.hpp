// The sweep service itself: a Service owns a PlanCache and turns
// request lines into response-record streams.
//
//   Service service({.threads = 2});
//   service.run(std::cin, std::cout);          // NDJSON loop until
//                                              // shutdown/EOF
//   service.handle_line(line, out);            // or one line at a time
//
// A sweep request is answered incrementally, on one path for link and
// simulator grids alike: the header (the grid's result schema) goes out
// before any cell is evaluated, each cell block as soon as every
// earlier block has finished (SweepRunner's in-order streaming run),
// the done record last — so large grids stream while still computing.
// Identical canonical specs are answered from the PlanCache with the
// byte-identical record stream of the original compute, at zero solver
// work.
//
// ServiceOptions are OPERATIONAL knobs only: threads and cache budget
// can never change a sweep response's bytes.  block_size can (it sets
// the cells-record framing), which is why the determinism contract in
// protocol.hpp is "pure function of canonical spec + service block
// size".
#ifndef PHOTECC_SERVE_SERVICE_HPP
#define PHOTECC_SERVE_SERVICE_HPP

#include <cstddef>
#include <iosfwd>
#include <string>

#include "photecc/explore/result.hpp"
#include "photecc/serve/cache.hpp"
#include "photecc/serve/protocol.hpp"

namespace photecc::serve {

struct ServiceOptions {
  /// Worker threads per sweep: 0 = honour each spec's own `threads`
  /// field (which itself treats 0 as hardware concurrency); nonzero
  /// overrides every spec.  Never affects response bytes.
  std::size_t threads = 0;
  /// Cells per streamed `cells` record (and per work unit).
  std::size_t block_size = 64;
  /// PlanCache byte budget.
  std::size_t cache_budget_bytes = 64u << 20;
  /// Request lines longer than this are rejected with an "error"
  /// record (stage "limit") without being parsed.
  std::size_t max_request_bytes = 1u << 20;
};

/// Daemon-lifetime counters, reported by the "stats" request kind.
/// Explicitly OUTSIDE the sweep-response determinism contract: the
/// embedded SweepStats carries wall times and the cache counters
/// depend on request history.
struct ServeStats {
  std::size_t requests = 0;        ///< non-blank lines handled
  std::size_t sweeps = 0;          ///< sweep requests answered (hit or miss)
  std::size_t errors = 0;          ///< error records emitted
  std::size_t cache_hits = 0;      ///< sweeps replayed from the cache
  std::size_t cache_misses = 0;    ///< sweeps that had to compute
  std::size_t plans_lowered = 0;   ///< link-grid LoweredPlan constructions
  std::size_t cells_streamed = 0;  ///< cells across all sweep responses
  /// Lifetime SweepStats: each computed run's stats merged in full,
  /// each cache replay merged as as_replay() — so `sweep.cells` counts
  /// every cell served while the work counters count only work done.
  explore::SweepStats sweep;

  /// Flat JSON object including the cache's occupancy counters.
  [[nodiscard]] std::string json(const PlanCache& cache) const;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Handles one request line (blank lines are ignored), writing the
  /// response records to `out` (one per line, flushed per record).
  /// Returns false when the line was a shutdown request (after
  /// emitting its "bye" record) — the caller should stop reading.
  /// Never throws on bad input: every rejection is an "error" record.
  bool handle_line(const std::string& line, std::ostream& out);

  /// Reads request lines from `in` until shutdown or EOF.  Returns
  /// true for a clean shutdown, false for EOF.  At most
  /// max_request_bytes of a line are buffered: a longer line is
  /// answered with one "limit" error and skipped up to its newline.
  bool run(std::istream& in, std::ostream& out);

  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PlanCache& cache() const noexcept { return cache_; }

 private:
  /// Threads to execute with: the service override, else the spec's.
  [[nodiscard]] std::size_t exec_threads(
      const spec::ExperimentSpec& experiment) const;

  void handle_sweep(const Request& request, std::ostream& out);
  void emit_error(std::ostream& out, const std::string& id,
                  const std::string& stage, const std::string& field,
                  const std::string& message);

  ServiceOptions options_;
  PlanCache cache_;
  ServeStats stats_;
};

}  // namespace photecc::serve

#endif  // PHOTECC_SERVE_SERVICE_HPP
