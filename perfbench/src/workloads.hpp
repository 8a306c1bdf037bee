// The four benchmark workloads.  Each drives photecc through its public
// functions only, one closed-loop client on one thread:
//
//   sweep-export   spec JSON -> validate/hash -> lower -> execute(1) ->
//                  CSV + JSON into a byte-counting sink -> Pareto front
//   serve-session  request lines through serve::Service::handle_line
//                  (threads = 1, default block size and cache budget)
//   noc-network    one traffic-generate + NetworkSimulator::run scaling
//                  study at 16, 64, 256 and 1024 tiles
//   mc-ber         one batch Monte-Carlo BER-validation pass over a
//                  fixed code menu at a seeded raw BER
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything done once before the first timed request: builds the
  /// seeded input pool, constructs the system under test and runs one
  /// warm-up request from outside the pool.  Calling it again starts
  /// over from scratch.
  virtual void setup(std::uint64_t seed) = 0;

  /// Requests in one pass over the input pool.  The timed loop repeats
  /// the pass; request `index` runs pool item `index % pool_size()`.
  [[nodiscard]] virtual std::size_t pool_size() const = 0;

  /// Untimed reset before every pass but the first, so each pass sees
  /// the system in the state the first one did (serve-session starts a
  /// new service).
  virtual void start_pass() {}

  /// Runs timed request `index` (the pool is cycled; spans go to
  /// `tracer` when it is non-null).  May throw; the driver counts that
  /// as a failure.
  virtual void request(std::size_t index, Tracer* tracer) = 0;

  /// Output check of the request just run; untimed.
  [[nodiscard]] virtual bool check(std::size_t index) = 0;

  /// Run-level output checks after `count` requests (re-executions,
  /// pinned hashes, reproducibility); returns the indices of the
  /// requests they fail.
  [[nodiscard]] virtual std::vector<std::size_t> verify(std::size_t count) {
    (void)count;
    return {};
  }

  /// Untimed extra measurement after traced request `index` (the codec
  /// kernel timings of mc-ber); recorded as its own root span.
  virtual void after_traced_request(std::size_t index, Tracer& tracer) {
    (void)index;
    (void)tracer;
  }

  /// Per-layer metrics of the traced requests run since setup().
  virtual void layer_metrics(const Tracer& tracer, Metrics& out) = 0;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload, or nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// (CSV, JSON) math::fnv1a64 of every sweep-export pool request for
/// `seed`, executed at one thread — the values pinned for the default
/// seed.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
sweep_export_hashes(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
