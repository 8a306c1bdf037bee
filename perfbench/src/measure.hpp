// Measurement primitives of the benchmark: the clock, latency
// summaries (median and the >=10-beyond tail), peak RSS, the host
// reference kernel, and the span recorder of the traced run.
#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// Median of `values` by the nearest-rank rule (math::nearest_rank_index
/// at 0.5).  Throws std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// The tail percentile of a sample: the highest whole percentile in
/// [50, 99] (or 99.9) whose nearest-rank sample has at least
/// kTailBeyond samples above it.  Samples of <= kTailBeyond values have
/// no such percentile; the median stands in (percentile 50).
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  double percentile = 50.0;  ///< in percent
  std::size_t beyond = 0;    ///< samples ranked above the selected one
  double value = 0.0;
};
[[nodiscard]] Tail tail(std::vector<double> values);

/// Resets the kernel's peak-RSS mark of this process to the current RSS
/// (Linux clear_refs; a no-op where unsupported).
void reset_peak_rss();

/// Peak resident set size of this process since the last
/// reset_peak_rss() (or since start), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Wall time of a fixed host reference kernel that involves no photecc
/// code: a dependent xorshift-multiply chain (core speed) followed by a
/// pointer chase through a 16 MiB random ring (cache and memory
/// latency, which neighbours on a shared host disturb first).  Median
/// of five repetitions.
[[nodiscard]] double ref_kernel_s();

/// Build metadata baked in at configure time.
struct BuildInfo {
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
};
[[nodiscard]] BuildInfo build_info();

/// One named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Shortest round-trip decimal rendering of a double (JSON number).
[[nodiscard]] std::string json_number(double value);

/// Span recorder of the traced run.  Spans nest by call order: a span
/// opened while another is open is its child.  Spans stay in memory
/// until the run writes them as Chrome trace events.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::ptrdiff_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::size_t request = 0;
  };

  explicit Tracer(std::string process) : process_(std::move(process)) {}

  [[nodiscard]] std::size_t begin(std::string name, std::size_t request);
  void end(std::size_t span);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& process() const noexcept {
    return process_;
  }

  /// Self time (duration minus the time covered by direct children) of
  /// every span named `name`, summed per request, in request order.
  [[nodiscard]] std::vector<double> self_per_request(
      const std::string& name) const;
  /// Self time of every span named `name`, summed over the run.
  [[nodiscard]] double self_total(const std::string& name) const;

 private:
  [[nodiscard]] std::vector<double> self_times() const;

  std::string process_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::size_t request)
      : tracer_(tracer),
        span_(tracer ? tracer->begin(std::move(name), request) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

/// Writes every tracer's spans as one Chrome trace-event JSON document
/// (one pid per tracer; args carry the span id, parent and request).
void write_chrome_trace(std::ostream& os,
                        const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_HPP
