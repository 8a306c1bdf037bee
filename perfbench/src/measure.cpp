#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "photecc/math/json.hpp"
#include "photecc/math/stats.hpp"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[photecc::math::nearest_rank_index(values.size(), 0.5)];
}

Tail tail(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("tail: empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  Tail out;
  std::vector<double> candidates{99.9};
  for (int p = 99; p >= 50; --p) candidates.push_back(p);
  for (const double p : candidates) {
    const std::size_t index = photecc::math::nearest_rank_index(n, p / 100.0);
    if (n - 1 - index >= kTailBeyond) {
      out.percentile = p;
      out.beyond = n - 1 - index;
      out.value = values[index];
      return out;
    }
  }
  const std::size_t index = photecc::math::nearest_rank_index(n, 0.5);
  out.beyond = n - 1 - index;
  out.value = values[index];
  return out;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ref_kernel_s() {
  // A random cyclic permutation over 16 MiB (Sattolo), freed on return
  // so it never counts towards a workload's peak RSS.
  const std::vector<std::uint32_t> ring = [] {
    std::vector<std::uint32_t> next(std::size_t{1} << 22);
    for (std::size_t i = 0; i < next.size(); ++i)
      next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (std::size_t i = next.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }();
  static volatile std::uint64_t sink = 0;
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = now_s();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + sink;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0xff51afd7ed558ccdULL;
    }
    std::uint32_t at = static_cast<std::uint32_t>(x % ring.size());
    for (int i = 0; i < 200'000; ++i) at = ring[at];
    sink = sink + x + at;
    times.push_back(now_s() - start);
  }
  return median(times);
}

BuildInfo build_info() {
  return BuildInfo{PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                   PERFBENCH_CXX_FLAGS};
}

std::string json_number(double value) {
  return photecc::math::json::number(value);
}

std::size_t Tracer::begin(std::string name, std::size_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<std::ptrdiff_t>(open_.back());
  span.request = request;
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  spans_[span].end_s = now_s();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
  return self;
}

std::vector<double> Tracer::self_per_request(const std::string& name) const {
  const std::vector<double> self = self_times();
  std::vector<double> out;
  std::size_t current = 0;
  bool any = false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    if (!any || spans_[i].request != current) {
      out.push_back(0.0);
      current = spans_[i].request;
      any = true;
    }
    out.back() += self[i];
  }
  return out;
}

double Tracer::self_total(const std::string& name) const {
  double total = 0.0;
  for (const double s : self_per_request(name)) total += s;
  return total;
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<const Tracer*>& tracers) {
  namespace json = photecc::math::json;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t pid = 0; pid < tracers.size(); ++pid) {
    const Tracer& tracer = *tracers[pid];
    os << (first ? "" : ",") << "\n{\"name\":\"process_name\",\"ph\":\"M\","
       << "\"pid\":" << pid + 1 << ",\"tid\":1,\"args\":{\"name\":"
       << json::escape(tracer.process()) << "}}";
    first = false;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Tracer::Span& span = tracer.spans()[i];
      os << ",\n{\"name\":" << json::escape(span.name)
         << ",\"ph\":\"X\",\"pid\":" << pid + 1 << ",\"tid\":1"
         << ",\"ts\":" << json_number(span.start_s * 1e6)
         << ",\"dur\":" << json_number((span.end_s - span.start_s) * 1e6)
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
         << ",\"request\":" << span.request << "}}";
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
