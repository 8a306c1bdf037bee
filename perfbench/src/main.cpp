// photecc_perfbench — one closed-loop workload run of the photecc
// benchmark.
//
//   photecc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--git-sha SHA] [--trace-out FILE]
//   photecc_perfbench --print-pins
//
// --trace 0 measures the end-to-end metrics: the workload is set up,
// then requests run back to back on one thread for S seconds, in
// passes over the workload's input pool.  Latencies are each pool
// request's fastest pass; set-up is timed the same way, as a pool of
// kSetupSlots set-ups at the start of every pass.  --trace 1 runs the same seed twice, for
// S/2 seconds each: untraced, then with spans around every layer call,
// and reports the per-layer metrics plus the tracing overhead.  Layers
// the workload does not exercise are measured by a short traced probe
// of the workloads that do (kProbeRequests requests each: one serve
// block, so the serve probe sees a hit, a miss and a threads variant).
//
// stdout: one {"meta": ...} line, then the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the run completed (check "correct" for the outputs).
#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "generators.hpp"
#include "measure.hpp"
#include "photecc/math/hash.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-ups timed at the start of every pass, like a pool of requests:
/// each slot keeps its fastest pass, and setup_s is the median slot.
constexpr std::size_t kSetupSlots = 5;
constexpr std::size_t kProbeRequests = kServeBlock;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
  bool print_pins = false;
};

struct Loop {
  std::vector<double> latencies;  ///< every timed request, in run order
  std::vector<double> best;       ///< per pool item: its fastest pass
  std::set<std::size_t> failed;
};

/// Closed loop: request, stop the clock, check, repeat until `seconds`
/// of wall time have passed and the first pass over the pool is
/// complete.  Only the request itself is timed.
Loop run_loop(Workload& workload, double seconds, Tracer* tracer,
              std::size_t max_requests = ~std::size_t{0},
              const std::function<void()>& before_pass = {}) {
  Loop loop;
  const std::size_t pool = workload.pool_size();
  const double start = now_s();
  for (std::size_t i = 0;
       i < max_requests && (i < pool || now_s() - start < seconds); ++i) {
    if (i > 0 && i % pool == 0) {
      if (before_pass) before_pass();
      workload.start_pass();
    }
    bool ok = true;
    const double t0 = now_s();
    try {
      std::optional<Scope> root;  // parent of the request's layer spans
      if (tracer) root.emplace(tracer, "request", i);
      workload.request(i, tracer);
    } catch (const std::exception& e) {
      std::cerr << "request " << i << " threw: " << e.what() << "\n";
      ok = false;
    }
    const double latency = now_s() - t0;
    loop.latencies.push_back(latency);
    if (i < pool) loop.best.push_back(latency);
    else loop.best[i % pool] = std::min(loop.best[i % pool], latency);
    try {
      ok = ok && workload.check(i);
      if (tracer) workload.after_traced_request(i, *tracer);
    } catch (const std::exception& e) {
      std::cerr << "check of request " << i << " threw: " << e.what() << "\n";
      ok = false;
    }
    if (!ok) loop.failed.insert(i);
  }
  for (const std::size_t i : workload.verify(loop.latencies.size()))
    loop.failed.insert(i);
  return loop;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

int run(const Options& options) {
  const std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (!workload) {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  const double ref_before = ref_kernel_s();
  Metrics metrics;
  std::size_t attempted = 0, failed = 0;
  std::ostringstream extra;

  if (!options.trace) {
    reset_peak_rss();
    // Slot 0 of the first pass sets up the instance the loop runs on;
    // every other set-up is of a spare instance, destroyed untimed.
    std::vector<double> setups(kSetupSlots,
                               std::numeric_limits<double>::infinity());
    const auto time_setups = [&](Workload* first) {
      for (double& best : setups) {
        const auto time_setup = [&](Workload& w) {
          const double start = now_s();
          w.setup(options.seed);
          best = std::min(best, now_s() - start);
        };
        if (first) time_setup(*std::exchange(first, nullptr));
        else time_setup(*make_workload(options.workload));
      }
    };
    time_setups(workload.get());
    const Loop loop = run_loop(*workload, options.seconds, nullptr,
                               ~std::size_t{0}, [&] { time_setups(nullptr); });
    const double rss = peak_rss_mb();
    attempted = loop.latencies.size();
    failed = loop.failed.size();
    const Tail t = tail(loop.best);
    const double completed =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
    metrics["latency_p50_s"] = {median(loop.best), "s"};
    metrics["latency_tail_s"] = {t.value, "s"};
    metrics["requests_per_s"] = {
        completed * static_cast<double>(loop.best.size()) / sum(loop.best),
        "1/s"};
    metrics["setup_s"] = {median(setups), "s"};
    metrics["peak_rss_mb"] = {rss, "MB"};
    extra << ", \"pool\": " << loop.best.size() << ", \"passes\": "
          << json_number(static_cast<double>(attempted) /
                         static_cast<double>(loop.best.size()))
          << ", \"tail_percentile\": " << json_number(t.percentile)
          << ", \"tail_samples_beyond\": " << t.beyond
          << ", \"all_samples_latency_p50_s\": "
          << json_number(median(loop.latencies))
          << ", \"all_samples_requests_per_s\": "
          << json_number(static_cast<double>(attempted - failed) /
                         sum(loop.latencies));
  } else {
    workload->setup(options.seed);
    const Loop plain = run_loop(*workload, options.seconds / 2, nullptr);
    Tracer tracer(options.workload);
    workload->setup(options.seed);
    const Loop traced = run_loop(*workload, options.seconds / 2, &tracer);
    workload->layer_metrics(tracer, metrics);
    attempted = plain.latencies.size() + traced.latencies.size();
    failed = plain.failed.size() + traced.failed.size();

    std::vector<std::unique_ptr<Tracer>> probes;
    std::string probed;
    for (const std::string& name : workload_names()) {
      if (name == options.workload) continue;
      const std::unique_ptr<Workload> probe = make_workload(name);
      probes.push_back(std::make_unique<Tracer>(name + " (probe)"));
      probe->setup(options.seed);
      const Loop loop =
          run_loop(*probe, std::numeric_limits<double>::infinity(),
                   probes.back().get(), kProbeRequests);
      attempted += loop.latencies.size();
      failed += loop.failed.size();
      Metrics probe_metrics;
      probe->layer_metrics(*probes.back(), probe_metrics);
      for (const auto& [metric_name, metric] : probe_metrics)
        if (metrics.emplace(metric_name, metric).second)
          probed += (probed.empty() ? "\"" : ", \"") + metric_name + "\"";
    }

    const double p50_plain = median(plain.best);
    const double p50_traced = median(traced.best);
    metrics["trace.untraced_latency_p50_s"] = {p50_plain, "s"};
    metrics["trace.latency_p50_s"] = {p50_traced, "s"};
    metrics["trace.overhead_s"] = {p50_traced - p50_plain, "s"};
    extra << ", \"probed_metrics\": [" << probed << "]";

    if (!options.trace_out.empty()) {
      std::vector<const Tracer*> all{&tracer};
      for (const auto& p : probes) all.push_back(p.get());
      std::ofstream os(options.trace_out);
      write_chrome_trace(os, all);
      if (!os) std::cerr << "cannot write " << options.trace_out << "\n";
      extra << ", \"trace_file\": \"" << options.trace_out << "\"";
    }
  }

  const double ref_after = ref_kernel_s();
  if (options.trace)
    metrics["host.ref_kernel_s"] = {(ref_before + ref_after) / 2, "s"};

  const BuildInfo build = build_info();
  std::cout << "{\"meta\": {\"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << json_number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << build.compiler
            << "\", \"build_type\": \"" << build.build_type
            << "\", \"cxx_flags\": \"" << build.cxx_flags
            << "\", \"git_sha\": \"" << options.git_sha
            << "\", \"host_ref_kernel_s\": {\"before\": "
            << json_number(ref_before)
            << ", \"after\": " << json_number(ref_after) << "}"
            << ", \"samples\": " << attempted << extra.str() << "}}\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

int print_pins() {
  for (const auto& [csv, json] : sweep_export_hashes(kDefaultSeed))
    std::cout << "{0x" << photecc::math::hex64(csv) << "ULL, 0x"
              << photecc::math::hex64(json) << "ULL},\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = value() != "0";
      else if (arg == "--git-sha") options.git_sha = value();
      else if (arg == "--trace-out") options.trace_out = value();
      else if (arg == "--print-pins") options.print_pins = true;
      else throw std::invalid_argument("unknown argument " + arg);
    }
    if (options.print_pins) return print_pins();
    if (!(options.seconds > 0.0))
      throw std::invalid_argument("--seconds must be > 0");
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "photecc_perfbench: " << e.what() << "\n";
    return 2;
  }
}
