#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string_view>

#include "generators.hpp"
#include "photecc/channel_sim/monte_carlo.hpp"
#include "photecc/codec/batch_mc.hpp"
#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/explore/plan.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/math/rng.hpp"
#include "photecc/noc/network.hpp"
#include "photecc/noc/traffic.hpp"
#include "photecc/serve/service.hpp"
#include "photecc/spec/run.hpp"

namespace perfbench {

namespace explore = photecc::explore;
namespace spec = photecc::spec;
namespace math = photecc::math;

namespace {

/// Pinned (CSV, JSON) export hashes of the sweep-export pool for
/// kDefaultSeed (regenerate with `photecc_perfbench --print-pins`).
constexpr std::pair<std::uint64_t, std::uint64_t> kPinnedSweepHashes[] = {
#include "pinned_hashes.inc"
};

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : median(values);
}

void put(Metrics& out, const std::string& name, double value,
         const std::string& unit) {
  out[name] = Metric{value, unit};
}

/// Buffered byte sink: counts what is written and, optionally, folds
/// it into math::fnv1a64 — the stand-in for a file or socket.
class ByteSink final : public std::streambuf {
 public:
  explicit ByteSink(bool hash) : hash_(hash) {
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

  [[nodiscard]] std::size_t bytes() const {
    return flushed_ + static_cast<std::size_t>(pptr() - pbase());
  }
  [[nodiscard]] std::uint64_t hash() {
    drain();
    return fnv_;
  }

 protected:
  int_type overflow(int_type c) override {
    drain();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    const auto n = static_cast<std::size_t>(pptr() - pbase());
    if (hash_) fnv_ = math::fnv1a64(std::string_view(pbase(), n), fnv_);
    flushed_ += n;
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

  bool hash_;
  std::array<char, 1 << 16> buffer_{};
  std::size_t flushed_ = 0;
  std::uint64_t fnv_ = math::kFnv1a64OffsetBasis;
};

/// Sink that keeps the bytes (serve responses are checked after the
/// request); cleared, not freed, between requests.
class StringSink final : public std::streambuf {
 public:
  std::string text;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof()))
      text.push_back(traits_type::to_char_type(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    return n;
  }
};

// --- sweep-export ----------------------------------------------------

struct ExportOutcome {
  std::size_t cells = 0;
  std::size_t plan_size = 0;
  std::size_t csv_bytes = 0;
  std::size_t json_bytes = 0;
  std::size_t front = 0;
  std::uint64_t csv_hash = 0;
  std::uint64_t json_hash = 0;
  explore::SweepStats stats;
};

/// One sweep-export request, exactly the `explore_cli --config` path
/// with the exports going to byte sinks.
ExportOutcome run_export(const std::string& document, std::size_t threads,
                         bool hash, Tracer* tracer, std::size_t request) {
  ExportOutcome out;
  std::optional<spec::ExperimentSpec> experiment;
  {
    const Scope span(tracer, "spec.parse", request);
    experiment = spec::from_json(document);
  }
  {
    const Scope span(tracer, "spec.hash", request);
    spec::validate(*experiment);
    (void)spec::canonical_hash(*experiment);
  }
  std::unique_ptr<explore::LoweredPlan> plan;
  {
    const Scope span(tracer, "explore.lower", request);
    plan = std::make_unique<explore::LoweredPlan>(spec::lower(*experiment));
  }
  explore::ExperimentResult result;
  {
    const Scope span(tracer, "explore.execute", request);
    result = plan->execute(threads);
  }
  ByteSink csv(hash);
  ByteSink json(hash);
  {
    const Scope span(tracer, "explore.csv", request);
    std::ostream os(&csv);
    result.write_csv(os);
    os.flush();
  }
  {
    const Scope span(tracer, "explore.json", request);
    std::ostream os(&json);
    result.write_json(os);
    os.flush();
  }
  {
    const Scope span(tracer, "explore.pareto", request);
    out.front = result.pareto_front(spec::lower_objectives(*experiment)).size();
  }
  out.cells = result.cells.size();
  out.plan_size = plan->size();
  out.csv_bytes = csv.bytes();
  out.json_bytes = json.bytes();
  out.csv_hash = csv.hash();
  out.json_hash = json.hash();
  if (result.stats) out.stats = *result.stats;
  return out;
}

bool same_export(const ExportOutcome& a, const ExportOutcome& b) {
  return a.cells == b.cells && a.csv_bytes == b.csv_bytes &&
         a.json_bytes == b.json_bytes && a.front == b.front;
}

class SweepExport final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    inputs_ = make_sweep_inputs(seed);
    first_.assign(inputs_.size(), std::nullopt);
    traced_.clear();
    traced_docs_.clear();
    (void)run_export(make_sweep_input(seed, kSweepPoolSize).document, 1,
                     false, nullptr, 0);
  }

  std::size_t pool_size() const override { return inputs_.size(); }

  void request(std::size_t index, Tracer* tracer) override {
    const SweepInput& input = inputs_[index % inputs_.size()];
    last_ = run_export(input.document, 1, false, tracer, index);
    if (tracer) {
      traced_.push_back(last_);
      traced_docs_.push_back(static_cast<double>(input.document.size()));
    }
  }

  bool check(std::size_t index) override {
    const std::size_t k = index % inputs_.size();
    if (last_.cells != inputs_[k].cells || last_.plan_size != inputs_[k].cells)
      return false;
    if (!first_[k]) first_[k] = last_;
    return same_export(*first_[k], last_);
  }

  std::vector<std::size_t> verify(std::size_t count) override {
    std::vector<bool> bad(inputs_.size(), false);
    // One request re-executed untimed at 1 and 2 threads: same hashes.
    const std::size_t probe = count > 1 ? 1 : 0;
    const ExportOutcome one =
        run_export(inputs_[probe].document, 1, true, nullptr, 0);
    const ExportOutcome two =
        run_export(inputs_[probe].document, 2, true, nullptr, 0);
    if (!first_[probe] || !same_export(*first_[probe], one) ||
        one.csv_hash != two.csv_hash || one.json_hash != two.json_hash) {
      std::cerr << "sweep-export: 1- vs 2-thread re-execution differs\n";
      bad[probe] = true;
    }
    // Default seed: every executed pool request hashes as pinned.
    if (seed_ == kDefaultSeed) {
      for (std::size_t k = 0; k < inputs_.size(); ++k) {
        if (!first_[k]) continue;
        const ExportOutcome again =
            run_export(inputs_[k].document, 1, true, nullptr, 0);
        const bool pinned =
            k < std::size(kPinnedSweepHashes) &&
            kPinnedSweepHashes[k] ==
                std::make_pair(again.csv_hash, again.json_hash);
        if (!pinned || !same_export(*first_[k], again)) {
          std::cerr << "sweep-export: request " << k
                    << " export hash differs from the pinned value\n";
          bad[k] = true;
        }
      }
    }
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < count; ++i)
      if (bad[i % inputs_.size()]) failed.push_back(i);
    return failed;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) override {
    std::vector<double> cells, csv_bytes, json_bytes, front, channels, solves,
        iterations;
    explore::SweepStats merged;
    for (const ExportOutcome& o : traced_) {
      cells.push_back(static_cast<double>(o.cells));
      csv_bytes.push_back(static_cast<double>(o.csv_bytes));
      json_bytes.push_back(static_cast<double>(o.json_bytes));
      front.push_back(static_cast<double>(o.front));
      channels.push_back(static_cast<double>(o.stats.channels_lowered));
      solves.push_back(static_cast<double>(o.stats.root_solves));
      iterations.push_back(static_cast<double>(o.stats.solver_iterations));
      merged.merge(o.stats);
    }
    const auto self = [&](const char* name) {
      return median_or_zero(tracer.self_per_request(name));
    };
    put(out, "spec.parse_s", self("spec.parse"), "s");
    put(out, "spec.hash_s", self("spec.hash"), "s");
    put(out, "spec.doc_bytes", mean(traced_docs_), "bytes");
    put(out, "explore.lower_s", self("explore.lower"), "s");
    put(out, "explore.channels_lowered", mean(channels), "count");
    put(out, "explore.root_solves", mean(solves), "count");
    put(out, "explore.solver_iterations", mean(iterations), "count");
    put(out, "explore.warm_hit_rate", merged.warm_hit_rate(), "ratio");
    put(out, "explore.execute_s", self("explore.execute"), "s");
    put(out, "explore.cells", mean(cells), "count");
    const double execute_total = tracer.self_total("explore.execute");
    put(out, "explore.cells_per_s",
        execute_total > 0 ? static_cast<double>(merged.cells) / execute_total
                          : 0.0,
        "1/s");
    put(out, "explore.execute_speedup_2t", execute_speedup_2t(), "ratio");
    put(out, "explore.csv_s", self("explore.csv"), "s");
    put(out, "explore.csv_bytes", mean(csv_bytes), "bytes");
    put(out, "explore.json_s", self("explore.json"), "s");
    put(out, "explore.json_bytes", mean(json_bytes), "bytes");
    put(out, "explore.pareto_s", self("explore.pareto"), "s");
    put(out, "explore.front_size", mean(front), "count");
  }

 private:
  /// execute(1) time over execute(2) time on the median-size pool spec
  /// (median of three executions each).
  [[nodiscard]] double execute_speedup_2t() const {
    const explore::LoweredPlan plan(
        spec::lower(spec::from_json(inputs_[1].document)));
    const auto time = [&](std::size_t threads) {
      std::vector<double> times;
      for (int rep = 0; rep < 3; ++rep) {
        const double start = now_s();
        (void)plan.execute(threads);
        times.push_back(now_s() - start);
      }
      return median(times);
    };
    const double one = time(1);
    return one / time(2);
  }

  std::uint64_t seed_ = kDefaultSeed;
  std::vector<SweepInput> inputs_;
  std::vector<std::optional<ExportOutcome>> first_;
  ExportOutcome last_;
  std::vector<ExportOutcome> traced_;
  std::vector<double> traced_docs_;
};

// --- serve-session ---------------------------------------------------

/// Blocks in the request stream: one pass, ~2 s at threads = 1, so a
/// run repeats it several times.  Every pass starts on a new service,
/// so it meets the cache in the state the first pass did.
constexpr std::size_t kServeStreamBlocks = 48;

struct ServeRecord {
  ServeKind kind = ServeKind::kFresh;
  bool hit = false;
  std::size_t bytes = 0;
  explore::SweepStats delta;  ///< ServeStats::sweep change over the request
};

explore::SweepStats stats_delta(const explore::SweepStats& after,
                                const explore::SweepStats& before) {
  explore::SweepStats d;
  d.cells = after.cells - before.cells;
  d.channels_lowered = after.channels_lowered - before.channels_lowered;
  d.root_solves = after.root_solves - before.root_solves;
  d.solver_iterations = after.solver_iterations - before.solver_iterations;
  d.warm_reuses = after.warm_reuses - before.warm_reuses;
  d.lower_time_s = after.lower_time_s - before.lower_time_s;
  d.execute_time_s = after.execute_time_s - before.execute_time_s;
  return d;
}

std::uint64_t combine(std::uint64_t h, std::string_view piece) {
  const std::uint64_t x = std::hash<std::string_view>{}(piece);
  return (h ^ (x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2))) *
         0x100000001b3ULL;
}

/// Reads the unsigned number after `key` in `line` (nullopt if absent).
std::optional<std::size_t> field(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t value = 0;
  std::size_t i = at + key.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i)
    value = value * 10 + static_cast<std::size_t>(line[i] - '0');
  return value;
}

class ServeSession final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    stream_ = make_serve_stream(seed, kServeStreamBlocks);
    warmup_line_ = make_serve_warmup_line(seed);
    first_hash_.clear();
    traced_.clear();
    service_.reset();
    evictions_ = 0;
    start_pass();
  }

  std::size_t pool_size() const override { return stream_.size(); }

  /// A new service, warmed up by the request outside the stream.
  void start_pass() override {
    if (service_) evictions_ += service_->cache().evictions();
    service_ = std::make_unique<photecc::serve::Service>(
        photecc::serve::ServiceOptions{.threads = 1});
    sink_.text.clear();
    std::ostream os(&sink_);
    (void)service_->handle_line(warmup_line_, os);
  }

  void request(std::size_t index, Tracer* tracer) override {
    const ServeRequest& r = stream_[index % stream_.size()];
    std::optional<photecc::serve::ServeStats> before;
    if (tracer) before = service_->stats();
    sink_.text.clear();
    {
      const Scope span(tracer, "serve.request", index);
      std::ostream os(&sink_);
      (void)service_->handle_line(r.line, os);
    }
    if (before) {
      const photecc::serve::ServeStats& after = service_->stats();
      ServeRecord record;
      record.kind = r.kind;
      record.hit = after.cache_hits > before->cache_hits;
      record.bytes = sink_.text.size();
      record.delta = stats_delta(after.sweep, before->sweep);
      traced_.push_back(record);
    }
  }

  bool check(std::size_t index) override {
    const ServeRequest& r = stream_[index % stream_.size()];
    std::uint64_t hash = 0;
    if (!well_formed(r, hash)) return false;
    const auto [it, inserted] = first_hash_.emplace(r.spec_index, hash);
    return inserted ? r.kind == ServeKind::kFresh : it->second == hash;
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) override {
    const std::vector<double> latency = tracer.self_per_request("serve.request");
    std::vector<double> hit_latency, miss_latency, lower, execute, frame,
        bytes, channels, solves, iterations;
    std::size_t hits = 0, variant_misses = 0;
    explore::SweepStats misses_merged;
    for (std::size_t i = 0; i < traced_.size() && i < latency.size(); ++i) {
      const ServeRecord& r = traced_[i];
      bytes.push_back(static_cast<double>(r.bytes));
      if (r.hit) {
        ++hits;
        hit_latency.push_back(latency[i]);
        continue;
      }
      if (r.kind == ServeKind::kThreadsVariant) ++variant_misses;
      miss_latency.push_back(latency[i]);
      lower.push_back(r.delta.lower_time_s);
      execute.push_back(r.delta.execute_time_s);
      frame.push_back(latency[i] - r.delta.lower_time_s -
                      r.delta.execute_time_s);
      channels.push_back(static_cast<double>(r.delta.channels_lowered));
      solves.push_back(static_cast<double>(r.delta.root_solves));
      iterations.push_back(static_cast<double>(r.delta.solver_iterations));
      misses_merged.merge(r.delta);
    }
    const double n = static_cast<double>(traced_.size());
    put(out, "serve.hit_ratio", n > 0 ? static_cast<double>(hits) / n : 0.0,
        "ratio");
    put(out, "serve.cache_hits", static_cast<double>(hits), "count");
    put(out, "serve.cache_misses", static_cast<double>(miss_latency.size()),
        "count");
    put(out, "serve.threads_variant_misses",
        static_cast<double>(variant_misses), "count");
    put(out, "serve.evictions",
        static_cast<double>(evictions_ + service_->cache().evictions()),
        "count");
    put(out, "serve.cache_bytes",
        static_cast<double>(service_->cache().size_bytes()), "bytes");
    put(out, "serve.hit_latency_p50_s", median_or_zero(hit_latency), "s");
    put(out, "serve.miss_latency_p50_s", median_or_zero(miss_latency), "s");
    put(out, "serve.lower_s", median_or_zero(lower), "s");
    put(out, "serve.execute_s", median_or_zero(execute), "s");
    put(out, "serve.frame_s", median_or_zero(frame), "s");
    put(out, "serve.bytes_out", mean(bytes), "bytes");
    // The lowering layer as the service drives it (misses only).
    put(out, "explore.lower_s", median_or_zero(lower), "s");
    put(out, "explore.channels_lowered", mean(channels), "count");
    put(out, "explore.root_solves", mean(solves), "count");
    put(out, "explore.solver_iterations", mean(iterations), "count");
    put(out, "explore.warm_hit_rate", misses_merged.warm_hit_rate(), "ratio");
  }

 private:
  /// Header, cells records covering the whole grid in order, a done
  /// record, nothing else; `hash` gets the response with ids and the
  /// header's spec hash stripped.
  bool well_formed(const ServeRequest& r, std::uint64_t& hash) const {
    const std::string expected_hash =
        ",\"spec_hash\":\"" + math::hex64(r.spec_hash) + '"';
    std::string_view text = sink_.text;
    std::size_t covered = 0;
    bool header = false, done = false;
    hash = 0;
    while (!text.empty()) {
      const std::size_t eol = text.find('\n');
      if (eol == std::string_view::npos || done) return false;
      std::string_view line = text.substr(0, eol);
      text.remove_prefix(eol + 1);
      std::string_view kind;
      for (const std::string_view k : {"header", "cells", "done"}) {
        const std::string prefix = "{\"kind\":\"" + std::string(k) +
                                   "\",\"id\":\"" + r.id + '"';
        if (line.substr(0, prefix.size()) == prefix) {
          kind = k;
          line.remove_prefix(prefix.size());
          break;
        }
      }
      if (kind.empty()) return false;  // error record or foreign id
      hash = combine(hash, kind);
      if (kind == "header") {
        if (header || line.substr(0, expected_hash.size()) != expected_hash)
          return false;
        line.remove_prefix(expected_hash.size());
        if (field(line, ",\"cells\":") != r.cells) return false;
        header = true;
      } else if (kind == "cells") {
        if (!header || field(line, ",\"begin\":") != covered) return false;
        const std::optional<std::size_t> end = field(line, ",\"end\":");
        if (!end || *end <= covered) return false;
        covered = *end;
      } else {
        if (!header || field(line, ",\"cells\":") != r.cells ||
            covered != r.cells)
          return false;
        done = true;
      }
      hash = combine(hash, line);
    }
    return done;
  }

  std::vector<ServeRequest> stream_;
  std::string warmup_line_;
  std::unique_ptr<photecc::serve::Service> service_;
  std::size_t evictions_ = 0;  ///< of the services of earlier passes
  StringSink sink_;
  std::map<std::size_t, std::uint64_t> first_hash_;
  std::vector<ServeRecord> traced_;
};

// --- noc-network -----------------------------------------------------

/// Injection rate per shared channel; the hotspot generator adds
/// kNocHotspotShare of the total, half of it aimed at the hot tile.
constexpr double kNocRatePerChannel = 5e6;
constexpr double kNocHotspotShare = 0.1;
constexpr std::uint64_t kNocPayloadBits = 4096;
constexpr std::size_t kNocOniCount = 16;
/// Requests in the traffic-seed pool (one pass, ~2 s); a power of two,
/// so one pass stratifies the message-count range exactly.
constexpr std::size_t kNocPool = 64;

struct NocTileRecord {
  std::size_t messages = 0;
  photecc::noc::NocStats stats;
};

class NocNetwork final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    const NocRecipe recipe = make_noc_recipe(seed);
    inputs_.clear();
    for (std::size_t i = 0; i < kNocPool; ++i)
      inputs_.push_back(make_noc_input(seed, i));
    tiles_.clear();
    for (std::size_t t = 0; t < std::size(kNocTileCounts); ++t)
      tiles_.push_back(make_tile(kNocTileCounts[t], recipe.hotspot_tiles[t]));
    traced_.clear();
    (void)study(make_noc_input(seed, kNocWarmupIndex), nullptr, 0);
  }

  std::size_t pool_size() const override { return inputs_.size(); }

  void request(std::size_t index, Tracer* tracer) override {
    last_ = study(inputs_[index % inputs_.size()], tracer, index);
    if (tracer) traced_.push_back(last_);
  }

  bool check(std::size_t index) override {
    (void)index;
    for (const NocTileRecord& r : last_)
      if (r.stats.delivered + r.stats.dropped != r.messages ||
          r.stats.delivered == 0)
        return false;
    return last_.size() == tiles_.size();
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) override {
    put(out, "noc.generate_s",
        median_or_zero(tracer.self_per_request("noc.generate")), "s");
    double messages = 0, delivered = 0, dropped = 0, thermal = 0, recal = 0;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const std::string suffix = ".t" + std::to_string(kNocTileCounts[t]);
      put(out, "noc.run_s" + suffix,
          median_or_zero(tracer.self_per_request("noc.run" + suffix)), "s");
      double tile_messages = 0;
      for (const auto& request : traced_) {
        const NocTileRecord& r = request[t];
        tile_messages += static_cast<double>(r.messages);
        delivered += static_cast<double>(r.stats.delivered);
        dropped += static_cast<double>(r.stats.dropped);
        thermal += static_cast<double>(r.stats.dropped_thermal);
        recal += static_cast<double>(r.stats.recalibrations);
      }
      messages += tile_messages;
      const double run_total = tracer.self_total("noc.run" + suffix);
      put(out, "noc.msgs_per_s" + suffix,
          run_total > 0 ? tile_messages / run_total : 0.0, "1/s");
    }
    const double n = std::max<double>(1.0, static_cast<double>(traced_.size()));
    put(out, "noc.messages", messages / n, "count");
    put(out, "noc.delivered", delivered / n, "count");
    put(out, "noc.dropped", dropped / n, "count");
    put(out, "noc.dropped_thermal", thermal / n, "count");
    put(out, "noc.recalibrations", recal / n, "count");
    put(out, "noc.delivered_ratio", messages > 0 ? delivered / messages : 0.0,
        "ratio");
  }

 private:
  struct Tile {
    std::unique_ptr<photecc::noc::NetworkSimulator> simulator;
    std::unique_ptr<photecc::noc::MixedTraffic> traffic;
    double rate = 0.0;  ///< aggregate injection rate [msgs/s]
  };

  static Tile make_tile(std::size_t tiles, std::size_t hotspot) {
    namespace noc = photecc::noc;
    const std::size_t channels = std::max<std::size_t>(4, tiles / 16);
    noc::NetworkConfig config;
    config.topology.tile_count = tiles;
    config.topology.channel_count = channels;
    noc::NetworkChannelConfig channel;
    channel.oni_count = kNocOniCount;
    config.channels.assign(channels, channel);
    const double rate = kNocRatePerChannel * static_cast<double>(channels);
    Tile tile;
    tile.rate = rate;
    tile.simulator = std::make_unique<noc::NetworkSimulator>(config);
    tile.traffic = std::make_unique<noc::MixedTraffic>(
        std::vector<std::shared_ptr<const noc::TrafficGenerator>>{
            std::make_shared<noc::UniformRandomTraffic>(
                tiles, rate * (1.0 - kNocHotspotShare), kNocPayloadBits),
            std::make_shared<noc::HotspotTraffic>(
                tiles, rate * kNocHotspotShare, kNocPayloadBits, hotspot,
                0.5)});
    return tile;
  }

  /// Every tile count simulates about `in.messages` messages: the
  /// horizon is that over the tile count's aggregate injection rate.
  std::vector<NocTileRecord> study(const NocInput& in, Tracer* tracer,
                                   std::size_t request) const {
    std::vector<NocTileRecord> out;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const Tile& tile = tiles_[t];
      const double horizon_s = in.messages / tile.rate;
      std::vector<photecc::noc::Message> schedule;
      {
        const Scope span(tracer, "noc.generate", request);
        schedule = tile.traffic->generate(horizon_s, in.traffic_seeds[t]);
      }
      NocTileRecord record;
      record.messages = schedule.size();
      {
        const Scope span(tracer,
                         "noc.run.t" + std::to_string(kNocTileCounts[t]),
                         request);
        record.stats =
            tile.simulator->run(std::move(schedule), horizon_s)
                .stats.aggregate;
      }
      out.push_back(std::move(record));
    }
    return out;
  }

  std::vector<NocInput> inputs_;
  std::vector<Tile> tiles_;
  std::vector<NocTileRecord> last_;
  std::vector<std::vector<NocTileRecord>> traced_;
};

// --- mc-ber ----------------------------------------------------------

struct McCode {
  const char* name;
  const char* key;       ///< metric-name form
  std::uint64_t blocks;  ///< codewords per pass
  bool cross_checked;    ///< analytic model cross-checked by the MC tests
};

constexpr McCode kMcMenu[] = {
    {"H(7,4)", "h7_4", 131072, true},
    {"H(71,64)", "h71_64", 32768, false},
    {"eH(64,57)", "eh64_57", 32768, false},
    {"REP(3,1)", "rep3_1", 524288, true},
    {"BCH(15,7,2)", "bch15_7_2", 65536, true},
    {"BCH(15,5,3)", "bch15_5_3", 65536, false},
    {"COOL(BCH(15,7,2),3)", "cool_bch15_7_2_w3", 16384, false},
};
constexpr std::uint64_t kMcEndToEndWords = 32768;
constexpr std::size_t kMcWordBits = 64;
/// One-sided tail probability of the consistency interval's limits.
constexpr double kMcTailProbability = 1e-6;
/// Slabs of 64 codewords per code in the traced codec-kernel timing.
constexpr std::size_t kCodecSlabs = 32;
/// BER-validation passes in the input pool (one pool pass, ~2 s); a
/// power of two, so one pool pass stratifies the raw-BER range exactly.
constexpr std::size_t kMcPool = 128;

/// P(X <= x) for X ~ Poisson(lambda).
double poisson_cdf(std::uint64_t x, double lambda) {
  double sum = 0.0;
  for (std::uint64_t i = 0; i <= x; ++i) {
    const double n = static_cast<double>(i);
    sum += std::exp(-lambda + n * std::log(lambda) - std::lgamma(n + 1.0));
  }
  return std::min(1.0, sum);
}

/// The lambda at which poisson_cdf(x, lambda) == target (bisection;
/// the CDF falls as lambda grows).
double poisson_quantile(std::uint64_t x, double target) {
  double lo = 0.0;
  double hi = 50.0 + 4.0 * static_cast<double>(x);
  for (int i = 0; i < 60; ++i) {
    const double mid = (lo + hi) / 2;
    (poisson_cdf(x, mid) > target ? lo : hi) = mid;
  }
  return (lo + hi) / 2;
}

/// Whether the analytic decoded BER is consistent with a measurement of
/// `blocks` codewords of `k` message bits.  Decoding errors cluster: a
/// failed block corrupts between 1 and k message bits, so a bit-level
/// binomial interval is far too narrow when errors are rare.  The
/// interval here takes the fewest failed blocks that can explain the
/// errors, f = ceil(errors / k), each corrupting errors / f bits, and
/// bounds the failure count with exact Poisson limits at
/// kMcTailProbability per side (fewer events only widen the interval).
/// It is then widened by the factor-3 band the Monte-Carlo tests allow
/// Eq. 2.
bool consistent(const photecc::channel_sim::BerMeasurement& m,
                std::uint64_t blocks, std::size_t k) {
  const double bits = static_cast<double>(blocks) * static_cast<double>(k);
  const std::uint64_t f = (m.bit_errors + k - 1) / k;
  const double per_block =
      f == 0 ? static_cast<double>(k)
             : static_cast<double>(m.bit_errors) / static_cast<double>(f);
  const double lower =
      f == 0 ? 0.0
             : poisson_quantile(f - 1, 1.0 - kMcTailProbability) * per_block /
                   bits;
  const double upper =
      poisson_quantile(f, kMcTailProbability) * per_block / bits;
  return m.analytic_ber >= lower / 3.0 && m.analytic_ber <= upper * 3.0;
}

struct McPass {
  std::vector<std::uint64_t> errors;  ///< per menu code, then end-to-end
  bool consistent = true;
};

class McBer final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    photecc::cooling::register_cooling_codes();
    codes_.clear();
    for (const McCode& c : kMcMenu) codes_.push_back(photecc::ecc::make_code(c.name));
    end_to_end_code_ = photecc::ecc::make_code("H(71,64)");
    inputs_.clear();
    for (std::size_t i = 0; i < kMcPool; ++i)
      inputs_.push_back(make_mc_input(seed, i));
    first_.reset();
    kernel_bits_.assign(std::size(kMcMenu), KernelBits{});
    traced_blocks_.assign(std::size(kMcMenu), 0);
    traced_words_ = 0;
    (void)pass(make_mc_input(seed, kMcWarmupIndex), nullptr, 0);
  }

  std::size_t pool_size() const override { return inputs_.size(); }

  void request(std::size_t index, Tracer* tracer) override {
    last_ = pass(inputs_[index % inputs_.size()], tracer, index);
    if (index == 0) first_ = last_;
    if (tracer) {
      for (std::size_t c = 0; c < std::size(kMcMenu); ++c)
        traced_blocks_[c] += kMcMenu[c].blocks;
      traced_words_ += kMcEndToEndWords;
    }
  }

  bool check(std::size_t index) override {
    (void)index;
    return last_.consistent;
  }

  std::vector<std::size_t> verify(std::size_t count) override {
    if (count == 0 || !first_) return {};
    if (pass(inputs_[0], nullptr, 0).errors == first_->errors) return {};
    std::cerr << "mc-ber: repeated seed did not reproduce the error counts\n";
    return {0};
  }

  void after_traced_request(std::size_t index, Tracer& tracer) override {
    const McInput& in = inputs_[index % inputs_.size()];
    const Scope root(&tracer, "codec.kernels", index);
    for (std::size_t c = 0; c < codes_.size(); ++c) {
      const photecc::ecc::BlockCode& code = *codes_[c];
      math::Xoshiro256 rng(math::derive_seed(in.mc_seed, 1000 + c));
      std::vector<photecc::codec::BitSlab> slabs;
      for (std::size_t s = 0; s < kCodecSlabs; ++s)
        slabs.push_back(photecc::codec::random_message_slab(
            code.message_length(), photecc::codec::BitSlab::kLanes, rng));
      {
        const Scope span(&tracer, std::string("codec.encode.") + kMcMenu[c].key,
                         index);
        for (auto& slab : slabs) slab = code.encode_batch(slab);
      }
      {
        const Scope span(&tracer, "codec.inject", index);
        for (auto& slab : slabs)
          photecc::codec::inject_errors(slab, in.raw_ber, rng);
      }
      std::uint64_t dirty = 0;
      {
        const Scope span(&tracer, std::string("codec.decode.") + kMcMenu[c].key,
                         index);
        for (const auto& slab : slabs) {
          const photecc::ecc::BatchDecodeResult r = code.decode_batch(slab);
          dirty += static_cast<std::uint64_t>(
              std::popcount(r.error_detected | r.corrected));
        }
      }
      KernelBits& bits = kernel_bits_[c];
      const double lanes = static_cast<double>(kCodecSlabs *
                                               photecc::codec::BitSlab::kLanes);
      bits.message += lanes * static_cast<double>(code.message_length());
      bits.wire += lanes * static_cast<double>(code.block_length());
      bits.lanes += lanes;
      bits.dirty += static_cast<double>(dirty);
    }
  }

  void layer_metrics(const Tracer& tracer, Metrics& out) override {
    for (std::size_t c = 0; c < std::size(kMcMenu); ++c) {
      const std::string key = kMcMenu[c].key;
      const KernelBits& bits = kernel_bits_[c];
      const double encode = tracer.self_total("codec.encode." + key);
      const double decode = tracer.self_total("codec.decode." + key);
      const double measure = tracer.self_total("channel_sim." + key);
      put(out, "codec.encode_gbps." + key,
          encode > 0 ? bits.message / encode / 1e9 : 0.0, "Gbit/s");
      put(out, "codec.decode_gbps." + key,
          decode > 0 ? bits.wire / decode / 1e9 : 0.0, "Gbit/s");
      put(out, "codec.dirty_lane_ratio." + key,
          bits.lanes > 0 ? bits.dirty / bits.lanes : 0.0, "ratio");
      put(out, "channel_sim.blocks_per_s." + key,
          measure > 0 ? static_cast<double>(traced_blocks_[c]) / measure : 0.0,
          "1/s");
    }
    put(out, "codec.inject_s",
        median_or_zero(tracer.self_per_request("codec.inject")), "s");
    const double words = tracer.self_total("interface.end_to_end");
    put(out, "interface.words_per_s",
        words > 0 ? static_cast<double>(traced_words_) / words : 0.0, "1/s");
  }

 private:
  struct KernelBits {
    double message = 0, wire = 0, lanes = 0, dirty = 0;
  };

  McPass pass(const McInput& in, Tracer* tracer, std::size_t request) const {
    McPass out;
    photecc::channel_sim::MonteCarloOptions options;
    for (std::size_t c = 0; c < codes_.size(); ++c) {
      options.seed = math::derive_seed(in.mc_seed, c);
      photecc::channel_sim::BerMeasurement m;
      {
        const Scope span(tracer, std::string("channel_sim.") + kMcMenu[c].key,
                         request);
        m = photecc::channel_sim::measure_coded_ber_batch(
            *codes_[c], in.snr, kMcMenu[c].blocks, options);
      }
      out.errors.push_back(m.bit_errors);
      if (kMcMenu[c].cross_checked &&
          !consistent(m, kMcMenu[c].blocks, codes_[c]->message_length()))
        out.consistent = false;
    }
    options.seed = math::derive_seed(in.mc_seed, codes_.size());
    photecc::channel_sim::BerMeasurement e;
    {
      const Scope span(tracer, "interface.end_to_end", request);
      e = photecc::channel_sim::measure_end_to_end_ber_batch(
          end_to_end_code_, in.snr, kMcEndToEndWords, kMcWordBits, options);
    }
    out.errors.push_back(e.bit_errors);
    if (e.bits != kMcEndToEndWords * kMcWordBits) out.consistent = false;
    return out;
  }

  std::vector<photecc::ecc::BlockCodePtr> codes_;
  photecc::ecc::BlockCodePtr end_to_end_code_;
  std::vector<McInput> inputs_;
  McPass last_;
  std::optional<McPass> first_;
  std::vector<KernelBits> kernel_bits_;
  std::vector<std::uint64_t> traced_blocks_;
  std::uint64_t traced_words_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep-export", "serve-session", "noc-network", "mc-ber"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sweep-export") return std::make_unique<SweepExport>();
  if (name == "serve-session") return std::make_unique<ServeSession>();
  if (name == "noc-network") return std::make_unique<NocNetwork>();
  if (name == "mc-ber") return std::make_unique<McBer>();
  return nullptr;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> sweep_export_hashes(
    std::uint64_t seed) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const SweepInput& input : make_sweep_inputs(seed)) {
    const ExportOutcome o = run_export(input.document, 1, true, nullptr, 0);
    out.emplace_back(o.csv_hash, o.json_hash);
  }
  return out;
}

}  // namespace perfbench
