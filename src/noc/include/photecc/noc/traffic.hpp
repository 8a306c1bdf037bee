// Traffic generation for the ONoC simulator: uniform random, hotspot,
// periodic streaming, phase-based application traces and file-driven
// message timelines — the workloads the paper's introduction motivates
// (real-time + multimedia mixes on a many-core).
//
// Generators address tiles: message sources and destinations are tile
// indices.  NetworkSimulator routes each message to the destination
// tile's home channel (see network.hpp); in the paper's
// one-channel-per-ONI topology tile == ONI == channel.
#ifndef PHOTECC_NOC_TRAFFIC_HPP
#define PHOTECC_NOC_TRAFFIC_HPP

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "photecc/math/rng.hpp"
#include "photecc/noc/message.hpp"

namespace photecc::noc {

/// Generates the complete arrival schedule for one simulation run.
///
/// Seed-derivation contract: `generate(horizon, seed)` is a pure
/// function of its arguments.  A composite generator (PhaseTraceTraffic,
/// MixedTraffic, or any user-written wrapper) MUST derive the seed for
/// child k as math::derive_seed(seed, k) — never seed+k or another
/// arithmetic neighbour.  Arithmetic offsets collide across siblings
/// and nesting depths (the k-th child of seed s and the (k-1)-th child
/// of seed s+1 would replay identical RNG streams); the splitmix64
/// mixer keeps every (seed, child index) pair decorrelated.
class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// All messages with creation_time_s < horizon_s, sorted by time.
  [[nodiscard]] virtual std::vector<Message> generate(
      double horizon_s, std::uint64_t seed) const = 0;
};

/// Poisson arrivals, uniformly random source/destination tile pairs.
class UniformRandomTraffic final : public TrafficGenerator {
 public:
  /// `rate_msgs_per_s`: aggregate injection rate over the whole NoC.
  UniformRandomTraffic(std::size_t tile_count, double rate_msgs_per_s,
                       std::uint64_t payload_bits,
                       TrafficClass cls = TrafficClass::kBestEffort,
                       double target_ber = 1e-9);

  [[nodiscard]] std::string name() const override { return "uniform"; }
  [[nodiscard]] std::vector<Message> generate(
      double horizon_s, std::uint64_t seed) const override;

  [[nodiscard]] double target_ber() const noexcept { return target_ber_; }

 private:
  std::size_t tile_count_;
  double rate_;
  std::uint64_t payload_bits_;
  TrafficClass class_;
  double target_ber_;
};

/// Like uniform, but a fraction of the traffic targets one hot tile
/// (e.g. a memory controller).
class HotspotTraffic final : public TrafficGenerator {
 public:
  HotspotTraffic(std::size_t tile_count, double rate_msgs_per_s,
                 std::uint64_t payload_bits, std::size_t hotspot,
                 double hotspot_fraction);

  [[nodiscard]] std::string name() const override { return "hotspot"; }
  [[nodiscard]] std::vector<Message> generate(
      double horizon_s, std::uint64_t seed) const override;

 private:
  std::size_t tile_count_;
  double rate_;
  std::uint64_t payload_bits_;
  std::size_t hotspot_;
  double hotspot_fraction_;
};

/// Periodic multimedia-like streams: fixed-size frames from fixed
/// producers to fixed consumers with per-frame deadlines.
class StreamingTraffic final : public TrafficGenerator {
 public:
  struct Stream {
    std::size_t source = 0;
    std::size_t destination = 0;
    double period_s = 1e-6;
    std::uint64_t frame_bits = 64 * 1024;
    /// Deadline as a fraction of the period.
    double deadline_fraction = 1.0;
    TrafficClass cls = TrafficClass::kMultimedia;
  };

  explicit StreamingTraffic(std::vector<Stream> streams);

  [[nodiscard]] std::string name() const override { return "streaming"; }
  [[nodiscard]] std::vector<Message> generate(
      double horizon_s, std::uint64_t seed) const override;

 private:
  std::vector<Stream> streams_;
};

/// Phase-based synthetic application trace: a cyclic sequence of
/// (duration, generator) phases, e.g. compute (light uniform) then
/// communicate (heavy all-to-all).
class PhaseTraceTraffic final : public TrafficGenerator {
 public:
  struct Phase {
    double duration_s = 1e-6;
    std::shared_ptr<const TrafficGenerator> generator;
  };

  explicit PhaseTraceTraffic(std::vector<Phase> phases);

  [[nodiscard]] std::string name() const override { return "phase-trace"; }
  [[nodiscard]] std::vector<Message> generate(
      double horizon_s, std::uint64_t seed) const override;

 private:
  std::vector<Phase> phases_;
};

/// Message timeline read from a trace file — replayed measurements or
/// externally generated workloads.
///
/// Trace format (one message per line, whitespace-separated):
///
///     # comment — '#' lines and blank lines are ignored
///     <time_s> <source> <destination> <payload_bits> [class] [deadline_s]
///
/// where `time_s` is the creation time in seconds (>= 0, any order —
/// the trace is sorted on load), `source`/`destination` are tile
/// indices (self-loops rejected), `payload_bits` > 0, `class` is one of
/// `rt`/`real-time`, `mm`/`multimedia`, `be`/`best-effort` (default
/// `be`), and `deadline_s` is an optional absolute deadline.  A
/// deadline requires the class column.  See examples/traces/ for a
/// sample.
class TraceTraffic final : public TrafficGenerator {
 public:
  /// Parses the trace format from `in`; `origin` names the source in
  /// parse errors (std::invalid_argument, with a line number).
  [[nodiscard]] static TraceTraffic parse(std::istream& in,
                                          const std::string& origin = "trace");

  /// Reads and parses `path`; std::runtime_error when unreadable.
  [[nodiscard]] static TraceTraffic from_file(const std::string& path);

  /// Adopts an in-memory timeline (sorted on construction, ids
  /// renumbered in time order).
  explicit TraceTraffic(std::vector<Message> messages);

  [[nodiscard]] std::string name() const override { return "trace"; }

  /// The messages with creation_time_s < horizon_s.  Deterministic:
  /// `seed` is unused, replays are bit-identical.
  [[nodiscard]] std::vector<Message> generate(
      double horizon_s, std::uint64_t seed) const override;

  [[nodiscard]] const std::vector<Message>& messages() const noexcept {
    return messages_;
  }

 private:
  std::vector<Message> messages_;  ///< sorted by creation time
};

/// Merges the schedules of several generators.
class MixedTraffic final : public TrafficGenerator {
 public:
  explicit MixedTraffic(
      std::vector<std::shared_ptr<const TrafficGenerator>> parts);

  [[nodiscard]] std::string name() const override { return "mixed"; }
  [[nodiscard]] std::vector<Message> generate(
      double horizon_s, std::uint64_t seed) const override;

 private:
  std::vector<std::shared_ptr<const TrafficGenerator>> parts_;
};

}  // namespace photecc::noc

#endif  // PHOTECC_NOC_TRAFFIC_HPP
