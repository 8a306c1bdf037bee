// The per-channel discrete-event engine of NetworkSimulator (K channels
// with per-channel managers, menus and thermal timelines; the paper's
// one-reader-channel-per-ONI topology is the case K == N).
//
// One call simulates one MWSR channel: round-robin arbitration over
// per-writer virtual-channel queues, laser gating/wake, closed-loop
// thermal integration and drift-triggered recalibration, and the
// paper's per-transfer energy model.  The engine itself holds no
// totals — every statistic is written through one or more ChannelSinks.
//
// Per-message cost does not grow with the writer count.  The writer
// queues are FIFO lists threaded through indices into the sorted
// schedule (a head and tail per writer, a next link per message), a
// running count tracks pending messages, and the round-robin grant is a
// count-trailing-zeros search over a bitset of non-empty writers that
// wraps at the grant pointer (one word per 64 writers at worst).  Only
// setting up the head/tail arrays and the bitset scales with
// queue_count, once per call.
//
// Link solves go through a run-scoped core::ConfigureMemo (see
// ChannelParams::memo).  Every channel solving against the same manager
// shares one memo, so identical channels solve each (request,
// environment sample) pair once per run.  LinkManager::configure is
// pure and the memo key is that exact pair, so results are
// bit-identical; each channel keeps its own RecalibratingManager with
// its own hysteresis, counters and recalibration costs.
//
// A network run hands each channel BOTH its per-channel sink and the
// shared aggregate sink, so the aggregate accumulates message by
// message in channel order — the floating-point addition order the
// pinned exports were recorded with.  Summing per-channel subtotals
// after the fact would regroup the additions ((a+b)+(c+d) instead of
// ((a+b)+c)+d) and drift in the last ulp.
#ifndef PHOTECC_NOC_CHANNEL_ENGINE_HPP
#define PHOTECC_NOC_CHANNEL_ENGINE_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "photecc/core/manager.hpp"
#include "photecc/env/environment.hpp"
#include "photecc/math/stats.hpp"
#include "photecc/noc/message.hpp"
#include "photecc/noc/stats.hpp"

namespace photecc::noc {

/// Accumulation target of one channel run.  Null members are skipped,
/// so a sink can collect only what its owner finalises (e.g. the
/// aggregate sink of a heterogeneous network skips phase accumulators).
struct ChannelSink {
  NocStats* stats = nullptr;
  /// Delivered latencies, appended in completion order; the owner sorts
  /// and finalises mean/max/p95 after all channels ran.
  std::vector<double>* latencies = nullptr;
  std::map<TrafficClass, math::RunningStats>* class_latency = nullptr;
  std::uint64_t* total_payload_bits = nullptr;
  std::vector<DeliveredMessage>* log = nullptr;
  /// Phase accumulators sized to the params' phase windows; only valid
  /// when the sink's owner shares the channel's timeline.
  std::vector<NocPhaseStats>* phase_stats = nullptr;
  std::vector<math::RunningStats>* phase_latency = nullptr;
};

/// Static inputs of one channel run.
struct ChannelParams {
  /// Writer virtual-channel queues, one per message source tile.  This
  /// is an addressing size, independent of the photonic oni_count the
  /// link budget was solved with.
  std::size_t queue_count = 0;
  std::size_t wavelengths = 0;
  double f_mod_hz = 0.0;
  bool laser_gating = true;
  double laser_wake_s = 0.0;
  double arbitration_s = 0.0;
  double flight_time_s = 0.0;
  double horizon_s = 0.0;
  std::size_t channel_index = 0;  ///< stamped on DeliveredMessage rows
  bool keep_log = false;
  /// Closed-loop environment; `timeline` must outlive the call and
  /// `windows` must be timeline->phase_windows(horizon_s) when has_env.
  bool has_env = false;
  const env::EnvironmentTimeline* timeline = nullptr;
  const std::vector<env::EnvironmentTimeline::PhaseWindow>* windows = nullptr;
  core::RecalibrationConfig recalibration{};
  /// Per-class requirements; classes not present use the default.
  const std::map<TrafficClass, ClassRequirements>* class_requirements =
      nullptr;
  const ClassRequirements* default_requirements = nullptr;
  /// Run-scoped solve memo of this channel's manager (required).  It
  /// also classifies drops: under an environment timeline a drop is
  /// thermal when the request is feasible at the manager's t = 0
  /// baseline sample.
  core::ConfigureMemo* memo = nullptr;
};

/// Simulates one channel's schedule (stable-sorted in place by creation
/// time unless already sorted) and accumulates into every sink.
void run_channel(std::vector<Message>& messages, const ChannelParams& params,
                 const std::vector<ChannelSink>& sinks);

/// Finalises a sink's accumulated statistics after its last channel
/// ran: sorts `latencies` (in place) and fills mean/max/p95, per-class
/// mean latencies, per-phase mean latencies (moving `phase_stats` into
/// stats.phases when non-null), and the total-energy sum.
void finalize_stats(
    NocStats& stats, std::vector<double>& latencies,
    const std::map<TrafficClass, math::RunningStats>& class_latency,
    std::vector<NocPhaseStats>* phase_stats,
    const std::vector<math::RunningStats>* phase_latency);

}  // namespace photecc::noc

#endif  // PHOTECC_NOC_CHANNEL_ENGINE_HPP
