#include "photecc/noc/channel_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

namespace photecc::noc {

void finalize_stats(
    NocStats& stats, std::vector<double>& latencies,
    const std::map<TrafficClass, math::RunningStats>& class_latency,
    std::vector<NocPhaseStats>* phase_stats,
    const std::vector<math::RunningStats>* phase_latency) {
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    double sum = 0.0;
    for (const double l : latencies) sum += l;
    stats.mean_latency_s = sum / static_cast<double>(latencies.size());
    stats.max_latency_s = latencies.back();
    stats.p95_latency_s =
        latencies[math::nearest_rank_index(latencies.size(), 0.95)];
  }
  for (const auto& [cls, cls_stats] : class_latency)
    stats.class_mean_latency_s[cls] = cls_stats.mean();
  if (phase_stats && phase_latency) {
    for (std::size_t i = 0; i < phase_stats->size(); ++i)
      (*phase_stats)[i].mean_latency_s = (*phase_latency)[i].mean();
    stats.phases = std::move(*phase_stats);
  }
  stats.total_energy_j = stats.laser_energy_j + stats.mr_energy_j +
                         stats.codec_energy_j + stats.idle_laser_energy_j +
                         stats.recalibration_energy_j;
}

void run_channel(std::vector<Message>& messages, const ChannelParams& params,
                 const std::vector<ChannelSink>& sinks) {
  const std::size_t nw = params.wavelengths;
  const double f_mod = params.f_mod_hz;
  const bool has_env = params.has_env;
  const env::EnvironmentTimeline& timeline = *params.timeline;
  const core::RecalibrationConfig& recal_config = params.recalibration;
  static const std::vector<env::EnvironmentTimeline::PhaseWindow> kNoWindows;
  const auto& windows = params.windows ? *params.windows : kNoWindows;

  const auto requirements_for =
      [&](TrafficClass cls) -> const ClassRequirements& {
    const auto it = params.class_requirements->find(cls);
    return it == params.class_requirements->end()
               ? *params.default_requirements
               : it->second;
  };

  const auto by_creation = [](const Message& a, const Message& b) {
    return a.creation_time_s < b.creation_time_s;
  };
  if (!std::is_sorted(messages.begin(), messages.end(), by_creation))
    std::stable_sort(messages.begin(), messages.end(), by_creation);

  // Round-robin arbitration among the writers of this channel.  Writer
  // w's FIFO runs head[w] -> next[...] -> tail[w] over indices into
  // `messages`; head/tail are meaningful only while w's bit in `ready`
  // is set.
  const std::size_t queue_count = params.queue_count;
  std::vector<std::size_t> head(queue_count, 0);
  std::vector<std::size_t> tail(queue_count, 0);
  std::vector<std::size_t> next(messages.size(), 0);
  const std::size_t words = (queue_count + 63) / 64;
  std::vector<std::uint64_t> ready(words, 0);
  std::size_t pending = 0;
  const auto push = [&](std::size_t writer, std::size_t index) {
    std::uint64_t& word = ready[writer / 64];
    const std::uint64_t bit = std::uint64_t{1} << (writer % 64);
    if (word & bit) {
      next[tail[writer]] = index;
    } else {
      word |= bit;
      head[writer] = index;
    }
    tail[writer] = index;
    ++pending;
  };
  const auto pop = [&](std::size_t writer) {
    const std::size_t index = head[writer];
    if (index == tail[writer])
      ready[writer / 64] &= ~(std::uint64_t{1} << (writer % 64));
    else
      head[writer] = next[index];
    --pending;
    return index;
  };
  // First non-empty writer at or after `from`, wrapping past the last
  // writer back to `from`'s own word; requires pending > 0.
  const auto next_ready = [&](std::size_t from) {
    std::size_t word = from / 64;
    std::uint64_t bits = ready[word] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      word = word + 1 == words ? 0 : word + 1;
      bits = ready[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  };
  std::size_t arrival_index = 0;
  std::size_t rr_next = 0;
  double now = 0.0;
  double last_idle_power_w = 0.0;  // laser power of the last config
  double last_busy_end = 0.0;

  // Closed loop state: the environment integrator (fed with measured
  // busy fractions) and the recalibrating manager wrapping the
  // static solver with drift hysteresis.
  env::ThermalIntegrator integrator{timeline};
  core::ConfigureMemo& memo = *params.memo;
  core::RecalibratingManager recal{memo, recal_config};
  double last_advance_t = 0.0;
  double busy_since_advance = 0.0;
  // Grant times are monotone per channel, so the phase lookup is an
  // advancing cursor — O(1) amortised even for cyclic schedules with
  // many repeated windows.  Events past the horizon (drain) stay in
  // the tail window.
  std::size_t phase_cursor = 0;
  const auto phase_of = [&](double t) {
    while (phase_cursor + 1 < windows.size() &&
           t >= windows[phase_cursor + 1].start_s)
      ++phase_cursor;
    return phase_cursor;
  };

  while (arrival_index < messages.size() || pending > 0) {
    // Admit every arrival up to `now`; if the channel is idle with no
    // pending work, fast-forward to the next arrival.
    if (pending == 0 && messages[arrival_index].creation_time_s > now) {
      now = messages[arrival_index].creation_time_s;
    }
    while (arrival_index < messages.size() &&
           messages[arrival_index].creation_time_s <= now + 1e-15) {
      push(messages[arrival_index].source, arrival_index);
      ++arrival_index;
    }
    if (pending == 0) continue;

    const std::size_t granted = next_ready(rr_next);
    rr_next = (granted + 1) % queue_count;
    const Message& msg = messages[pop(granted)];

    const double grant_time = std::max(now, msg.creation_time_s);

    // Advance the environment to the grant, feeding back the busy
    // fraction observed since the previous advance (the self-heating
    // loop; declarative timelines just sample).
    env::EnvironmentSample sample = integrator.current();
    if (has_env) {
      const double dt = grant_time - last_advance_t;
      const double busy_fraction =
          dt > 0.0 ? std::min(1.0, busy_since_advance / dt) : 0.0;
      sample = integrator.advance_to(grant_time, busy_fraction);
      if (dt > 0.0) {
        last_advance_t = grant_time;
        busy_since_advance = 0.0;
      }
      for (const ChannelSink& sink : sinks)
        sink.stats->peak_activity =
            std::max(sink.stats->peak_activity, sample.activity);
    }

    const ClassRequirements& req = requirements_for(msg.traffic_class);
    core::CommunicationRequest request;
    request.target_ber = req.target_ber;
    request.policy = req.policy;
    request.max_ct = req.max_ct;
    request.max_channel_power_w = req.max_channel_power_w;
    const auto outcome = recal.configure(request, sample);
    if (!outcome.configuration) {
      for (const ChannelSink& sink : sinks) ++sink.stats->dropped;
      if (has_env) {
        const std::size_t phase = phase_of(grant_time);
        const bool thermal =
            memo.configure(request, memo.manager()->channel().environment())
                .has_value();
        for (const ChannelSink& sink : sinks) {
          if (sink.phase_stats) ++(*sink.phase_stats)[phase].dropped;
          if (thermal) ++sink.stats->dropped_thermal;
        }
      }
      continue;
    }
    const core::SchemeMetrics& metrics = outcome.configuration->metrics;

    const bool was_idle = grant_time > last_busy_end + 1e-15;
    const double wake =
        (params.laser_gating && was_idle) ? params.laser_wake_s : 0.0;
    const double recal_latency =
        outcome.recalibrated ? recal_config.recalibration_latency_s : 0.0;
    // Payload is striped over the NW wavelengths; parity stretches the
    // serialisation by CT = n/k.
    const double bits_per_lambda = std::ceil(
        static_cast<double>(msg.payload_bits) / static_cast<double>(nw));
    const double serialize_s = bits_per_lambda * metrics.ct / f_mod;
    const double start =
        grant_time + params.arbitration_s + wake + recal_latency;
    const double end = start + serialize_s + params.flight_time_s;

    // Energy for this transfer.
    const double laser_j =
        metrics.p_laser_w * static_cast<double>(nw) * (serialize_s + wake);
    const double mr_j = metrics.p_mr_w * static_cast<double>(nw) * serialize_s;
    const double codec_j =
        metrics.p_enc_dec_w * static_cast<double>(nw) * serialize_s;
    for (const ChannelSink& sink : sinks) {
      sink.stats->laser_energy_j += laser_j;
      sink.stats->mr_energy_j += mr_j;
      sink.stats->codec_energy_j += codec_j;
    }

    // Idle laser burn between transfers when gating is off.
    if (!params.laser_gating && was_idle && last_idle_power_w > 0.0) {
      const double idle_j = last_idle_power_w * static_cast<double>(nw) *
                            (grant_time - last_busy_end);
      for (const ChannelSink& sink : sinks)
        sink.stats->idle_laser_energy_j += idle_j;
    }
    last_idle_power_w = metrics.p_laser_w;
    last_busy_end = end;
    now = end;
    for (const ChannelSink& sink : sinks)
      sink.stats->busy_time_s += end - grant_time;
    // The self-heating loop sees the duty-bounded busy time: a cooling
    // code lighting at most duty_bound of the wires heats the array
    // proportionally less.  busy_time_s above stays raw occupancy.
    busy_since_advance += metrics.duty_bound < 1.0
                              ? (end - grant_time) * metrics.duty_bound
                              : (end - grant_time);

    const double latency = end - msg.creation_time_s;
    const bool missed = msg.deadline_s && end > *msg.deadline_s;
    std::size_t phase = 0;
    if (has_env) phase = phase_of(grant_time);
    for (const ChannelSink& sink : sinks) {
      if (sink.latencies) sink.latencies->push_back(latency);
      if (sink.class_latency) (*sink.class_latency)[msg.traffic_class].add(latency);
      ++sink.stats->delivered;
      if (sink.total_payload_bits) *sink.total_payload_bits += msg.payload_bits;
      if (missed) ++sink.stats->deadline_misses;
      ++sink.stats->scheme_usage[metrics.scheme];
      if (has_env && sink.phase_stats && sink.phase_latency) {
        ++(*sink.phase_stats)[phase].delivered;
        if (missed) ++(*sink.phase_stats)[phase].deadline_misses;
        (*sink.phase_latency)[phase].add(latency);
      }
    }

    if (params.keep_log) {
      DeliveredMessage d;
      d.message = msg;
      d.channel = params.channel_index;
      d.start_time_s = start;
      d.completion_time_s = end;
      d.latency_s = latency;
      d.scheme = metrics.scheme;
      d.energy_j = laser_j + mr_j + codec_j;
      d.deadline_missed = missed;
      d.activity = sample.activity;
      d.recalibrated = outcome.recalibrated;
      for (const ChannelSink& sink : sinks)
        if (sink.log) sink.log->push_back(d);
    }
  }
  // Tail idle burn up to the horizon when gating is off.
  if (!params.laser_gating && last_idle_power_w > 0.0 &&
      params.horizon_s > last_busy_end) {
    const double idle_j = last_idle_power_w * static_cast<double>(nw) *
                          (params.horizon_s - last_busy_end);
    for (const ChannelSink& sink : sinks)
      sink.stats->idle_laser_energy_j += idle_j;
  }
  if (has_env) {
    // Coast the integrator to the horizon (idle from the last event)
    // and report the hottest channel's view.
    const double dt = params.horizon_s - last_advance_t;
    const double busy_fraction =
        dt > 0.0 ? std::min(1.0, busy_since_advance / dt) : 0.0;
    const env::EnvironmentSample final_sample =
        integrator.advance_to(params.horizon_s, busy_fraction);
    for (const ChannelSink& sink : sinks) {
      sink.stats->peak_activity =
          std::max(sink.stats->peak_activity, final_sample.activity);
      sink.stats->final_activity =
          std::max(sink.stats->final_activity, final_sample.activity);
      sink.stats->recalibrations += recal.stats().recalibrations;
      sink.stats->recalibration_energy_j += recal.stats().energy_j;
      sink.stats->recalibration_latency_s += recal.stats().latency_s;
    }
  }
}

}  // namespace photecc::noc
