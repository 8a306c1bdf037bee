// The time-varying environment in the NoC loop: recalibration on
// drift, thermal infeasibility windows, per-phase statistics and the
// self-heating feedback between channel busy time and activity.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/ecc/registry.hpp"
#include "photecc/noc/network.hpp"

namespace photecc::noc {
namespace {

Message make_message(std::uint64_t id, std::size_t src, std::size_t dst,
                     std::uint64_t bits, double t) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.payload_bits = bits;
  m.creation_time_s = t;
  return m;
}

/// One message every `period` from ONI 1 to ONI 0 — a streaming load.
std::vector<Message> stream(std::size_t count, double period,
                            std::uint64_t bits = 4096) {
  std::vector<Message> schedule;
  for (std::size_t i = 0; i < count; ++i)
    schedule.push_back(make_message(i, 1, 0, bits,
                                    static_cast<double>(i) * period));
  return schedule;
}

/// The paper's topology: 12 ONIs, one reader channel each.
NetworkConfig paper_noc() {
  NetworkConfig config;
  config.topology.tile_count = 12;
  config.topology.channel_count = 12;
  return config;
}

NetworkConfig config_with(env::EnvironmentTimeline timeline,
                          std::vector<ecc::BlockCodePtr> menu,
                          double target_ber = 1e-11) {
  NetworkConfig config = paper_noc();
  config.base_link.environment = std::move(timeline);
  config.scheme_menu = std::move(menu);
  config.default_requirements.target_ber = target_ber;
  return config;
}

TEST(NocThermalEnv, ConstantTimelineMatchesTheAliasRunExactly) {
  // A declared constant timeline at the alias activity must reproduce
  // the legacy run bit for bit, except for the recalibration accounting
  // that only the environment path reports.
  const NetworkConfig legacy = paper_noc();
  const auto schedule = stream(40, 50e-9);
  const auto a = NetworkSimulator(legacy).run(schedule, 10e-6, true);

  NetworkConfig timed = legacy;
  timed.base_link.environment = env::EnvironmentTimeline::constant(0.25);
  const auto b = NetworkSimulator(timed).run(schedule, 10e-6, true);

  EXPECT_EQ(a.stats.aggregate.delivered, b.stats.aggregate.delivered);
  EXPECT_EQ(a.stats.aggregate.dropped, b.stats.aggregate.dropped);
  EXPECT_EQ(a.stats.aggregate.mean_latency_s, b.stats.aggregate.mean_latency_s);
  EXPECT_EQ(a.stats.aggregate.p95_latency_s, b.stats.aggregate.p95_latency_s);
  // Exact equality even with default recalibration costs: a constant
  // environment never drifts, so nothing is charged.
  EXPECT_EQ(a.stats.aggregate.total_energy_j, b.stats.aggregate.total_energy_j);
  EXPECT_EQ(a.stats.aggregate.busy_time_s, b.stats.aggregate.busy_time_s);
  // No drift => no recalibrations, and no thermal window.
  EXPECT_EQ(b.stats.aggregate.recalibrations, 0u);
  EXPECT_DOUBLE_EQ(b.stats.aggregate.recalibration_energy_j, 0.0);
  EXPECT_EQ(b.stats.aggregate.dropped_thermal, 0u);
  EXPECT_DOUBLE_EQ(b.stats.aggregate.peak_activity, 0.25);
  ASSERT_EQ(b.stats.aggregate.phases.size(), 1u);
  EXPECT_EQ(b.stats.aggregate.phases[0].delivered, b.stats.aggregate.delivered);
  // The legacy run reports no environment machinery at all.
  EXPECT_EQ(a.stats.aggregate.recalibrations, 0u);
  EXPECT_TRUE(a.stats.aggregate.phases.empty());
}

TEST(NocThermalEnv, ActivityRampOpensAThermalWindowForUncoded) {
  // Uncoded-only menu at BER 1e-11: feasible at 25 % activity but not
  // past ~35 % (ablation AB5).  A ramp to saturation must start
  // dropping messages -- and classify them as thermal drops.
  const auto ramp = env::EnvironmentTimeline::ramp(2e-6, 4e-6, 0.25, 1.0);
  const auto schedule = stream(60, 100e-9);
  const double horizon = 6e-6;
  const auto uncoded =
      NetworkSimulator(config_with(ramp, {ecc::make_code("w/o ECC")}))
          .run(schedule, horizon, true);
  EXPECT_GT(uncoded.stats.aggregate.delivered, 0u);
  EXPECT_GT(uncoded.stats.aggregate.dropped, 0u);
  EXPECT_EQ(uncoded.stats.aggregate.dropped_thermal,
            uncoded.stats.aggregate.dropped);
  EXPECT_GE(uncoded.stats.aggregate.recalibrations, 1u);
  EXPECT_GT(uncoded.stats.aggregate.recalibration_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(uncoded.stats.aggregate.final_activity, 1.0);

  // H(7,4) rides the same ramp to the end (AB5: feasible to ~99 %).
  const auto coded =
      NetworkSimulator(config_with(ramp, {ecc::make_code("H(7,4)")}))
          .run(schedule, horizon, true);
  EXPECT_EQ(coded.stats.aggregate.dropped, 0u);
  EXPECT_EQ(coded.stats.aggregate.delivered, schedule.size());
  EXPECT_GT(coded.stats.aggregate.delivered, uncoded.stats.aggregate.delivered);

  // Per-phase stats: every uncoded drop happened in or after the ramp.
  ASSERT_EQ(uncoded.stats.aggregate.phases.size(), 3u);
  EXPECT_EQ(uncoded.stats.aggregate.phases[0].label, "pre");
  EXPECT_EQ(uncoded.stats.aggregate.phases[0].dropped, 0u);
  EXPECT_EQ(uncoded.stats.aggregate.phases[1].dropped +
                uncoded.stats.aggregate.phases[2].dropped,
            uncoded.stats.aggregate.dropped);
}

TEST(NocThermalEnv, RecalibrationLatencyIsChargedToTheTransfer) {
  const auto ramp = env::EnvironmentTimeline::ramp(0.0, 5e-6, 0.25, 0.6);
  NetworkConfig with_cost =
      config_with(ramp, {ecc::make_code("H(7,4)")}, 1e-9);
  with_cost.recalibration.activity_hysteresis = 0.01;
  with_cost.recalibration.recalibration_latency_s = 100e-9;
  NetworkConfig free = with_cost;
  free.recalibration.recalibration_latency_s = 0.0;
  const auto schedule = stream(20, 250e-9);
  const auto costly = NetworkSimulator(with_cost).run(schedule, 5e-6, true);
  const auto gratis = NetworkSimulator(free).run(schedule, 5e-6, true);
  ASSERT_GT(costly.stats.aggregate.recalibrations, 1u);
  EXPECT_GT(costly.stats.aggregate.recalibration_latency_s, 0.0);
  EXPECT_GT(costly.stats.aggregate.mean_latency_s,
            gratis.stats.aggregate.mean_latency_s);
  // The per-message log marks exactly the re-solved transfers.
  std::size_t recalibrated = 0;
  for (const auto& d : costly.log)
    if (d.recalibrated) ++recalibrated;
  EXPECT_EQ(recalibrated, costly.stats.aggregate.recalibrations);
}

TEST(NocThermalEnv, SelfHeatingFeedsBusyTimeBackIntoActivity) {
  // A saturating stream on a self-heating timeline drags the activity
  // up from the baseline; an idle run does not.
  const auto timeline =
      env::EnvironmentTimeline::self_heating(0.25, 0.6, 5e-7);
  NetworkConfig config = config_with(timeline, ecc::paper_schemes(), 1e-9);
  config.recalibration.activity_hysteresis = 0.05;
  // Back-to-back large frames keep the channel essentially saturated.
  const auto busy = NetworkSimulator(config).run(stream(200, 30e-9, 16384),
                                             20e-6, false);
  EXPECT_GT(busy.stats.aggregate.busy_time_s,
            0.5 * busy.stats.aggregate.horizon_s);
  EXPECT_GT(busy.stats.aggregate.peak_activity, 0.6);
  EXPECT_GT(busy.stats.aggregate.recalibrations, 1u);

  const auto idle =
      NetworkSimulator(config).run(stream(2, 8e-6), 20e-6, false);
  EXPECT_LT(idle.stats.aggregate.peak_activity, 0.3);
}

TEST(NocThermalEnv, CyclicPhasesReportPerPhaseCounts) {
  const auto timeline = env::EnvironmentTimeline::phases(
      {{1e-6, 0.25, "cool"}, {1e-6, 0.5, "hot"}}, true);
  const auto result =
      NetworkSimulator(config_with(timeline, ecc::paper_schemes(), 1e-9))
          .run(stream(40, 100e-9), 4e-6, false);
  ASSERT_EQ(result.stats.aggregate.phases.size(), 4u);
  EXPECT_EQ(result.stats.aggregate.phases[0].label, "cool");
  EXPECT_EQ(result.stats.aggregate.phases[1].label, "hot");
  EXPECT_EQ(result.stats.aggregate.phases[2].label, "cool#1");
  std::uint64_t total = 0;
  for (const auto& phase : result.stats.aggregate.phases)
    total += phase.delivered;
  EXPECT_EQ(total, result.stats.aggregate.delivered);
}

}  // namespace
}  // namespace photecc::noc
