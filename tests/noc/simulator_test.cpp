// The paper's Fig. 2a NoC — one MWSR reader channel per ONI — run on
// NetworkSimulator as the network with tile_count == channel_count ==
// oni_count: arbitration, gating, energy accounting, per-class
// requirements and the statistics definitions.
#include "photecc/noc/network.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "photecc/ecc/registry.hpp"

namespace photecc::noc {
namespace {

NetworkConfig base_config() {
  NetworkConfig config;
  config.topology.tile_count = 12;
  config.topology.channel_count = 12;
  config.scheme_menu = ecc::paper_schemes();
  config.default_requirements.target_ber = 1e-9;
  config.default_requirements.policy = core::Policy::kMinEnergy;
  return config;
}

Message make_message(std::uint64_t id, std::size_t src, std::size_t dst,
                     std::uint64_t bits, double t,
                     TrafficClass cls = TrafficClass::kBestEffort) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.payload_bits = bits;
  m.creation_time_s = t;
  m.traffic_class = cls;
  return m;
}

TEST(NocSimulator, DeliversEveryMessageExactlyOnce) {
  const NetworkSimulator sim(base_config());
  const UniformRandomTraffic traffic(12, 2e8, 4096);
  const double horizon = 20e-6;
  const auto schedule = traffic.generate(horizon, 5);
  const NetworkRunResult result = sim.run(schedule, horizon, true);
  EXPECT_EQ(result.stats.aggregate.delivered + result.stats.aggregate.dropped,
            schedule.size());
  EXPECT_EQ(result.stats.aggregate.dropped, 0u);
  EXPECT_EQ(result.log.size(), result.stats.aggregate.delivered);
  // Conservation of payload.
  std::uint64_t expected_bits = 0;
  for (const auto& m : schedule) expected_bits += m.payload_bits;
  EXPECT_EQ(result.total_payload_bits, expected_bits);
}

TEST(NocSimulator, LatencyIncludesSerializationFloor) {
  NetworkConfig config = base_config();
  config.laser_gating = false;
  const NetworkSimulator sim(config);
  // One lonely message: latency = arbitration + serialization + flight.
  const std::uint64_t bits = 16384;
  const auto result =
      sim.run({make_message(0, 1, 0, bits, 1e-6)}, 10e-6, true);
  ASSERT_EQ(result.stats.aggregate.delivered, 1u);
  const double bits_per_lambda = std::ceil(bits / 16.0);
  const double ct = result.log[0].scheme == "w/o ECC" ? 1.0
                    : result.log[0].scheme == "H(71,64)"
                        ? 71.0 / 64.0
                        : 1.75;
  const double expected = config.arbitration_s +
                          bits_per_lambda * ct / 10e9 +
                          config.flight_time_s;
  EXPECT_NEAR(result.stats.aggregate.mean_latency_s, expected, 1e-12);
}

TEST(NocSimulator, GatingAddsWakeLatencyForColdStart) {
  NetworkConfig gated = base_config();
  gated.laser_gating = true;
  NetworkConfig ungated = base_config();
  ungated.laser_gating = false;
  const auto schedule = {make_message(0, 1, 0, 4096, 1e-6)};
  const auto with = NetworkSimulator(gated).run(schedule, 10e-6);
  const auto without = NetworkSimulator(ungated).run(schedule, 10e-6);
  EXPECT_NEAR(with.stats.aggregate.mean_latency_s -
                  without.stats.aggregate.mean_latency_s,
              gated.laser_wake_s, 1e-12);
}

TEST(NocSimulator, GatingSavesIdleEnergyOnSparseTraffic) {
  NetworkConfig gated = base_config();
  gated.laser_gating = true;
  NetworkConfig ungated = base_config();
  ungated.laser_gating = false;
  // Two distant messages leave a long idle window.
  const std::vector<Message> schedule{
      make_message(0, 1, 0, 4096, 1e-6),
      make_message(1, 2, 0, 4096, 80e-6)};
  const double horizon = 100e-6;
  const auto with = NetworkSimulator(gated).run(schedule, horizon);
  const auto without = NetworkSimulator(ungated).run(schedule, horizon);
  EXPECT_DOUBLE_EQ(with.stats.aggregate.idle_laser_energy_j, 0.0);
  EXPECT_GT(without.stats.aggregate.idle_laser_energy_j, 0.0);
  EXPECT_LT(with.stats.aggregate.total_energy_j,
            without.stats.aggregate.total_energy_j);
}

TEST(NocSimulator, EnergyMatchesAnalyticModelForOneTransfer) {
  NetworkConfig config = base_config();
  config.laser_gating = true;
  config.laser_wake_s = 0.0;
  const NetworkSimulator sim(config);
  const std::uint64_t bits = 65536;
  const auto result =
      sim.run({make_message(0, 3, 7, bits, 0.5e-6)}, 10e-6, true);
  ASSERT_EQ(result.log.size(), 1u);
  // Reconstruct from the manager's own metrics.
  core::CommunicationRequest request;
  request.target_ber = config.default_requirements.target_ber;
  request.policy = config.default_requirements.policy;
  const auto cfg = sim.manager(0).configure(request);
  ASSERT_TRUE(cfg.has_value());
  const double serialize_s =
      std::ceil(bits / 16.0) * cfg->metrics.ct / 10e9;
  const double expected =
      (cfg->metrics.p_laser_w + cfg->metrics.p_mr_w +
       cfg->metrics.p_enc_dec_w) *
      16.0 * serialize_s;
  EXPECT_NEAR(result.log[0].energy_j / expected, 1.0, 1e-9);
}

TEST(NocSimulator, RealTimeClassGetsFastScheme) {
  NetworkConfig config = base_config();
  config.class_requirements[TrafficClass::kRealTime] =
      ClassRequirements{1e-9, core::Policy::kMinTime, std::nullopt,
                        std::nullopt};
  config.class_requirements[TrafficClass::kMultimedia] =
      ClassRequirements{1e-9, core::Policy::kMinPower, std::nullopt,
                        std::nullopt};
  const NetworkSimulator sim(config);
  const std::vector<Message> schedule{
      make_message(0, 1, 0, 4096, 1e-6, TrafficClass::kRealTime),
      make_message(1, 2, 3, 4096, 1e-6, TrafficClass::kMultimedia)};
  const auto result = sim.run(schedule, 10e-6, true);
  ASSERT_EQ(result.log.size(), 2u);
  for (const auto& d : result.log) {
    if (d.message.traffic_class == TrafficClass::kRealTime)
      EXPECT_EQ(d.scheme, "w/o ECC");
    else
      EXPECT_EQ(d.scheme, "H(7,4)");
  }
  EXPECT_EQ(result.stats.aggregate.scheme_usage.at("w/o ECC"), 1u);
  EXPECT_EQ(result.stats.aggregate.scheme_usage.at("H(7,4)"), 1u);
}

TEST(NocSimulator, ContentionQueuesOnTheSameChannel) {
  NetworkConfig config = base_config();
  config.laser_gating = false;
  const NetworkSimulator sim(config);
  // Three writers hit reader 0 simultaneously: completions serialise.
  std::vector<Message> schedule;
  for (std::uint64_t i = 0; i < 3; ++i)
    schedule.push_back(make_message(i, i + 1, 0, 16384, 1e-6));
  const auto result = sim.run(schedule, 100e-6, true);
  ASSERT_EQ(result.log.size(), 3u);
  std::vector<double> ends;
  for (const auto& d : result.log) ends.push_back(d.completion_time_s);
  std::sort(ends.begin(), ends.end());
  const double tx = ends[0] - 1e-6;  // first transfer duration
  EXPECT_NEAR(ends[1] - ends[0], tx, tx * 0.2);
  EXPECT_NEAR(ends[2] - ends[1], tx, tx * 0.2);
  EXPECT_GT(result.stats.aggregate.max_latency_s,
            2.5 * result.stats.aggregate.mean_latency_s / 2.0);
}

TEST(NocSimulator, IndependentChannelsDoNotInterfere) {
  NetworkConfig config = base_config();
  const NetworkSimulator sim(config);
  // Same instant, different readers: identical latencies.
  const std::vector<Message> schedule{
      make_message(0, 1, 0, 8192, 1e-6),
      make_message(1, 2, 3, 8192, 1e-6)};
  const auto result = sim.run(schedule, 10e-6, true);
  ASSERT_EQ(result.log.size(), 2u);
  EXPECT_NEAR(result.log[0].latency_s, result.log[1].latency_s, 1e-15);
}

TEST(NocSimulator, DeadlineMissesAreCounted) {
  NetworkConfig config = base_config();
  const NetworkSimulator sim(config);
  Message tight = make_message(0, 1, 0, 1 << 20, 1e-6);
  tight.deadline_s = 1.1e-6;  // a megabit cannot fit in 100 ns
  Message loose = make_message(1, 2, 3, 4096, 1e-6);
  loose.deadline_s = 5e-6;
  const auto result = sim.run({tight, loose}, 1e-3, true);
  EXPECT_EQ(result.stats.aggregate.deadline_misses, 1u);
}

TEST(NocSimulator, ImpossibleBerDropsMessages) {
  NetworkConfig config = base_config();
  config.scheme_menu = {ecc::make_code("w/o ECC")};
  config.default_requirements.target_ber = 1e-12;  // uncoded can't
  const NetworkSimulator sim(config);
  const auto result =
      sim.run({make_message(0, 1, 0, 4096, 1e-6)}, 10e-6);
  EXPECT_EQ(result.stats.aggregate.delivered, 0u);
  EXPECT_EQ(result.stats.aggregate.dropped, 1u);
}

TEST(NocSimulator, AdaptiveMenuBeatsUncodedOnlyOnEnergy) {
  // The paper's promise: scheme selection cuts energy without hurting
  // the BER guarantee.
  NetworkConfig adaptive = base_config();
  NetworkConfig uncoded_only = base_config();
  uncoded_only.scheme_menu = {ecc::make_code("w/o ECC")};
  const UniformRandomTraffic traffic(12, 2e8, 16384);
  const double horizon = 50e-6;
  const auto a =
      NetworkSimulator(adaptive).run(traffic, horizon, 77);
  const auto u =
      NetworkSimulator(uncoded_only).run(traffic, horizon, 77);
  EXPECT_EQ(a.stats.aggregate.delivered, u.stats.aggregate.delivered);
  EXPECT_LT(a.stats.aggregate.total_energy_j, u.stats.aggregate.total_energy_j);
}

TEST(NocSimulator, StatsPercentilesOrdered) {
  const NetworkSimulator sim(base_config());
  const UniformRandomTraffic traffic(12, 3e8, 8192);
  const auto result = sim.run(traffic, 30e-6, 13);
  ASSERT_GT(result.stats.aggregate.delivered, 50u);
  EXPECT_LE(result.stats.aggregate.mean_latency_s,
            result.stats.aggregate.max_latency_s);
  EXPECT_LE(result.stats.aggregate.p95_latency_s,
            result.stats.aggregate.max_latency_s);
  EXPECT_GT(result.stats.aggregate.p95_latency_s, 0.0);
  EXPECT_GT(result.stats.aggregate.busy_time_s, 0.0);
  EXPECT_GT(result.stats.aggregate.energy_per_bit_j(result.total_payload_bits),
            0.0);
}

TEST(NocSimulator, RoundRobinArbitrationIsFair) {
  // Three writers saturate one reader with equal demand; round-robin
  // must deliver equal counts (within one grant) from each source.
  NetworkConfig config = base_config();
  const NetworkSimulator sim(config);
  std::vector<Message> schedule;
  std::uint64_t id = 0;
  for (int round = 0; round < 30; ++round) {
    for (std::size_t src = 1; src <= 3; ++src) {
      // All created at t=0: contention is pure arbitration.
      schedule.push_back(make_message(id++, src, 0, 8192, 0.0));
    }
  }
  const auto result = sim.run(schedule, 1e-3, true);
  ASSERT_EQ(result.stats.aggregate.delivered, 90u);
  // Check interleaving: among the first 9 completions, each source
  // appears exactly 3 times.
  std::vector<const DeliveredMessage*> log;
  for (const auto& d : result.log) log.push_back(&d);
  std::sort(log.begin(), log.end(),
            [](const DeliveredMessage* a, const DeliveredMessage* b) {
              return a->completion_time_s < b->completion_time_s;
            });
  std::map<std::size_t, int> first_nine;
  for (int i = 0; i < 9; ++i) ++first_nine[log[i]->message.source];
  for (const auto& [src, count] : first_nine) {
    EXPECT_EQ(count, 3) << "source " << src;
  }
}

TEST(NocSimulator, NoSecondWakeWhenArrivalCoincidesWithCompletion) {
  // Gating edge: a message arriving *exactly* when the previous
  // transfer completes finds the laser still on — it must not be
  // charged a second wake-up.
  NetworkConfig config = base_config();
  config.laser_gating = true;
  const NetworkSimulator sim(config);
  const auto first =
      sim.run({make_message(0, 1, 0, 4096, 1e-6)}, 1e-3, true);
  ASSERT_EQ(first.log.size(), 1u);
  const double completion = first.log[0].completion_time_s;

  const auto chained = sim.run({make_message(0, 1, 0, 4096, 1e-6),
                                make_message(1, 2, 0, 4096, completion)},
                               1e-3, true);
  ASSERT_EQ(chained.log.size(), 2u);
  // First message: cold start pays the wake; the coinciding arrival
  // pays only arbitration + serialization + flight.
  EXPECT_NEAR(chained.log[1].latency_s,
              chained.log[0].latency_s - config.laser_wake_s, 1e-15);

  // One tick later the channel has gone idle: the wake is back.
  const auto gapped = sim.run({make_message(0, 1, 0, 4096, 1e-6),
                               make_message(1, 2, 0, 4096, completion + 1e-9)},
                              1e-3, true);
  ASSERT_EQ(gapped.log.size(), 2u);
  EXPECT_NEAR(gapped.log[1].latency_s, gapped.log[0].latency_s, 1e-15);
}

TEST(NocSimulator, NoIdleBurnOverAnEmptyHorizonWithoutGating) {
  // Gating edge: with gating off but zero messages the simulator has
  // never configured a laser power, so there is nothing to burn — the
  // idle-laser energy over the whole horizon is exactly zero.
  NetworkConfig config = base_config();
  config.laser_gating = false;
  const NetworkSimulator sim(config);
  const auto result = sim.run(std::vector<Message>{}, 1e-3);
  EXPECT_EQ(result.stats.aggregate.delivered, 0u);
  EXPECT_DOUBLE_EQ(result.stats.aggregate.idle_laser_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(result.stats.aggregate.total_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(result.stats.aggregate.horizon_s, 1e-3);
}

TEST(NocSimulator, P95IsNearestRankOnAKnownTwentyMessageTrace) {
  // 20 lonely messages with strictly increasing payloads => 20 distinct
  // latencies with no queueing.  Nearest rank: ceil(0.95 * 20) = rank
  // 19, the 19th smallest (second largest) latency.
  NetworkConfig config = base_config();
  config.laser_gating = false;
  const NetworkSimulator sim(config);
  std::vector<Message> schedule;
  for (std::uint64_t i = 0; i < 20; ++i)
    schedule.push_back(make_message(i, 1, 0, 1024 * (i + 1),
                                    static_cast<double>(i + 1) * 50e-6));
  const auto result = sim.run(schedule, 2e-3, true);
  ASSERT_EQ(result.stats.aggregate.delivered, 20u);
  std::vector<double> latencies;
  for (const auto& d : result.log) latencies.push_back(d.latency_s);
  std::sort(latencies.begin(), latencies.end());
  EXPECT_DOUBLE_EQ(result.stats.aggregate.p95_latency_s, latencies[18]);
  EXPECT_LT(result.stats.aggregate.p95_latency_s,
            result.stats.aggregate.max_latency_s);

  // For 10 messages, rank ceil(9.5) = 10: nearest-rank p95 IS the
  // maximum (the old floor(0.95 * (N - 1)) definition picked index 8 —
  // this pins the documented definition).
  const auto ten = sim.run(
      std::vector<Message>(schedule.begin(), schedule.begin() + 10), 2e-3);
  ASSERT_EQ(ten.stats.aggregate.delivered, 10u);
  EXPECT_DOUBLE_EQ(ten.stats.aggregate.p95_latency_s,
                   ten.stats.aggregate.max_latency_s);
}

TEST(NocSimulator, InputValidation) {
  NetworkConfig too_small;
  too_small.topology.tile_count = 1;
  too_small.topology.channel_count = 1;
  EXPECT_THROW(NetworkSimulator{too_small}, std::invalid_argument);
  const NetworkSimulator sim(base_config());
  EXPECT_THROW((void)sim.run({make_message(0, 1, 1, 64, 0.0)}, 1e-6),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run({make_message(0, 1, 99, 64, 0.0)}, 1e-6),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run(std::vector<Message>{}, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace photecc::noc
