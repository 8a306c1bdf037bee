// The tiled photonic network: topology mapping, the pinned
// one-channel-per-tile reduction (the paper's topology), per-channel
// statistics, and heterogeneous per-channel coding/environment
// behaviour.
#include "photecc/noc/network.hpp"

#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/ecc/registry.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/noc/traffic.hpp"

namespace photecc::noc {
namespace {

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

TEST(NetworkTopology, InterleavedMappingSpreadsNeighbours) {
  NetworkTopology topo;
  topo.tile_count = 8;
  topo.channel_count = 4;
  topo.mapping = NetworkTopology::Mapping::kInterleaved;
  topo.validate();
  EXPECT_EQ(topo.channel_of_tile(0), 0u);
  EXPECT_EQ(topo.channel_of_tile(1), 1u);
  EXPECT_EQ(topo.channel_of_tile(5), 1u);
  EXPECT_EQ(topo.tiles_of_channel(2), (std::vector<std::size_t>{2, 6}));
}

TEST(NetworkTopology, BlockedMappingKeepsNeighboursTogether) {
  NetworkTopology topo;
  topo.tile_count = 8;
  topo.channel_count = 4;
  topo.mapping = NetworkTopology::Mapping::kBlocked;
  topo.validate();
  EXPECT_EQ(topo.channel_of_tile(0), 0u);
  EXPECT_EQ(topo.channel_of_tile(1), 0u);
  EXPECT_EQ(topo.channel_of_tile(7), 3u);
  EXPECT_EQ(topo.tiles_of_channel(1), (std::vector<std::size_t>{2, 3}));
}

TEST(NetworkTopology, EveryTileBelongsToExactlyOneChannel) {
  for (const auto mapping : {NetworkTopology::Mapping::kInterleaved,
                             NetworkTopology::Mapping::kBlocked}) {
    NetworkTopology topo;
    topo.tile_count = 13;  // deliberately not divisible by K
    topo.channel_count = 5;
    topo.mapping = mapping;
    topo.validate();
    std::size_t covered = 0;
    for (std::size_t ch = 0; ch < topo.channel_count; ++ch) {
      for (const std::size_t tile : topo.tiles_of_channel(ch)) {
        EXPECT_EQ(topo.channel_of_tile(tile), ch);
        ++covered;
      }
    }
    EXPECT_EQ(covered, topo.tile_count);
  }
}

TEST(NetworkTopology, RejectsUnusableGeometries) {
  NetworkTopology topo;
  topo.tile_count = 1;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo.tile_count = 4;
  topo.channel_count = 0;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo.channel_count = 5;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

// The paper's Fig. 2a topology is the network with one channel per
// tile.  The values below are what the single-channel simulator this
// network replaced returned on the same schedules (recorded before it
// was removed), every double exact as a hex float; the delivery log is
// pinned by an fnv1a64 over each delivery's (id, channel, completion,
// energy).  Any drift is a bug, not a reason to re-pin.

std::uint64_t log_fingerprint(const std::vector<DeliveredMessage>& log) {
  std::string out;
  char buf[64];
  for (const DeliveredMessage& d : log) {
    std::snprintf(buf, sizeof buf, "%llu;%llu;%a;%a;",
                  static_cast<unsigned long long>(d.message.id),
                  static_cast<unsigned long long>(d.channel),
                  d.completion_time_s, d.energy_j);
    out += buf;
  }
  return math::fnv1a64(out);
}

TEST(NetworkSimulator, OneChannelPerTileReproducesNocSimulatorBitForBit) {
  constexpr std::size_t kOnis = 8;
  NetworkConfig net_config;
  net_config.topology.tile_count = kOnis;
  net_config.topology.channel_count = kOnis;
  const NetworkSimulator network(net_config);

  const UniformRandomTraffic traffic(kOnis, 4e8, 4096);
  const double horizon = 10e-6;
  const auto schedule = traffic.generate(horizon, 42);
  const NetworkRunResult actual = network.run(schedule, horizon, true);

  const NocStats& s = actual.stats.aggregate;
  EXPECT_EQ(s.delivered, 4026u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.dropped_thermal, 0u);
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_EQ(s.recalibrations, 0u);
  EXPECT_EQ(s.mean_latency_s, 0x1.92be797bbc101p-19);
  EXPECT_EQ(s.max_latency_s, 0x1.0289df16269dp-17);
  EXPECT_EQ(s.p95_latency_s, 0x1.9ccdf6af6e8ccp-18);
  EXPECT_EQ(s.total_energy_j, 0x1.6268a8c459763p-17);
  EXPECT_EQ(s.laser_energy_j, 0x1.0edfe81ce79dp-17);
  EXPECT_EQ(s.mr_energy_j, 0x1.4def26f6e6528p-19);
  EXPECT_EQ(s.codec_energy_j, 0x1.9edd37089278dp-30);
  EXPECT_EQ(s.idle_laser_energy_j, 0.0);
  EXPECT_EQ(s.busy_time_s, 0x1.07a80e2841259p-13);
  EXPECT_EQ(s.horizon_s, 0x1.4f8b588e368f1p-17);
  EXPECT_EQ(s.recalibration_energy_j, 0.0);
  EXPECT_EQ(s.recalibration_latency_s, 0.0);
  EXPECT_EQ(s.peak_activity, 0.0);
  EXPECT_EQ(s.final_activity, 0.0);
  EXPECT_TRUE(s.phases.empty());
  EXPECT_EQ(s.scheme_usage,
            (std::map<std::string, std::uint64_t>{{"H(71,64)", 4026}}));
  EXPECT_EQ(s.class_mean_latency_s,
            (std::map<TrafficClass, double>{
                {TrafficClass::kBestEffort, 0x1.92be797bbc115p-19}}));
  EXPECT_EQ(actual.total_payload_bits, 16490496u);
  ASSERT_EQ(actual.log.size(), 4026u);
  EXPECT_EQ(log_fingerprint(actual.log), 0x302c3bf05a418a26ULL);
  // In the reduction a message's channel is its destination ONI.
  for (const DeliveredMessage& d : actual.log)
    EXPECT_EQ(d.channel, d.message.destination);
}

// Same reduction under a time-varying environment: recalibration,
// thermal drops and phase statistics all flow through the same engine.
TEST(NetworkSimulator, EnvironmentReductionIsBitForBitToo) {
  constexpr std::size_t kOnis = 6;
  const auto ramp = env::EnvironmentTimeline::ramp(2e-6, 4e-6, 0.25, 1.0);

  // Uncoded-only at BER 1e-11: the ramp opens a thermal window, so the
  // reduction also covers drops, thermal classification and
  // recalibration accounting.
  NetworkConfig net_config;
  net_config.topology.tile_count = kOnis;
  net_config.topology.channel_count = kOnis;
  net_config.base_link.environment = ramp;
  net_config.scheme_menu = {ecc::make_code("w/o ECC")};
  net_config.default_requirements.target_ber = 1e-11;
  const NetworkSimulator network(net_config);

  const UniformRandomTraffic traffic(kOnis, 4e8, 4096);
  const double horizon = 6e-6;
  const auto schedule = traffic.generate(horizon, 7);
  const NetworkRunResult actual = network.run(schedule, horizon, true);

  const NocStats& s = actual.stats.aggregate;
  EXPECT_EQ(s.delivered, 668u);
  EXPECT_EQ(s.dropped, 1687u);  // the ramp bites
  EXPECT_EQ(s.dropped_thermal, 1687u);
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_EQ(s.recalibrations, 161u);
  EXPECT_EQ(s.mean_latency_s, 0x1.ca5a73299c461p-21);
  EXPECT_EQ(s.max_latency_s, 0x1.4a8508faad27ap-19);
  EXPECT_EQ(s.p95_latency_s, 0x1.f302ca833f737p-20);
  EXPECT_EQ(s.total_energy_j, 0x1.907ff76f14395p-19);
  EXPECT_EQ(s.laser_energy_j, 0x1.5e7ece4f46dd7p-19);
  EXPECT_EQ(s.mr_energy_j, 0x1.8f8dc1366ef87p-22);
  EXPECT_EQ(s.codec_energy_j, 0x1.18285d4fbad72p-33);
  EXPECT_EQ(s.idle_laser_energy_j, 0.0);
  EXPECT_EQ(s.busy_time_s, 0x1.67b940b6a606bp-16);
  EXPECT_EQ(s.horizon_s, 0x1.92a737110e454p-18);
  EXPECT_EQ(s.recalibration_energy_j, 0x1.620af147bc068p-32);
  EXPECT_EQ(s.recalibration_latency_s, 0x1.b02e5b8811064p-19);
  EXPECT_EQ(s.peak_activity, 1.0);
  EXPECT_EQ(s.final_activity, 1.0);
  const std::vector<NocPhaseStats> phases{
      {"pre", 0.0, 0x1.0c6f7a0b5ed8dp-19, 416, 0, 0, 0x1.14996557519f4p-21},
      {"ramp", 0x1.0c6f7a0b5ed8dp-19, 0x1.0c6f7a0b5ed8dp-18, 252, 903, 0,
       0x1.7b32288b85a8ap-20},
      {"post", 0x1.0c6f7a0b5ed8dp-18, 0x1.92a737110e454p-18, 0, 784, 0,
       0.0}};
  EXPECT_EQ(s.phases, phases);
  EXPECT_EQ(s.scheme_usage,
            (std::map<std::string, std::uint64_t>{{"w/o ECC", 668}}));
  EXPECT_EQ(s.class_mean_latency_s,
            (std::map<TrafficClass, double>{
                {TrafficClass::kBestEffort, 0x1.ca5a73299c467p-21}}));
  EXPECT_EQ(actual.total_payload_bits, 2736128u);
  ASSERT_EQ(actual.log.size(), 668u);
  EXPECT_EQ(log_fingerprint(actual.log), 0xf8427129cee858c3ULL);
}

TEST(NetworkSimulator, PerChannelStatsSumToTheAggregate) {
  NetworkConfig config;
  config.topology.tile_count = 8;
  config.topology.channel_count = 4;
  const NetworkSimulator network(config);

  const UniformRandomTraffic traffic(8, 4e8, 4096);
  const double horizon = 10e-6;
  const auto result = network.run(traffic, horizon, 3, true);

  ASSERT_EQ(result.stats.channels.size(), 4u);
  std::uint64_t delivered = 0;
  std::uint64_t payload = 0;
  double laser = 0.0;
  for (std::size_t ch = 0; ch < 4; ++ch) {
    delivered += result.stats.channels[ch].delivered;
    payload += result.stats.channel_payload_bits[ch];
    laser += result.stats.channels[ch].laser_energy_j;
    EXPECT_EQ(result.stats.channels[ch].horizon_s, horizon);
  }
  EXPECT_EQ(delivered, result.stats.aggregate.delivered);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(payload, result.total_payload_bits);
  // Energies agree to rounding (the aggregate accumulates in message
  // order, the channel totals per channel — grouping may differ in the
  // last ulp, which is exactly why the aggregate has its own sink).
  EXPECT_NEAR(laser, result.stats.aggregate.laser_energy_j,
              1e-12 * laser + 1e-30);
  // Every logged delivery names the channel that carried it.
  for (const auto& d : result.log)
    EXPECT_EQ(d.channel,
              network.config().topology.channel_of_tile(d.message.destination));
}

TEST(NetworkSimulator, SharedChannelsSerialiseCrossTileTraffic) {
  // Two tiles per channel: inbound traffic for both tiles of a channel
  // contends on it, so latency is at least the one-reader-per-tile
  // latency under the same schedule.
  NetworkConfig shared;
  shared.topology.tile_count = 8;
  shared.topology.channel_count = 2;
  NetworkConfig private_channels;
  private_channels.topology.tile_count = 8;
  private_channels.topology.channel_count = 8;

  const UniformRandomTraffic traffic(8, 8e8, 4096);
  const double horizon = 10e-6;
  const auto schedule = traffic.generate(horizon, 11);
  const auto contended = NetworkSimulator(shared).run(schedule, horizon);
  const auto free = NetworkSimulator(private_channels).run(schedule, horizon);
  EXPECT_EQ(contended.stats.aggregate.delivered,
            free.stats.aggregate.delivered);
  EXPECT_GE(contended.stats.aggregate.mean_latency_s,
            free.stats.aggregate.mean_latency_s);
}

TEST(NetworkSimulator, HeterogeneousCodingSavesTheHotChannel) {
  // Channel 0 rides a ramp into saturation, channel 1 stays cool.  An
  // uncoded-only network drops on the hot channel at BER 1e-11; giving
  // just the hot channel H(7,4) clears every drop while the cool
  // channel still runs uncoded (visible in per-channel scheme usage).
  NetworkConfig config;
  config.topology.tile_count = 4;
  config.topology.channel_count = 2;
  config.default_requirements.target_ber = 1e-11;
  config.scheme_menu = {ecc::make_code("w/o ECC")};
  config.channels.resize(2);
  config.channels[0].environment =
      env::EnvironmentTimeline::ramp(2e-6, 4e-6, 0.25, 1.0);
  config.channels[1].environment = env::EnvironmentTimeline::constant(0.25);

  std::vector<Message> schedule;
  for (std::size_t i = 0; i < 60; ++i) {
    const double t = 100e-9 * static_cast<double>(i);
    schedule.push_back(make_message(2 * i, 1, 0, 4096, t));      // hot ch 0
    schedule.push_back(make_message(2 * i + 1, 0, 1, 4096, t));  // cool ch 1
  }
  const double horizon = 6e-6;

  const auto uniform = NetworkSimulator(config).run(schedule, horizon);
  EXPECT_GT(uniform.stats.channels[0].dropped, 0u);
  EXPECT_EQ(uniform.stats.channels[0].dropped_thermal,
            uniform.stats.channels[0].dropped);
  EXPECT_EQ(uniform.stats.channels[1].dropped, 0u);
  // Heterogeneous aggregate: phases stay empty (no single phase axis).
  EXPECT_TRUE(uniform.stats.aggregate.phases.empty());
  EXPECT_FALSE(uniform.stats.channels[0].phases.empty());

  config.channels[0].scheme_menu = {ecc::make_code("H(7,4)")};
  const auto hardened = NetworkSimulator(config).run(schedule, horizon);
  EXPECT_EQ(hardened.stats.aggregate.dropped, 0u);
  EXPECT_EQ(hardened.stats.channels[0].scheme_usage.count("H(7,4)"), 1u);
  EXPECT_EQ(hardened.stats.channels[1].scheme_usage.count("w/o ECC"), 1u);
}

TEST(NetworkSimulator, ChannelsWithEqualOverridesShareAManager) {
  NetworkConfig config;
  config.topology.tile_count = 8;
  config.topology.channel_count = 4;
  config.channels.resize(4);
  config.channels[1].oni_count = 8;  // equal to the inherited tile count
  config.channels[2].oni_count = 6;
  config.channels[3].environment = env::EnvironmentTimeline::constant(0.25);
  const NetworkSimulator network(config);
  EXPECT_EQ(&network.manager(0), &network.manager(1));
  EXPECT_NE(&network.manager(0), &network.manager(2));
  EXPECT_NE(&network.manager(0), &network.manager(3));

  // A menu is compared by its code pointers: a separately made code
  // with the same name is another menu.
  config.scheme_menu = {ecc::make_code("H(7,4)")};
  config.channels.assign(4, {});
  config.channels[1].scheme_menu = config.scheme_menu;
  config.channels[2].scheme_menu = {ecc::make_code("H(7,4)")};
  const NetworkSimulator menus(config);
  EXPECT_EQ(&menus.manager(0), &menus.manager(1));
  EXPECT_NE(&menus.manager(0), &menus.manager(2));
  EXPECT_EQ(&menus.manager(0), &menus.manager(3));
}

TEST(NetworkSimulator, RejectsBadSchedulesAndGeometries) {
  NetworkConfig config;
  config.topology.tile_count = 4;
  config.topology.channel_count = 2;
  const NetworkSimulator network(config);
  EXPECT_THROW(network.run({make_message(0, 0, 4, 64, 0.0)}, 1e-6),
               std::invalid_argument);
  EXPECT_THROW(network.run({make_message(0, 2, 2, 64, 0.0)}, 1e-6),
               std::invalid_argument);
  EXPECT_THROW(network.run({}, 0.0), std::invalid_argument);

  NetworkConfig wrong_channels;
  wrong_channels.topology.tile_count = 4;
  wrong_channels.topology.channel_count = 2;
  wrong_channels.channels.resize(3);
  EXPECT_THROW(NetworkSimulator{wrong_channels}, std::invalid_argument);
}

}  // namespace
}  // namespace photecc::noc
