// Bit-level pin of the network channel engine on many-tile networks.
//
// The fingerprints below were recorded from the deque-based engine
// (one std::deque per writer, linear round-robin scan, one LinkManager
// and one cold solve cache per channel) immediately before it was
// replaced by index-list queues and per-manager shared solves.  That
// replacement is a pure performance change, so the aggregate stats,
// every per-channel NocStats and the delivery log must stay
// bit-identical: any drift is a bug, not a reason to re-pin.
//
// Every double is rendered as a hex float, so a fingerprint changes on
// any last-ulp difference.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/ecc/registry.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/noc/network.hpp"
#include "photecc/noc/traffic.hpp"

namespace photecc::noc {
namespace {

void put(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a;", value);
  out += buf;
}

void put(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
  out += ';';
}

std::uint64_t fingerprint(const NocStats& s) {
  std::string out;
  put(out, s.delivered);
  put(out, s.dropped);
  put(out, s.dropped_thermal);
  put(out, s.deadline_misses);
  for (const double v :
       {s.mean_latency_s, s.max_latency_s, s.p95_latency_s, s.total_energy_j,
        s.laser_energy_j, s.mr_energy_j, s.codec_energy_j,
        s.idle_laser_energy_j, s.busy_time_s, s.horizon_s,
        s.recalibration_energy_j, s.recalibration_latency_s, s.peak_activity,
        s.final_activity})
    put(out, v);
  put(out, s.recalibrations);
  for (const NocPhaseStats& p : s.phases) {
    out += p.label + ';';
    put(out, p.start_s);
    put(out, p.end_s);
    put(out, p.delivered);
    put(out, p.dropped);
    put(out, p.deadline_misses);
    put(out, p.mean_latency_s);
  }
  for (const auto& [scheme, count] : s.scheme_usage) {
    out += scheme + ';';
    put(out, count);
  }
  for (const auto& [cls, latency] : s.class_mean_latency_s) {
    out += to_string(cls) + ';';
    put(out, latency);
  }
  return math::fnv1a64(out);
}

std::uint64_t fingerprint(const std::vector<DeliveredMessage>& log) {
  std::string out;
  for (const DeliveredMessage& d : log) {
    put(out, d.message.id);
    put(out, std::uint64_t{d.message.source});
    put(out, std::uint64_t{d.message.destination});
    put(out, std::uint64_t{d.channel});
    put(out, d.start_time_s);
    put(out, d.completion_time_s);
    put(out, d.latency_s);
    out += d.scheme + ';';
    put(out, d.energy_j);
    put(out, d.activity);
    out += d.deadline_missed ? "m;" : "-;";
    out += d.recalibrated ? "r;" : "-;";
  }
  return math::fnv1a64(out);
}

struct Pin {
  std::uint64_t messages;
  std::uint64_t delivered;
  std::uint64_t dropped;
  std::uint64_t recalibrations;
  std::uint64_t aggregate;  ///< fingerprint of the aggregate NocStats
  std::uint64_t channels;   ///< fnv1a64 chain over per-channel fingerprints
  std::uint64_t log;        ///< fingerprint of the delivery log
};

void expect_pinned(const NetworkSimulator& network,
                   const std::vector<Message>& schedule, double horizon_s,
                   const Pin& pin) {
  const NetworkRunResult result = network.run(schedule, horizon_s, true);
  const NocStats& agg = result.stats.aggregate;
  std::uint64_t channels = math::kFnv1a64OffsetBasis;
  for (const NocStats& ch : result.stats.channels)
    channels = math::fnv1a64(math::hex64(fingerprint(ch)), channels);
  EXPECT_EQ(schedule.size(), pin.messages);
  EXPECT_EQ(agg.delivered, pin.delivered);
  EXPECT_EQ(agg.dropped, pin.dropped);
  EXPECT_EQ(agg.recalibrations, pin.recalibrations);
  EXPECT_EQ(fingerprint(agg), pin.aggregate)
      << "aggregate 0x" << std::hex << fingerprint(agg);
  EXPECT_EQ(channels, pin.channels) << "channels 0x" << std::hex << channels;
  EXPECT_EQ(fingerprint(result.log), pin.log)
      << "log 0x" << std::hex << fingerprint(result.log);
}

/// The noc-network benchmark's shape: K = tiles / 16 channels sharing
/// one configuration with oni_count 16, uniform plus hotspot traffic
/// at 5 M msgs/s per channel, about 2000 messages.
void expect_homogeneous_pinned(std::size_t tiles, std::size_t hotspot,
                               std::uint64_t seed, const Pin& pin) {
  const std::size_t channels = tiles / 16;
  NetworkConfig config;
  config.topology.tile_count = tiles;
  config.topology.channel_count = channels;
  NetworkChannelConfig channel;
  channel.oni_count = 16;
  config.channels.assign(channels, channel);
  const NetworkSimulator network(config);

  const double rate = 5e6 * static_cast<double>(channels);
  const MixedTraffic traffic({std::make_shared<UniformRandomTraffic>(
                                  tiles, rate * 0.9, 4096),
                              std::make_shared<HotspotTraffic>(
                                  tiles, rate * 0.1, 4096, hotspot, 0.5)});
  const double horizon = 2000.0 / rate;
  expect_pinned(network, traffic.generate(horizon, seed), horizon, pin);
}

TEST(NetworkEnginePin, Homogeneous256TilesSixteenChannels) {
  expect_homogeneous_pinned(
      256, 37, 2024,
      {1985, 1985, 0, 0, 0xd0eb9b24085966b3ULL, 0x49c3ce45bae32b3fULL,
       0x4ca69d904c05f9eeULL});
}

TEST(NetworkEnginePin, Homogeneous1024TilesSixtyFourChannels) {
  expect_homogeneous_pinned(
      1024, 611, 2025,
      {1993, 1993, 0, 0, 0x4a53f816a77af5e0ULL, 0x20079e283116e5d0ULL,
       0x3d53bcb532f894c8ULL});
}

// Per-channel environments and menus: no two channels resolve to the
// same link, so nothing is shared between them, and the drifting
// timelines force recalibrations and thermal drops.  Three traffic
// classes with distinct requirements exercise per-request solves, and
// two deadline-bound streams exercise deadline misses.
TEST(NetworkEnginePin, HeterogeneousChannelsRecalibrate) {
  constexpr std::size_t kTiles = 40;
  NetworkConfig config;
  config.topology.tile_count = kTiles;
  config.topology.channel_count = 5;
  config.default_requirements.target_ber = 1e-11;
  config.class_requirements[TrafficClass::kRealTime] = {
      1e-9, core::Policy::kMinTime, 1.2, std::nullopt};
  config.class_requirements[TrafficClass::kMultimedia] = {
      1e-10, core::Policy::kMinPower, std::nullopt, std::nullopt};
  config.channels.resize(5);
  for (NetworkChannelConfig& channel : config.channels) channel.oni_count = 16;
  config.channels[0].environment =
      env::EnvironmentTimeline::ramp(2e-6, 6e-6, 0.25, 1.0);
  config.channels[0].scheme_menu = {ecc::make_code("w/o ECC")};
  config.channels[1].environment =
      env::EnvironmentTimeline::self_heating(0.25, 0.6, 5e-7);
  config.channels[2].environment = env::EnvironmentTimeline::phases(
      {{1e-6, 0.2, "cool"}, {5e-7, 0.9, "burst"}});
  config.channels[2].scheme_menu = {ecc::make_code("w/o ECC"),
                                    ecc::make_code("H(7,4)")};
  config.channels[3].environment =
      env::EnvironmentTimeline::step(3e-6, 0.3, 0.7);
  config.channels[3].oni_count = 12;
  config.channels[4].environment = env::EnvironmentTimeline::constant(0.4);
  config.laser_gating = false;
  const NetworkSimulator network(config);

  const MixedTraffic traffic(
      {std::make_shared<UniformRandomTraffic>(kTiles, 1.5e8, 4096),
       std::make_shared<UniformRandomTraffic>(
           kTiles, 5e7, 1024, TrafficClass::kRealTime),
       std::make_shared<UniformRandomTraffic>(
           kTiles, 5e7, 8192, TrafficClass::kMultimedia),
       std::make_shared<StreamingTraffic>(std::vector<StreamingTraffic::Stream>{
           {3, 7, 2e-7, 16384, 0.5, TrafficClass::kMultimedia},
           {12, 33, 3e-7, 8192, 0.2, TrafficClass::kRealTime}})});
  const double horizon = 8e-6;
  expect_pinned(network, traffic.generate(horizon, 99), horizon,
                {2089, 1684, 405, 172, 0xdd35bcdf4161028fULL,
                 0x40dcc7614cc5109eULL, 0xf16d10af95525bc7ULL});
}

}  // namespace
}  // namespace photecc::noc
