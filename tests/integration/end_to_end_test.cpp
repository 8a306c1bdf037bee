// Cross-module integration: the analytic solver chain feeding the
// bit-true Monte-Carlo stack, and the manager feeding the NoC
// simulator.  These tests exercise every library together.
#include <gtest/gtest.h>

#include "photecc/channel_sim/monte_carlo.hpp"
#include "photecc/core/manager.hpp"
#include "photecc/core/tradeoff.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/link/snr_solver.hpp"
#include "photecc/noc/network.hpp"

namespace photecc {
namespace {

TEST(EndToEnd, SolvedOperatingPointDeliversTheTargetBerInSimulation) {
  // Solve for a loose target (1e-3, measurable with modest samples) and
  // verify the bit-true stack at the solved SNR stays at or below it.
  const link::MwsrChannel channel{link::MwsrParams{}};
  for (const char* name : {"H(7,4)", "H(71,64)"}) {
    const auto code = ecc::make_code(name);
    const double target = 1e-3;
    const auto point = link::solve_operating_point(channel, *code, target);
    ASSERT_TRUE(point.feasible) << name;
    const auto m = channel_sim::measure_end_to_end_ber(
        code, point.snr, 20000, 64);
    // Eq. 2 under-counts multi-error block failures slightly; allow the
    // measurement to exceed the target by its model error band but not
    // more.
    EXPECT_LT(m.measured_ber, 3.0 * target) << name;
    EXPECT_GT(m.measured_ber, target / 20.0) << name;
  }
}

TEST(EndToEnd, CodedLinkBeatsUncodedAtEqualLaserPower) {
  // Fix the laser at the *coded* operating point and compare the two
  // stacks: coding must deliver a materially lower payload BER.
  const link::MwsrChannel channel{link::MwsrParams{}};
  const auto h74 = ecc::make_code("H(7,4)");
  const auto uncoded = ecc::make_code("w/o ECC");
  const auto point = link::solve_operating_point(channel, *h74, 1e-3);
  ASSERT_TRUE(point.feasible);
  const auto coded =
      channel_sim::measure_end_to_end_ber(h74, point.snr, 20000, 64);
  const auto raw =
      channel_sim::measure_end_to_end_ber(uncoded, point.snr, 20000, 64);
  EXPECT_LT(coded.measured_ber, raw.measured_ber / 3.0);
}

TEST(EndToEnd, ManagerConfigurationIsConsistentWithSolver) {
  const link::MwsrChannel channel{link::MwsrParams{}};
  const core::LinkManager manager(channel, ecc::paper_schemes());
  core::CommunicationRequest request;
  request.target_ber = 1e-11;
  request.policy = core::Policy::kMinPower;
  const auto config = manager.configure(request);
  ASSERT_TRUE(config.has_value());
  const auto direct = link::solve_operating_point(
      channel, *config->code, request.target_ber);
  EXPECT_DOUBLE_EQ(config->laser_output_w, direct.op_laser_w);
  EXPECT_DOUBLE_EQ(config->metrics.p_laser_w, direct.p_laser_w);
}

TEST(EndToEnd, NocEnergyScalesWithSchemeChoice) {
  // Forcing the strongest code on all traffic must reduce laser energy
  // per bit relative to forcing uncoded, at identical traffic.
  const noc::UniformRandomTraffic traffic(12, 2e8, 16384);
  const double horizon = 40e-6;

  noc::NetworkConfig uncoded_cfg;
  uncoded_cfg.topology.tile_count = 12;
  uncoded_cfg.topology.channel_count = 12;
  uncoded_cfg.scheme_menu = {ecc::make_code("w/o ECC")};
  uncoded_cfg.default_requirements.target_ber = 1e-9;
  noc::NetworkConfig coded_cfg = uncoded_cfg;
  coded_cfg.scheme_menu = {ecc::make_code("H(7,4)")};

  const auto uncoded_run =
      noc::NetworkSimulator(uncoded_cfg).run(traffic, horizon, 123);
  const auto coded_run =
      noc::NetworkSimulator(coded_cfg).run(traffic, horizon, 123);
  ASSERT_EQ(uncoded_run.stats.aggregate.delivered,
            coded_run.stats.aggregate.delivered);
  EXPECT_LT(coded_run.stats.aggregate.laser_energy_j,
            uncoded_run.stats.aggregate.laser_energy_j);
  // But coding costs time: mean latency grows with CT.
  EXPECT_GT(coded_run.stats.aggregate.mean_latency_s,
            uncoded_run.stats.aggregate.mean_latency_s);
}

TEST(EndToEnd, DeadlineAwareClassesMeetDeadlinesAdaptiveStillSaves) {
  // Mixed workload: real-time streams with deadlines + background
  // multimedia.  The adaptive manager must (a) miss no deadline that a
  // static-uncoded system also meets and (b) spend less energy.
  noc::StreamingTraffic::Stream stream;
  stream.source = 0;
  stream.destination = 5;
  stream.period_s = 2e-6;
  stream.frame_bits = 4096;
  stream.deadline_fraction = 0.5;
  stream.cls = noc::TrafficClass::kRealTime;
  auto rt = std::make_shared<noc::StreamingTraffic>(
      std::vector<noc::StreamingTraffic::Stream>{stream});
  // Keep the background light enough that channel contention (coded
  // multimedia transfers occupying shared channels longer) does not
  // dominate the real-time stream's latency: ~120 messages of ~360 ns
  // over 12 channels in 60 us leaves the channels mostly idle.
  auto mm = std::make_shared<noc::UniformRandomTraffic>(
      12, 2e6, 32768, noc::TrafficClass::kMultimedia);
  const noc::MixedTraffic traffic({rt, mm});
  const double horizon = 60e-6;

  noc::NetworkConfig adaptive;
  adaptive.topology.tile_count = 12;
  adaptive.topology.channel_count = 12;
  adaptive.class_requirements[noc::TrafficClass::kRealTime] =
      noc::ClassRequirements{1e-9, core::Policy::kMinTime, 1.0,
                             std::nullopt};
  adaptive.class_requirements[noc::TrafficClass::kMultimedia] =
      noc::ClassRequirements{1e-9, core::Policy::kMinPower, std::nullopt,
                             std::nullopt};
  noc::NetworkConfig static_uncoded;
  static_uncoded.topology = adaptive.topology;
  static_uncoded.scheme_menu = {ecc::make_code("w/o ECC")};
  static_uncoded.default_requirements.target_ber = 1e-9;

  const auto a = noc::NetworkSimulator(adaptive).run(traffic, horizon, 321);
  const auto s =
      noc::NetworkSimulator(static_uncoded).run(traffic, horizon, 321);
  EXPECT_LE(a.stats.aggregate.deadline_misses,
            s.stats.aggregate.deadline_misses);
  EXPECT_LT(a.stats.aggregate.laser_energy_j,
            s.stats.aggregate.laser_energy_j);
}

TEST(EndToEnd, SweepAndManagerAgreeOnTheBestScheme) {
  const link::MwsrChannel channel{link::MwsrParams{}};
  const core::LinkManager manager(channel, ecc::paper_schemes());
  const auto sweep =
      core::sweep_tradeoff(channel, ecc::paper_schemes(), {1e-10});
  // Min-power pick == lowest Pchannel point of the sweep.
  core::CommunicationRequest request;
  request.target_ber = 1e-10;
  request.policy = core::Policy::kMinPower;
  const auto config = manager.configure(request);
  ASSERT_TRUE(config.has_value());
  double best_power = 1e9;
  std::string best_scheme;
  for (const auto& p : sweep.points) {
    if (p.feasible && p.p_channel_w < best_power) {
      best_power = p.p_channel_w;
      best_scheme = p.scheme;
    }
  }
  EXPECT_EQ(config->code->name(), best_scheme);
}

}  // namespace
}  // namespace photecc
