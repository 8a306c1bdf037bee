// The engine's central promise: results are a pure function of the grid
// and the base seed — independent of thread count and evaluation order —
// and the NoC simulator underneath is a pure function of its seed.
#include <algorithm>

#include <gtest/gtest.h>

#include "photecc/core/tradeoff.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/noc/network.hpp"
#include "photecc/noc/traffic.hpp"

namespace photecc::explore {
namespace {

TEST(NocDeterminism, SameSeedSameStats) {
  noc::NetworkConfig config;
  config.topology.tile_count = 12;
  config.topology.channel_count = 12;
  config.scheme_menu = ecc::paper_schemes();
  const noc::NetworkSimulator simulator{config};
  const noc::UniformRandomTraffic traffic{config.topology.tile_count, 2e8,
                                          4096};

  const auto a = simulator.run(traffic, 1e-6, 1234);
  const auto b = simulator.run(traffic, 1e-6, 1234);
  const noc::NocStats& sa = a.stats.aggregate;
  const noc::NocStats& sb = b.stats.aggregate;
  EXPECT_EQ(sa.delivered, sb.delivered);
  EXPECT_EQ(sa.dropped, sb.dropped);
  EXPECT_EQ(sa.deadline_misses, sb.deadline_misses);
  EXPECT_EQ(sa.mean_latency_s, sb.mean_latency_s);
  EXPECT_EQ(sa.max_latency_s, sb.max_latency_s);
  EXPECT_EQ(sa.p95_latency_s, sb.p95_latency_s);
  EXPECT_EQ(sa.total_energy_j, sb.total_energy_j);
  EXPECT_EQ(sa.laser_energy_j, sb.laser_energy_j);
  EXPECT_EQ(sa.mr_energy_j, sb.mr_energy_j);
  EXPECT_EQ(sa.codec_energy_j, sb.codec_energy_j);
  EXPECT_EQ(sa.idle_laser_energy_j, sb.idle_laser_energy_j);
  EXPECT_EQ(sa.busy_time_s, sb.busy_time_s);
  EXPECT_EQ(sa.scheme_usage, sb.scheme_usage);
  EXPECT_EQ(sa.class_mean_latency_s, sb.class_mean_latency_s);
  EXPECT_EQ(a.total_payload_bits, b.total_payload_bits);
}

TEST(NocDeterminism, DifferentSeedsProduceDifferentSchedules) {
  noc::NetworkConfig config;
  config.topology.tile_count = 12;
  config.topology.channel_count = 12;
  config.scheme_menu = ecc::paper_schemes();
  const noc::NetworkSimulator simulator{config};
  const noc::UniformRandomTraffic traffic{config.topology.tile_count, 2e8,
                                          4096};
  const auto a = simulator.run(traffic, 1e-6, 1);
  const auto b = simulator.run(traffic, 1e-6, 2);
  EXPECT_NE(a.stats.aggregate.mean_latency_s,
            b.stats.aggregate.mean_latency_s);
}

TEST(SweepDeterminism, LinkGridExportsAreThreadCountInvariant) {
  ScenarioGrid grid;
  grid.codes({"w/o ECC", "H(71,64)", "H(7,4)", "H(15,11)", "REP(3,1)"})
      .ber_targets({1e-6, 1e-8, 1e-10, 1e-12})
      .oni_counts({8, 12, 16});
  const auto sequential = SweepRunner{{1}}.run(grid);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto parallel = SweepRunner{{threads}}.run(grid);
    EXPECT_EQ(sequential.csv(), parallel.csv()) << "threads=" << threads;
    EXPECT_EQ(sequential.json(), parallel.json()) << "threads=" << threads;
  }
}

TEST(SweepDeterminism, NocGridExportsAreThreadCountInvariant) {
  ScenarioGrid grid;
  grid.traffic_patterns({uniform_traffic(1e8), hotspot_traffic(2e8, 0, 0.5)})
      .laser_gating({true, false})
      .policies({core::Policy::kMinEnergy, core::Policy::kMinTime})
      .noc_horizon(5e-7);
  const auto sequential = SweepRunner{{1}}.run(grid);
  const auto parallel = SweepRunner{{4}}.run(grid);
  EXPECT_EQ(sequential.csv(), parallel.csv());
  EXPECT_EQ(sequential.json(), parallel.json());
}

TEST(SweepDeterminism, ModulationGridExportsAreThreadCountInvariant) {
  ScenarioGrid grid;
  grid.codes({"w/o ECC", "H(71,64)", "H(7,4)"})
      .ber_targets({1e-8, 1e-10})
      .modulations({math::Modulation::kOok, math::Modulation::kPam4});
  const auto sequential = SweepRunner{{1}}.run(grid);
  for (const std::size_t threads : {2u, 4u}) {
    const auto parallel = SweepRunner{{threads}}.run(grid);
    EXPECT_EQ(sequential.csv(), parallel.csv()) << "threads=" << threads;
    EXPECT_EQ(sequential.json(), parallel.json()) << "threads=" << threads;
  }
  // The combined OOK-vs-PAM4 front is non-empty and mixes both formats
  // whenever any PAM4 cell is feasible.
  const auto front =
      sequential.pareto_front({{"ct", true}, {"p_channel_w", true}});
  EXPECT_FALSE(front.empty());
}

TEST(SweepDeterminism, OokCellsAreUnchangedByTheModulationAxis) {
  // Declaring the axis with the OOK value only must reproduce the
  // axis-free grid cell for cell (same metrics, one extra label).
  ScenarioGrid plain, with_axis;
  plain.codes({"w/o ECC", "H(7,4)"}).ber_targets({1e-8, 1e-10});
  with_axis.codes({"w/o ECC", "H(7,4)"})
      .ber_targets({1e-8, 1e-10})
      .modulations({math::Modulation::kOok});
  const auto a = SweepRunner{{1}}.run(plain);
  const auto b = SweepRunner{{1}}.run(with_axis);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.cells.metric_row(i),
                                   b.cells.metric_row(i)))
        << "cell " << i;
    EXPECT_EQ(a.cells.feasible(i), b.cells.feasible(i));
  }
}

TEST(SweepDeterminism, RepeatedRunsAreIdentical) {
  ScenarioGrid grid;
  grid.traffic_patterns({uniform_traffic(2e8)})
      .laser_gating({true, false})
      .noc_horizon(5e-7);
  const SweepRunner runner{{2}};
  EXPECT_EQ(runner.run(grid).csv(), runner.run(grid).csv());
}

TEST(EngineBridge, Fig6bFrontMatchesCoreSweepTradeoff) {
  // The refactored Fig. 6b bench must reproduce the pre-refactor front:
  // engine grid vs the historical core::sweep_tradeoff loop.
  const link::MwsrChannel channel{link::MwsrParams{}};
  const std::vector<double> bers{1e-6, 1e-8, 1e-10, 1e-12};

  ScenarioGrid grid;
  grid.codes({"w/o ECC", "H(71,64)", "H(7,4)"}).ber_targets(bers);
  const auto engine = SweepRunner{{2}}.run(grid);

  const auto reference =
      core::sweep_tradeoff(channel, ecc::paper_schemes(), bers);
  ASSERT_EQ(engine.cells.size(), reference.points.size());
  for (std::size_t i = 0; i < reference.points.size(); ++i) {
    EXPECT_EQ(engine.cells.scheme(i).scheme, reference.points[i].scheme);
    EXPECT_EQ(engine.cells.scheme(i).p_channel_w,
              reference.points[i].p_channel_w);
    EXPECT_EQ(engine.cells.scheme(i).ct, reference.points[i].ct);
  }

  const auto engine_front =
      engine.pareto_front({{"ct", true}, {"p_channel_w", true}});
  const auto reference_front = reference.pareto_front();
  ASSERT_EQ(engine_front.size(), reference_front.size());
  for (std::size_t i = 0; i < engine_front.size(); ++i) {
    EXPECT_EQ(engine.cells.scheme(engine_front[i]).scheme,
              reference.points[reference_front[i]].scheme);
  }
}

TEST(CoreSweep, ParallelThreadsMatchSequential) {
  const link::MwsrChannel channel{link::MwsrParams{}};
  const std::vector<double> bers{1e-6, 1e-9, 1e-12};
  const auto sequential =
      core::sweep_tradeoff(channel, ecc::paper_schemes(), bers, {}, 1);
  const auto parallel =
      core::sweep_tradeoff(channel, ecc::paper_schemes(), bers, {}, 4);
  ASSERT_EQ(sequential.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < sequential.points.size(); ++i) {
    EXPECT_EQ(sequential.points[i].scheme, parallel.points[i].scheme);
    EXPECT_EQ(sequential.points[i].p_channel_w,
              parallel.points[i].p_channel_w);
    EXPECT_EQ(sequential.points[i].energy_per_bit_j,
              parallel.points[i].energy_per_bit_j);
  }
}

}  // namespace
}  // namespace photecc::explore
