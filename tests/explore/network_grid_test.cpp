// The tiled-network evaluator: grids with a NetworkSpec route through
// NetworkSimulator, publish per-channel columns on top of the aggregate
// set, stay thread-count invariant, and leave non-network grids
// untouched.
#include <algorithm>

#include <gtest/gtest.h>

#include "photecc/env/environment.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/runner.hpp"

namespace photecc::explore {
namespace {

NetworkSpec small_network() {
  NetworkSpec net;
  net.tile_count = 8;
  net.channel_count = 2;
  return net;
}

TEST(NetworkGrid, PublishesAggregateAndPerChannelColumns) {
  ScenarioGrid grid;
  grid.network(small_network())
      .traffic_patterns({uniform_traffic(4e8)})
      .noc_horizon(2e-6);
  const auto result = SweepRunner{{1}}.run(grid);
  ASSERT_EQ(result.cells.size(), 1u);
  const ResultTable& cells = result.cells;
  EXPECT_TRUE(cells.feasible(0));
  for (const auto& name : noc_cell_metric_names())
    EXPECT_TRUE(cells.metric(0, name).has_value()) << name;
  double delivered_sum = 0.0;
  for (std::size_t ch = 0; ch < 2; ++ch) {
    const std::string prefix = "ch" + std::to_string(ch) + "_";
    for (const auto& name : network_channel_metric_names())
      EXPECT_TRUE(cells.metric(0, prefix + name).has_value())
          << prefix + name;
    delivered_sum += *cells.metric(0, prefix + "delivered");
  }
  EXPECT_EQ(delivered_sum, *cells.metric(0, "delivered"));
}

TEST(NetworkGrid, PerChannelEnvironmentsAndCodesFeedTheSimulator) {
  NetworkSpec net;
  net.tile_count = 4;
  net.channel_count = 2;
  net.channel_codes = {"H(7,4)", "w/o ECC"};
  net.channel_environments = {
      {"hot", env::EnvironmentTimeline::ramp(2e-6, 4e-6, 0.25, 1.0)},
      {"cool", env::EnvironmentTimeline::constant(0.25)}};
  ScenarioGrid grid;
  grid.network(net)
      .traffic_patterns({uniform_traffic(4e8)})
      .ber_targets({1e-11})
      .noc_horizon(6e-6);
  const auto result = SweepRunner{{1}}.run(grid);
  ASSERT_EQ(result.cells.size(), 1u);
  // Environment columns appear because channels declare timelines.
  for (const auto& name : noc_env_metric_names())
    EXPECT_TRUE(result.cells.metric(0, name).has_value()) << name;
  // The hot channel is pinned to H(7,4), which survives the ramp.
  EXPECT_GT(*result.cells.metric(0, "ch0_delivered"), 0.0);
}

TEST(NetworkGrid, ExportsAreThreadCountInvariant) {
  ScenarioGrid grid;
  grid.network(small_network())
      .traffic_patterns({uniform_traffic(2e8), hotspot_traffic(4e8, 1, 0.5)})
      .laser_gating({true, false})
      .noc_horizon(1e-6);
  const auto sequential = SweepRunner{{1}}.run(grid);
  const auto parallel = SweepRunner{{4}}.run(grid);
  EXPECT_EQ(sequential.csv(), parallel.csv());
  EXPECT_EQ(sequential.json(), parallel.json());
}

TEST(NetworkGrid, EvaluatorFallsBackWithoutANetworkSpec) {
  // Without a NetworkSpec the evaluator runs the paper's topology: the
  // network with one interleaved channel per ONI, cell for cell, minus
  // the per-channel columns.
  NetworkSpec paper;
  paper.tile_count = 12;
  paper.channel_count = 12;
  ScenarioGrid grid;
  grid.traffic_patterns({uniform_traffic(2e8)})
      .laser_gating({true, false})
      .noc_horizon(1e-6);
  ScenarioGrid explicit_grid = grid;
  explicit_grid.network(paper);
  ResultTable fallback(result_schema(grid), grid.size());
  ResultTable explicit_network(result_schema(explicit_grid), grid.size());
  const std::size_t aggregate = noc_cell_metric_names().size();
  ASSERT_EQ(fallback.schema().metrics.size(), aggregate);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_EQ(grid.at(i).link.oni_count, 12u);
    evaluate_network_cell(grid.at(i), fallback);
    evaluate_network_cell(explicit_grid.at(i), explicit_network);
    EXPECT_TRUE(std::ranges::equal(
        fallback.metric_row(i),
        explicit_network.metric_row(i).first(aggregate)));
    EXPECT_EQ(fallback.feasible(i), explicit_network.feasible(i));
  }
}

TEST(NetworkGrid, TraceTrafficDrivesNetworkCells) {
  ScenarioGrid grid;
  grid.network(small_network())
      .traffic_patterns({trace_traffic(PHOTECC_SOURCE_DIR
                                       "/examples/traces/sample.trace")})
      .noc_horizon(5e-6);
  const auto result = SweepRunner{{1}}.run(grid);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells.feasible(0));
  EXPECT_GT(*result.cells.metric(0, "delivered"), 0.0);
  const auto label = result.cells.label(0, "traffic");
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->rfind("trace@", 0), 0u);
}

TEST(NetworkGrid, RejectsMalformedNetworkSpecs) {
  {
    NetworkSpec net = small_network();
    net.mapping = "torus";
    ScenarioGrid grid;
    grid.network(net).traffic_patterns({uniform_traffic(2e8)});
    EXPECT_THROW((void)SweepRunner{{1}}.run(grid), std::invalid_argument);
  }
  {
    NetworkSpec net = small_network();
    net.channel_codes = {"H(7,4)"};  // one entry for two channels
    ScenarioGrid grid;
    grid.network(net).traffic_patterns({uniform_traffic(2e8)});
    EXPECT_THROW((void)SweepRunner{{1}}.run(grid), std::invalid_argument);
  }
}

}  // namespace
}  // namespace photecc::explore
