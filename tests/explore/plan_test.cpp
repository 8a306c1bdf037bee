// LoweredPlan regression tests: the plan hot path must serialise
// byte-identically to the legacy per-cell evaluator for every axis
// shape, at any thread count and any block size.
#include "photecc/explore/plan.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/env/environment.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/runner.hpp"

namespace photecc::explore {
namespace {

/// Legacy reference: per-cell evaluate_link_cell, sequential.  Also
/// checks that the table's labels are the Scenario's, cell for cell.
ExperimentResult legacy(const ScenarioGrid& grid) {
  ExperimentResult result;
  result.cells = ResultTable(result_schema(grid), grid.size(), true);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Scenario scenario = grid.at(i);
    evaluate_link_cell(scenario, result.cells);
    const auto& axes = result.cells.schema().axes;
    EXPECT_EQ(scenario.labels.size(), axes.size()) << "cell " << i;
    for (std::size_t a = 0; a < axes.size() && a < scenario.labels.size();
         ++a) {
      EXPECT_EQ(scenario.labels[a].first, axes[a].name) << "cell " << i;
      EXPECT_EQ(scenario.labels[a].second, result.cells.label(i, a))
          << "cell " << i;
    }
  }
  return result;
}

void expect_plan_matches_legacy(const ScenarioGrid& grid,
                                const std::string& what) {
  const ExperimentResult cold = legacy(grid);
  const LoweredPlan plan{grid};
  const ExperimentResult sequential = plan.execute(1);
  const ExperimentResult parallel = plan.execute(4);
  EXPECT_EQ(cold.csv(), sequential.csv()) << what << ": csv at 1 thread";
  EXPECT_EQ(cold.json(), sequential.json()) << what << ": json at 1 thread";
  EXPECT_EQ(cold.csv(), parallel.csv()) << what << ": csv at 4 threads";
  EXPECT_EQ(cold.json(), parallel.json()) << what << ": json at 4 threads";
}

link::MwsrParams short_link() {
  link::MwsrParams params;
  params.waveguide_length_m = 0.02;
  return params;
}

// Four grids, each with a different axis as the fastest-varying
// declared axis (the canonical axis order is fixed, so the innermost
// DECLARED axis changes per grid).

TEST(LoweredPlan, CodeInnermostGridMatchesLegacyByteForByte) {
  ScenarioGrid grid;
  grid.codes(paper_scheme_names())
      .ber_targets({1e-8, 1e-10})
      .link_variants({{"6 cm", link::MwsrParams{}}, {"2 cm", short_link()}});
  expect_plan_matches_legacy(grid, "code-innermost");
}

TEST(LoweredPlan, BerInnermostGridMatchesLegacyByteForByte) {
  ScenarioGrid grid;
  grid.ber_targets({1e-7, 1e-9, 1e-11}).oni_counts({4, 12});
  expect_plan_matches_legacy(grid, "ber-innermost");
}

TEST(LoweredPlan, LinkInnermostGridMatchesLegacyByteForByte) {
  ScenarioGrid grid;
  grid.link_variants({{"6 cm", link::MwsrParams{}}, {"2 cm", short_link()}})
      .modulations({math::Modulation::kOok, math::Modulation::kPam4});
  expect_plan_matches_legacy(grid, "link-innermost");
}

TEST(LoweredPlan, OniInnermostGridMatchesLegacyByteForByte) {
  ScenarioGrid grid;
  grid.oni_counts({4, 8, 16})
      .modulations({math::Modulation::kPam4})
      .environments(
          {{"static", env::EnvironmentTimeline::constant(0.25)},
           {"hot", env::EnvironmentTimeline::constant(0.6)}});
  expect_plan_matches_legacy(grid, "oni-innermost");
}

TEST(LoweredPlan, AxislessGridEvaluatesTheSingleBaseCell) {
  const ScenarioGrid grid;
  expect_plan_matches_legacy(grid, "axisless");
  const LoweredPlan plan{grid};
  const auto result = plan.execute(1);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells.schema().axes.empty());
}

TEST(LoweredPlan, BlockSizeNeverChangesTheBytes) {
  ScenarioGrid grid;
  grid.codes(paper_scheme_names()).ber_targets({1e-8, 1e-9, 1e-10});
  const ExperimentResult reference = LoweredPlan{grid}.execute(1);
  for (const std::size_t block_size : {1u, 2u, 7u, 1024u}) {
    PlanOptions options;
    options.block_size = block_size;
    const ExperimentResult result =
        LoweredPlan{grid, options}.execute(4);
    EXPECT_EQ(reference.csv(), result.csv()) << "block " << block_size;
    EXPECT_EQ(reference.json(), result.json()) << "block " << block_size;
  }
}

TEST(LoweredPlan, RejectsNocGrids) {
  ScenarioGrid grid;
  grid.laser_gating({true, false});
  EXPECT_THROW(LoweredPlan{grid}, std::invalid_argument);
}

TEST(LoweredPlan, StatsCountHoistingAndReuse) {
  ScenarioGrid grid;
  grid.codes(paper_scheme_names())
      .ber_targets({1e-8, 1e-10})
      .oni_counts({4, 12});
  const auto result = LoweredPlan{grid}.execute(1);
  ASSERT_TRUE(result.stats.has_value());
  const SweepStats& stats = *result.stats;
  EXPECT_EQ(stats.cells, 12u);
  EXPECT_EQ(stats.channels_lowered, 2u);   // one per ONI count
  EXPECT_EQ(stats.root_solves, 6u);        // codes x BERs, shared
  EXPECT_EQ(stats.warm_reuses, 6u);
  EXPECT_DOUBLE_EQ(stats.warm_hit_rate(), 0.5);
  EXPECT_GT(stats.solver_iterations, 0u);  // H(7,4)/H(71,64) Brent work
}

TEST(SweepRunner, AutoRouteUsesThePlanForLinkGrids) {
  ScenarioGrid grid;
  grid.codes(paper_scheme_names()).ber_targets({1e-8});
  const SweepRunner runner{{1}};
  const auto result = runner.run(grid);
  EXPECT_TRUE(result.stats.has_value());
  EXPECT_EQ(result.csv(), legacy(grid).csv());
}

TEST(SweepRunner, NocGridsStillRunTheSimulatorEvaluator) {
  ScenarioGrid grid;
  grid.laser_gating({true});
  grid.noc_horizon(2e-7);
  const SweepRunner runner{{1}};
  const auto result = runner.run(grid);
  EXPECT_FALSE(result.stats.has_value());
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells.metric(0, "delivered").has_value());
}

}  // namespace
}  // namespace photecc::explore
