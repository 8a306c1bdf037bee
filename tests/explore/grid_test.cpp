#include "photecc/explore/grid.hpp"

#include <gtest/gtest.h>

#include <set>

namespace photecc::explore {
namespace {

TEST(ScenarioGrid, EmptyGridHoldsTheSingleBaseCell) {
  const ScenarioGrid grid;
  EXPECT_EQ(grid.size(), 1u);
  const Scenario s = grid.at(0);
  EXPECT_EQ(s.index, 0u);
  EXPECT_FALSE(s.code.has_value());
  EXPECT_TRUE(s.labels.empty());
  EXPECT_FALSE(s.traffic.has_value());
}

TEST(ScenarioGrid, SizeIsTheProductOfDeclaredAxes) {
  ScenarioGrid grid;
  grid.codes({"w/o ECC", "H(7,4)"})
      .ber_targets({1e-6, 1e-9, 1e-12})
      .oni_counts({8, 12})
      .laser_gating({true, false});
  EXPECT_EQ(grid.size(), 2u * 3u * 2u * 2u);
}

TEST(ScenarioGrid, CodeAxisVariesFastestThenBer) {
  // The historical core::sweep_tradeoff order: BER-major, code-minor.
  ScenarioGrid grid;
  grid.codes({"a", "b", "c"}).ber_targets({1e-6, 1e-9});
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(*grid.at(0).code, "a");
  EXPECT_EQ(*grid.at(1).code, "b");
  EXPECT_EQ(*grid.at(2).code, "c");
  EXPECT_EQ(*grid.at(3).code, "a");
  EXPECT_DOUBLE_EQ(grid.at(0).target_ber, 1e-6);
  EXPECT_DOUBLE_EQ(grid.at(2).target_ber, 1e-6);
  EXPECT_DOUBLE_EQ(grid.at(3).target_ber, 1e-9);
  EXPECT_DOUBLE_EQ(grid.at(5).target_ber, 1e-9);
}

TEST(ScenarioGrid, AtThrowsPastTheEnd) {
  ScenarioGrid grid;
  grid.codes({"a"});
  EXPECT_THROW((void)grid.at(1), std::out_of_range);
}

TEST(ScenarioGrid, LabelsNameEveryDeclaredAxis) {
  ScenarioGrid grid;
  grid.codes({"H(7,4)"})
      .ber_targets({1e-9})
      .oni_counts({16})
      .policies({core::Policy::kMinTime});
  const Scenario s = grid.at(0);
  ASSERT_EQ(s.labels.size(), 4u);
  EXPECT_EQ(s.labels[0].first, "code");
  EXPECT_EQ(s.labels[0].second, "H(7,4)");
  EXPECT_EQ(s.labels[1].first, "target_ber");
  EXPECT_EQ(s.labels[2].first, "oni_count");
  EXPECT_EQ(s.labels[2].second, "16");
  EXPECT_EQ(s.labels[3].first, "policy");
}

TEST(ScenarioGrid, OniAxisOverridesBothLinkAndSystemConfig) {
  ScenarioGrid grid;
  grid.oni_counts({24});
  const Scenario s = grid.at(0);
  EXPECT_EQ(s.link.oni_count, 24u);
  EXPECT_EQ(s.system.oni_count, 24u);
}

TEST(ScenarioGrid, OniAxisAppliesOnTopOfLinkVariants) {
  link::MwsrParams shorter;
  shorter.waveguide_length_m = 0.02;
  ScenarioGrid grid;
  grid.link_variants({{"2 cm", shorter}}).oni_counts({4});
  const Scenario s = grid.at(0);
  EXPECT_DOUBLE_EQ(s.link.waveguide_length_m, 0.02);
  EXPECT_EQ(s.link.oni_count, 4u);
}

TEST(ScenarioGrid, NocAxesAreDetected) {
  ScenarioGrid link_only;
  link_only.codes({"H(7,4)"}).ber_targets({1e-9});
  EXPECT_FALSE(link_only.runs_simulator());

  ScenarioGrid noc;
  noc.traffic_patterns({uniform_traffic(1e8)});
  EXPECT_TRUE(noc.runs_simulator());

  ScenarioGrid gating_only;
  gating_only.laser_gating({true, false});
  EXPECT_TRUE(gating_only.runs_simulator());

  ScenarioGrid policy_only;
  policy_only.policies({core::Policy::kMinTime});
  EXPECT_TRUE(policy_only.runs_simulator());

  // A network section alone routes to the simulator too.
  ScenarioGrid network_only;
  network_only.codes({"H(7,4)"}).network(NetworkSpec{});
  EXPECT_TRUE(network_only.runs_simulator());
}

TEST(ScenarioGrid, PerCellSeedsAreStableAndDistinct) {
  ScenarioGrid grid;
  grid.codes({"a", "b"}).ber_targets({1e-6, 1e-9, 1e-12});
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid.at(i).seed, grid.at(i).seed);  // stable re-materialise
    seeds.insert(grid.at(i).seed);
  }
  EXPECT_EQ(seeds.size(), grid.size());  // no collisions on this grid
}

TEST(ScenarioGrid, BaseSeedShiftsEveryCellSeed) {
  ScenarioGrid a, b;
  a.codes({"x"}).base_seed(1);
  b.codes({"x"}).base_seed(2);
  EXPECT_NE(a.at(0).seed, b.at(0).seed);
}

TEST(ScenarioGrid, IteratorEnumeratesAllCellsInOrder) {
  ScenarioGrid grid;
  grid.codes({"a", "b"}).ber_targets({1e-6, 1e-9});
  std::size_t expected = 0;
  for (const Scenario& s : grid) {
    EXPECT_EQ(s.index, expected);
    ++expected;
  }
  EXPECT_EQ(expected, grid.size());
}

TEST(ScenarioGrid, ModulationAxisIsOutermostAndLabelled) {
  ScenarioGrid grid;
  grid.codes({"a", "b"})
      .ber_targets({1e-6, 1e-9})
      .modulations({math::Modulation::kOok, math::Modulation::kPam4});
  ASSERT_EQ(grid.size(), 8u);
  // Outermost: the first half of the enumeration is the full OOK grid,
  // in exactly the order the grid enumerates without the axis.
  ScenarioGrid ook_only;
  ook_only.codes({"a", "b"}).ber_targets({1e-6, 1e-9});
  for (std::size_t i = 0; i < 4; ++i) {
    const Scenario with_axis = grid.at(i);
    const Scenario without_axis = ook_only.at(i);
    EXPECT_EQ(with_axis.link.modulation, math::Modulation::kOok);
    EXPECT_EQ(with_axis.code, without_axis.code);
    EXPECT_EQ(with_axis.target_ber, without_axis.target_ber);
    EXPECT_EQ(with_axis.label("modulation"),
              std::make_optional<std::string>("ook"));
  }
  for (std::size_t i = 4; i < 8; ++i) {
    const Scenario s = grid.at(i);
    EXPECT_EQ(s.link.modulation, math::Modulation::kPam4);
    EXPECT_EQ(s.label("modulation"),
              std::make_optional<std::string>("pam4"));
  }
}

TEST(ScenarioGrid, UndeclaredModulationAxisLeavesOokDefault) {
  ScenarioGrid grid;
  grid.codes({"a"});
  const Scenario s = grid.at(0);
  EXPECT_EQ(s.link.modulation, math::Modulation::kOok);
  EXPECT_FALSE(s.label("modulation").has_value());
  // A modulation-only grid still evaluates through the link evaluator.
  ScenarioGrid modulation_only;
  modulation_only.modulations({math::Modulation::kPam4});
  EXPECT_FALSE(modulation_only.runs_simulator());
  EXPECT_EQ(modulation_only.at(0).link.modulation,
            math::Modulation::kPam4);
}

TEST(ScenarioGrid, EnvironmentAxisIsOutermost) {
  ScenarioGrid grid;
  grid.codes({"a", "b"}).environments(
      {{"static", env::EnvironmentTimeline::constant(0.25)},
       {"hot", env::EnvironmentTimeline::constant(0.75)}});
  ASSERT_EQ(grid.size(), 4u);
  // First half: the base grid, with the first environment applied.
  for (std::size_t i = 0; i < 2; ++i) {
    const Scenario s = grid.at(i);
    ASSERT_TRUE(s.link.environment.has_value());
    EXPECT_DOUBLE_EQ(s.link.environment->sample_at(0.0).activity, 0.25);
    EXPECT_EQ(s.label("environment"),
              std::make_optional<std::string>("static"));
  }
  for (std::size_t i = 2; i < 4; ++i) {
    const Scenario s = grid.at(i);
    EXPECT_DOUBLE_EQ(s.link.environment->sample_at(0.0).activity, 0.75);
    EXPECT_EQ(s.label("environment"),
              std::make_optional<std::string>("hot"));
  }
  // Undeclared: no label, no override — the alias's static default.
  ScenarioGrid plain;
  plain.codes({"a"});
  EXPECT_FALSE(plain.at(0).link.environment.has_value());
  EXPECT_FALSE(plain.at(0).label("environment").has_value());
  // The environment axis alone does not force the NoC evaluator.
  ScenarioGrid env_only;
  env_only.environments(
      {{"ramp", env::EnvironmentTimeline::ramp(0.0, 1e-6, 0.2, 0.8)}});
  EXPECT_FALSE(env_only.runs_simulator());
}

}  // namespace
}  // namespace photecc::explore
