#include "photecc/explore/result.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "photecc/core/tradeoff.hpp"

namespace photecc::explore {
namespace {

const std::vector<Objective> kMinBoth{{"x", true}, {"y", true}};

/// A table over metrics {x, y} (no axes) with one (feasible, x, y) row
/// per entry.
struct Point {
  bool feasible;
  double x;
  double y;
};
ResultTable table(const std::vector<Point>& points) {
  ResultTable t({{}, {"x", "y"}}, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    t.set_feasible(i, points[i].feasible);
    t.metric_row(i)[0] = points[i].x;
    t.metric_row(i)[1] = points[i].y;
  }
  return t;
}

TEST(ResultTable, RowsAreFilledByColumn) {
  ResultTable t({{}, {"a", "b"}}, 2);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.feasible(1));
  t.metric_row(1)[1] = 3.0;
  t.set_feasible(1, true);
  EXPECT_TRUE(t.feasible(1));
  EXPECT_DOUBLE_EQ(*t.metric(1, "b"), 3.0);
  EXPECT_DOUBLE_EQ(*t.metric(0, "b"), 0.0);
  EXPECT_FALSE(t.metric(1, "missing").has_value());
  EXPECT_EQ(t.schema().metric_column("b"), std::make_optional<std::size_t>(1));
}

TEST(ResultTable, LabelsAreTheMixedRadixDigitsOfTheRow) {
  // Axis 0 varies fastest, like ScenarioGrid::at.
  const ResultTable t(
      {{{"code", {"A", "B"}}, {"target_ber", {"1e-6", "1e-8", "1e-9"}}},
       {"x"}},
      6);
  EXPECT_EQ(t.label(0, 0), "A");
  EXPECT_EQ(t.label(1, 0), "B");
  EXPECT_EQ(t.label(1, 1), "1e-6");
  EXPECT_EQ(t.label(2, 1), "1e-8");
  EXPECT_EQ(t.label(5, 0), "B");
  EXPECT_EQ(t.label(5, 1), "1e-9");
  EXPECT_EQ(t.label(4, "target_ber"), std::make_optional<std::string>("1e-9"));
  EXPECT_FALSE(t.label(4, "policy").has_value());
}

TEST(GenericPareto, MatchesTheTwoObjectiveCoreSemantics) {
  // b no worse, strictly better y: a is dominated.
  EXPECT_EQ(table({{true, 1.0, 10.0}, {true, 1.0, 8.0}}).pareto_front(kMinBoth),
            (std::vector<std::size_t>{1}));
  // Trade-off: neither wins.
  EXPECT_EQ(table({{true, 1.0, 10.0}, {true, 1.5, 8.0}}).pareto_front(kMinBoth),
            (std::vector<std::size_t>{0, 1}));
}

TEST(GenericPareto, EmptyCellSetGivesEmptyFront) {
  EXPECT_TRUE(table({}).pareto_front(kMinBoth).empty());
}

TEST(GenericPareto, AllInfeasibleGivesEmptyFront) {
  EXPECT_TRUE(table({{false, 1.0, 1.0}, {false, 2.0, 2.0}})
                  .pareto_front(kMinBoth)
                  .empty());
}

TEST(GenericPareto, DuplicatePointsAllStayOnTheFront) {
  EXPECT_EQ(table({{true, 1.0, 1.0}, {true, 1.0, 1.0}})
                .pareto_front(kMinBoth)
                .size(),
            2u);
}

TEST(GenericPareto, SingleFeasiblePointIsTheFront) {
  const auto front =
      table({{false, 0.0, 0.0}, {true, 5.0, 5.0}}).pareto_front(kMinBoth);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0], 1u);
}

TEST(GenericPareto, MissingObjectiveMetricCountsAsInfeasible) {
  // Every cell lacks "z", so none can be ranked on it; a non-finite
  // objective value keeps a single cell off the front.
  const ResultTable t =
      table({{true, 1.0, std::numeric_limits<double>::quiet_NaN()},
             {true, 9.0, 9.0}});
  EXPECT_TRUE(t.pareto_front({{"x", true}, {"z", true}}).empty());
  const auto front = t.pareto_front(kMinBoth);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0], 1u);
}

TEST(GenericPareto, MaximizeObjectiveFlipsTheComparison) {
  // Higher y is better: (1, 10) now dominates (1, 8).
  const std::vector<Objective> min_x_max_y{{"x", true}, {"y", false}};
  EXPECT_EQ(table({{true, 1.0, 8.0}, {true, 1.0, 10.0}})
                .pareto_front(min_x_max_y),
            (std::vector<std::size_t>{1}));
}

TEST(GenericPareto, ThreeObjectivesKeepIncomparableTradeoffs) {
  const std::vector<Objective> objectives{
      {"x", true}, {"y", true}, {"z", true}};
  // Each point is best in one dimension: all three on the front.
  ResultTable t({{}, {"x", "y", "z"}}, 3);
  const double values[3][3] = {{1, 5, 5}, {5, 1, 5}, {5, 5, 1}};
  for (std::size_t i = 0; i < 3; ++i) {
    t.set_feasible(i, true);
    for (std::size_t k = 0; k < 3; ++k) t.metric_row(i)[k] = values[i][k];
  }
  EXPECT_EQ(t.pareto_front(objectives).size(), 3u);
}

TEST(GenericPareto, FrontIsSortedByTheFirstObjective) {
  const auto front =
      table({{true, 3.0, 1.0}, {true, 1.0, 3.0}, {true, 2.0, 2.0}})
          .pareto_front(kMinBoth);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0], 1u);
  EXPECT_EQ(front[1], 2u);
  EXPECT_EQ(front[2], 0u);
}

TEST(Export, CsvQuotesLabelsWithCommas) {
  ExperimentResult result;
  result.cells = ResultTable({{{"code", {"BCH(15,7,2)"}}}, {"x", "y"}}, 1);
  result.cells.set_feasible(0, true);
  result.cells.metric_row(0)[0] = 1.5;
  result.cells.metric_row(0)[1] = 2.5;
  const std::string csv = result.csv();
  EXPECT_EQ(csv, "index,code,feasible,x,y\n0,\"BCH(15,7,2)\",1,1.5,2.5\n");
}

TEST(Export, JsonSerialisesLabelsAndMetrics) {
  ExperimentResult result;
  result.cells =
      ResultTable({{{"policy", {"min-time", "min-energy"}}}, {"x", "y"}}, 2);
  result.cells.set_feasible(1, true);
  result.cells.metric_row(1)[0] = 1.5;
  const std::string json = result.json();
  EXPECT_NE(json.find("{\"index\":1,\"labels\":{\"policy\":\"min-energy\"},"
                      "\"feasible\":true,\"metrics\":{\"x\":1.5,\"y\":0}}"),
            std::string::npos);
  EXPECT_EQ(json.rfind("{\"cells\":[\n  {\"index\":0,", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

TEST(Export, NonFiniteMetricsBecomeJsonNull) {
  ExperimentResult result;
  result.cells = ResultTable({{}, {"x"}}, 1);
  result.cells.metric_row(0)[0] = std::numeric_limits<double>::infinity();
  EXPECT_NE(result.json().find("\"x\":null"), std::string::npos);
  EXPECT_NE(result.csv().find("0,0,inf\n"), std::string::npos);
}

TEST(Bridge, ToTradeoffSweepKeepsSchemeMetricsOrder) {
  ExperimentResult result;
  result.cells = ResultTable({}, 3, /*with_schemes=*/true);
  for (int i = 0; i < 3; ++i) {
    core::SchemeMetrics& m = result.cells.scheme(static_cast<std::size_t>(i));
    // append() avoids GCC 12's -Wrestrict false positive (PR105651).
    m.scheme = std::string("s").append(std::to_string(i));
    m.feasible = true;
    m.ct = 1.0 + i;
    m.p_channel_w = 3.0 - i;
  }
  const auto sweep = result.cells.to_tradeoff_sweep();
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_EQ(sweep.points[0].scheme, "s0");
  EXPECT_EQ(sweep.points[2].scheme, "s2");
  // And the 2-objective front agrees with the generic extraction.
  EXPECT_EQ(sweep.pareto_front().size(), 3u);
}

}  // namespace
}  // namespace photecc::explore
