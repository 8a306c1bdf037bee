// The cooling axis of ScenarioGrid: placement between code and BER,
// off/wN labelling, the gated metric columns, and byte-identity of the
// lowered plan against the legacy per-cell evaluator.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/grid.hpp"
#include "photecc/explore/plan.hpp"
#include "photecc/explore/runner.hpp"

namespace photecc::explore {
namespace {

link::MwsrParams hot_link() {
  link::MwsrParams params;
  params.waveguide_length_m = 0.14;
  params.oni_count = 16;
  return params;
}

TEST(CoolingAxis, SitsBetweenCodeAndBerAndWrapsTheCode) {
  ScenarioGrid grid;
  grid.codes({"H(71,64)", "BCH(15,7,2)"})
      .cooling_weights({0, 3})
      .ber_targets({1e-9, 1e-11});
  ASSERT_EQ(grid.size(), 8u);

  // Code varies fastest, then cooling weight, then BER.
  EXPECT_EQ(*grid.at(0).code, "H(71,64)");
  EXPECT_EQ(*grid.at(1).code, "BCH(15,7,2)");
  EXPECT_EQ(*grid.at(2).code, "COOL(H(71,64),3)");
  EXPECT_EQ(*grid.at(3).code, "COOL(BCH(15,7,2),3)");
  EXPECT_DOUBLE_EQ(grid.at(3).target_ber, 1e-9);
  EXPECT_DOUBLE_EQ(grid.at(4).target_ber, 1e-11);
  EXPECT_EQ(*grid.at(6).code, "COOL(H(71,64),3)");

  // Labels: the code label keeps the base name; the wrap lives in the
  // cooling label ("off" for weight 0, "w<N>" otherwise).
  const Scenario off = grid.at(0);
  ASSERT_EQ(off.labels.size(), 3u);
  EXPECT_EQ(off.labels[0], (std::pair<std::string, std::string>{
                               "code", "H(71,64)"}));
  EXPECT_EQ(off.labels[1], (std::pair<std::string, std::string>{
                               "cooling", "off"}));
  EXPECT_EQ(off.labels[2].first, "target_ber");
  EXPECT_EQ(off.cooling_weight, std::make_optional<std::size_t>(0));

  const Scenario on = grid.at(2);
  EXPECT_EQ(on.label("code"), std::make_optional<std::string>("H(71,64)"));
  EXPECT_EQ(on.label("cooling"), std::make_optional<std::string>("w3"));
  EXPECT_EQ(on.cooling_weight, std::make_optional<std::size_t>(3));
}

TEST(CoolingAxis, UndeclaredAxisLeavesScenariosUntouched) {
  ScenarioGrid grid;
  grid.codes({"H(7,4)"});
  const Scenario s = grid.at(0);
  EXPECT_FALSE(s.cooling_weight.has_value());
  EXPECT_FALSE(s.label("cooling").has_value());
}

TEST(CoolingAxis, WeightWithoutACodeAxisWrapsTheUncodedBase) {
  ScenarioGrid grid;
  grid.cooling_weights({16});
  EXPECT_EQ(*grid.at(0).code, "COOL(w/o ECC,16)");
}

TEST(CoolingAxis, MetricColumnsAppearOnlyWithTheAxis) {
  ASSERT_EQ(cooling_metric_names(),
            (std::vector<std::string>{"duty_bound", "thermal_headroom_w"}));

  ScenarioGrid with_axis;
  with_axis.codes({"BCH(15,7,2)"})
      .cooling_weights({0, 3})
      .ber_targets({1e-11})
      .base_link(hot_link());
  ResultTable cells(result_schema(with_axis), with_axis.size(), true);
  evaluate_link_cell(with_axis.at(0), cells);
  evaluate_link_cell(with_axis.at(1), cells);
  ASSERT_TRUE(cells.metric(0, "duty_bound").has_value());
  EXPECT_DOUBLE_EQ(*cells.metric(0, "duty_bound"), 1.0);
  EXPECT_LT(*cells.metric(1, "duty_bound"), 1.0);
  EXPECT_TRUE(cells.metric(1, "thermal_headroom_w").has_value());

  ScenarioGrid without_axis;
  without_axis.codes({"BCH(15,7,2)"}).ber_targets({1e-11});
  EXPECT_EQ(result_schema(without_axis).metrics, link_cell_metric_names());
}

TEST(CoolingAxis, PlanMatchesLegacyByteForByte) {
  ScenarioGrid grid;
  grid.codes({"w/o ECC", "H(71,64)"})
      .cooling_weights({0, 16, 32})
      .ber_targets({1e-9, 1e-11})
      .base_link(hot_link());

  ExperimentResult legacy;
  legacy.cells = ResultTable(result_schema(grid), grid.size(), true);
  for (std::size_t i = 0; i < grid.size(); ++i)
    evaluate_link_cell(grid.at(i), legacy.cells);
  const ExperimentResult plan1 = LoweredPlan{grid}.execute(1);
  const ExperimentResult plan4 = LoweredPlan{grid}.execute(4);
  EXPECT_EQ(legacy.csv(), plan1.csv());
  EXPECT_EQ(legacy.json(), plan1.json());
  EXPECT_EQ(legacy.csv(), plan4.csv());
  EXPECT_EQ(legacy.json(), plan4.json());

  // The auto-routed runner takes the plan path for this grid and lands
  // on the same bytes.
  const ExperimentResult routed = SweepRunner{{1}}.run(grid);
  EXPECT_TRUE(routed.stats.has_value());
  EXPECT_EQ(routed.csv(), legacy.csv());
}

}  // namespace
}  // namespace photecc::explore
