// spec::run lowering equivalence: a spec-driven sweep must be
// byte-identical (CSV and JSON exports) to the hand-assembled
// ScenarioGrid it replaces, for link grids, NoC grids and modulation
// grids, at any thread count.
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/run.hpp"

namespace spec = photecc::spec;
namespace explore = photecc::explore;
using photecc::core::Policy;
using photecc::math::Modulation;

TEST(SpecRun, Fig6bSpecMatchesHandAssembledGrid) {
  const std::vector<double> bers{1e-6, 1e-8, 1e-10, 1e-12};
  explore::ScenarioGrid grid;
  grid.codes(explore::paper_scheme_names()).ber_targets(bers);
  const auto by_hand = explore::SweepRunner{{1}}.run(grid);

  const auto by_spec = spec::run({.threads = 1,
                                  .codes = explore::paper_scheme_names(),
                                  .ber_targets = bers});
  EXPECT_EQ(by_spec.csv(), by_hand.csv());
  EXPECT_EQ(by_spec.json(), by_hand.json());
}

TEST(SpecRun, Fig6bPresetIsThreadCountInvariant) {
  spec::ExperimentSpec preset =
      spec::preset_registry().make("fig6b", "preset");
  preset.threads = 1;
  const auto sequential = spec::run(preset);
  preset.threads = 4;
  const auto parallel = spec::run(preset);
  EXPECT_EQ(sequential.csv(), parallel.csv());
  EXPECT_EQ(sequential.json(), parallel.json());
}

TEST(SpecRun, NocSpecMatchesHandAssembledGrid) {
  explore::ScenarioGrid grid;
  grid.traffic_patterns({explore::uniform_traffic(2e8),
                         explore::hotspot_traffic(1e8, 0, 0.5)})
      .laser_gating({true, false})
      .policies({Policy::kMinEnergy, Policy::kMinTime})
      .oni_counts({4, 8})
      .noc_horizon(5e-7);
  const auto by_hand = explore::SweepRunner{{1}}.run(grid);

  const auto by_spec = spec::run(
      {.threads = 1,
       .noc_horizon_s = 5e-7,
       .oni_counts = {4, 8},
       .traffic = {{.rate_msgs_per_s = 2e8},
                   {.kind = "hotspot", .rate_msgs_per_s = 1e8}},
       .laser_gating = {true, false},
       .policies = {"min-energy", "min-time"}});
  EXPECT_EQ(by_spec.csv(), by_hand.csv());
  EXPECT_EQ(by_spec.json(), by_hand.json());
}

TEST(SpecRun, ModulationAndLinkVariantAxesMatchHandAssembledGrid) {
  explore::ScenarioGrid grid;
  grid.codes(explore::paper_scheme_names())
      .ber_targets({1e-8})
      .link_variants(
          {{"paper-6cm-12oni", photecc::link::MwsrParams{}},
           {"short-2cm-4oni",
            spec::link_registry().make("short-2cm-4oni", "test")}})
      .modulations({Modulation::kOok, Modulation::kPam4});
  const auto by_hand = explore::SweepRunner{{1}}.run(grid);

  const auto by_spec =
      spec::run({.threads = 1,
                 .codes = explore::paper_scheme_names(),
                 .ber_targets = {1e-8},
                 .links = {"paper-6cm-12oni", "short-2cm-4oni"},
                 .modulations = {"ook", "pam4"}});
  EXPECT_EQ(by_spec.csv(), by_hand.csv());
  EXPECT_EQ(by_spec.json(), by_hand.json());
}

TEST(SpecRun, JsonConfigAndStructProduceIdenticalResults) {
  // The three entry points promise equivalence: a spec assembled as a
  // struct and the same spec round-tripped through its JSON document
  // must run to byte-identical exports.
  const spec::ExperimentSpec built{.threads = 1,
                                   .codes = {"w/o ECC", "H(7,4)"},
                                   .ber_targets = {1e-8, 1e-10},
                                   .modulations = {"pam4"}};
  spec::validate(built);
  const spec::ExperimentSpec parsed = spec::from_json(built.to_json());
  EXPECT_EQ(parsed, built);
  const auto from_struct = spec::run(built);
  const auto from_json_doc = spec::run(parsed);
  EXPECT_EQ(from_struct.csv(), from_json_doc.csv());
  EXPECT_EQ(from_struct.json(), from_json_doc.json());
}

TEST(SpecRun, ExplicitEvaluatorOverridesAutoChoice) {
  // A code/BER grid normally runs the link evaluator; forcing "noc"
  // must produce NoC metrics instead.
  const auto result = spec::run({.evaluator = "noc",
                                 .threads = 1,
                                 .noc_horizon_s = 2e-7,
                                 .codes = {"w/o ECC"},
                                 .ber_targets = {1e-8}});
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells.metric(0, "delivered").has_value());
  EXPECT_FALSE(result.cells.metric(0, "p_channel_w").has_value());
}

TEST(SpecRun, ExplicitLinkEvaluatorRejectsSimulatorSpecs) {
  // The analytic evaluator cannot run a network or a NoC axis; naming it
  // on such a spec is an error on the evaluator field, never a silent
  // analytic sweep that still carries the NoC labels.
  std::ifstream in(PHOTECC_SOURCE_DIR "/examples/specs/network.json");
  std::stringstream text;
  text << in.rdbuf();
  spec::ExperimentSpec network = spec::from_json(text.str());
  network.evaluator = "link";
  for (const bool keep_network : {true, false}) {
    spec::ExperimentSpec experiment = network;
    if (!keep_network) experiment.network.reset();
    try {
      spec::validate(experiment);
      FAIL() << "evaluator link accepted, network " << keep_network;
    } catch (const spec::SpecError& e) {
      EXPECT_EQ(e.field(), "evaluator");
    }
    EXPECT_THROW((void)spec::run(experiment), spec::SpecError);
  }
  // The same rejection for every NoC-only axis on a plain spec.
  EXPECT_THROW(
      spec::validate({.evaluator = "link", .laser_gating = {true}}),
      spec::SpecError);
  EXPECT_THROW(
      spec::validate({.evaluator = "link", .policies = {"min-time"}}),
      spec::SpecError);
  // A link-only spec still takes the name.
  EXPECT_NO_THROW(
      spec::validate({.evaluator = "link", .codes = {"H(7,4)"}}));
}

TEST(SpecRun, ModulationPresetCounts) {
  // The full-menu OOK-vs-PAM4 sweep on two links (what
  // bench_modulation_tradeoff prints): 20 codes x 2 BERs x 2 links x 2
  // formats.
  spec::ExperimentSpec preset =
      spec::preset_registry().make("modulation", "preset");
  preset.threads = 1;
  const auto result = spec::run(preset);
  const explore::ResultTable& cells = result.cells;
  ASSERT_EQ(cells.size(), 160u);
  std::size_t pam4 = 0, feasible = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    pam4 += cells.label(i, "modulation") == "pam4";
    feasible += cells.feasible(i);
  }
  EXPECT_EQ(pam4, 80u);
  EXPECT_EQ(feasible, 94u);
  const auto front = result.pareto_front(spec::lower_objectives(preset));
  EXPECT_EQ(front.size(), 12u);
  std::size_t pam4_on_front = 0;
  for (const std::size_t i : front)
    pam4_on_front += cells.label(i, "modulation") == "pam4";
  EXPECT_EQ(pam4_on_front, 3u);
}

TEST(SpecRun, LowerObjectivesMatchesFig6bObjectives) {
  const spec::ExperimentSpec preset =
      spec::preset_registry().make("fig6b", "preset");
  const auto objectives = spec::lower_objectives(preset);
  const auto& reference = explore::fig6b_objectives();
  ASSERT_EQ(objectives.size(), reference.size());
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    EXPECT_EQ(objectives[i].metric, reference[i].metric);
    EXPECT_EQ(objectives[i].minimize, reference[i].minimize);
  }
}

TEST(SpecRun, InvalidSpecIsRejectedBeforeExecution) {
  spec::ExperimentSpec bad;
  bad.ber_targets = {2.0};
  EXPECT_THROW((void)spec::run(bad), spec::SpecError);
  EXPECT_THROW((void)spec::lower(bad), spec::SpecError);
}

TEST(SpecRun, HotspotIndexOutOfRangeIsRejectedAtValidation) {
  // The paper's base link has 12 ONIs: hotspot 20 can never exist, and
  // must die in validate() with a field path, not abort inside the
  // traffic generator mid-sweep.
  const spec::TrafficEntry hotspot20{
      .kind = "hotspot", .rate_msgs_per_s = 1e8, .hotspot = 20};
  try {
    spec::validate({.traffic = {hotspot20}});
    FAIL() << "out-of-range hotspot accepted";
  } catch (const spec::SpecError& e) {
    EXPECT_EQ(e.field(), "axes.traffic[0].hotspot");
  }
  // The same index is fine on a grid whose smallest ONI count admits it.
  EXPECT_NO_THROW(
      spec::validate({.oni_counts = {24, 32}, .traffic = {hotspot20}}));
  // ...and rejected again when any ONI-count axis value is too small.
  EXPECT_THROW(
      spec::validate({.oni_counts = {8, 32}, .traffic = {hotspot20}}),
      spec::SpecError);
  // The link-variant axis also bounds it (short-2cm-4oni has 4 ONIs).
  EXPECT_THROW(
      spec::validate(
          {.links = {"paper-6cm-12oni", "short-2cm-4oni"},
           .traffic = {{.kind = "hotspot", .rate_msgs_per_s = 1e8,
                        .hotspot = 6}}}),
      spec::SpecError);
}

TEST(SpecRun, UnknownObjectiveMetricIsRejectedAtValidation) {
  // Typo'd metric names must fail with the known list, not produce an
  // empty/meaningless Pareto front downstream.
  try {
    spec::validate({.codes = {"w/o ECC"},
                    // The link evaluator has no such metric.
                    .objectives = {{"latency"}}});
    FAIL() << "unknown objective metric accepted";
  } catch (const spec::SpecError& e) {
    EXPECT_EQ(e.field(), "objectives[0].metric");
    EXPECT_NE(std::string(e.what()).find("p_channel_w"), std::string::npos);
  }
  // The same name is valid NoC-side vocabulary when spelled right.
  EXPECT_NO_THROW(
      spec::validate({.traffic = {{.rate_msgs_per_s = 1e8}},
                      .objectives = {{"mean_latency_s"}}}));
  // "auto" resolves the evaluator like the runner: a NoC axis makes
  // link-only metrics invalid.
  EXPECT_THROW(spec::validate({.traffic = {{.rate_msgs_per_s = 1e8}},
                               .objectives = {{"p_channel_w"}}}),
               spec::SpecError);
}

TEST(SpecRun, DeclaredMetricNamesMatchTheEvaluatorsExactly) {
  // Locks link_cell_metric_names()/noc_cell_metric_names() to what
  // evaluate_link_cell / evaluate_network_cell actually publish, so a
  // metric rename cannot silently drift apart from the spec-layer
  // objective validation.
  explore::ScenarioGrid link_grid;
  link_grid.codes({"w/o ECC"}).ber_targets({1e-8});
  EXPECT_EQ(explore::result_schema(link_grid).metrics,
            explore::link_cell_metric_names());

  explore::ScenarioGrid noc_grid;
  noc_grid.traffic_patterns({explore::uniform_traffic(2e8)})
      .noc_horizon(2e-7);
  EXPECT_EQ(explore::result_schema(noc_grid).metrics,
            explore::noc_cell_metric_names());

  // With an environment axis the simulator evaluator appends exactly the
  // declared env metric names, in order.
  explore::ScenarioGrid env_grid;
  env_grid.traffic_patterns({explore::uniform_traffic(2e8)})
      .environments({{"static",
                      photecc::env::EnvironmentTimeline::constant(0.25)}})
      .noc_horizon(2e-7);
  std::vector<std::string> expected = explore::noc_cell_metric_names();
  for (const auto& name : explore::noc_env_metric_names())
    expected.push_back(name);
  EXPECT_EQ(explore::result_schema(env_grid).metrics, expected);

  // And both evaluators fill every column of those schemas: a cell of
  // each writes exactly the schema's width (the network evaluator checks
  // it) and the link values match core::evaluate_scheme.
  for (const explore::ScenarioGrid* grid : {&noc_grid, &env_grid}) {
    explore::ResultTable cells(explore::result_schema(*grid), 1);
    EXPECT_NO_THROW(explore::evaluate_network_cell(grid->at(0), cells));
    EXPECT_EQ(cells.metric(0, "delivered"),
              std::make_optional<double>(cells.metric_row(0)[0]));
  }
  explore::ResultTable link_cells(explore::result_schema(link_grid), 1, true);
  explore::evaluate_link_cell(link_grid.at(0), link_cells);
  EXPECT_EQ(*link_cells.metric(0, "ct"), link_cells.scheme(0).ct);
  EXPECT_EQ(*link_cells.metric(0, "p_channel_w"),
            link_cells.scheme(0).p_channel_w);
  EXPECT_EQ(*link_cells.metric(0, "snr"),
            link_cells.scheme(0).operating_point.snr);
}

TEST(SpecRun, EnvironmentSpecMatchesHandAssembledGrid) {
  spec::EnvironmentEntry ramp;
  ramp.kind = "ramp";
  ramp.start_s = 1e-7;
  ramp.end_s = 4e-7;
  ramp.from_activity = 0.25;
  ramp.to_activity = 1.0;
  const auto by_spec = spec::run({.threads = 1,
                                  .noc_horizon_s = 5e-7,
                                  .traffic = {{.rate_msgs_per_s = 2e8}},
                                  .environments = {ramp}});

  const auto timeline =
      photecc::env::EnvironmentTimeline::ramp(1e-7, 4e-7, 0.25, 1.0);
  explore::ScenarioGrid grid;
  grid.traffic_patterns({explore::uniform_traffic(2e8)})
      .environments({{timeline.label(), timeline}})
      .noc_horizon(5e-7);
  const auto by_hand = explore::SweepRunner{{1}}.run(grid);
  EXPECT_EQ(by_spec.csv(), by_hand.csv());
  EXPECT_EQ(by_spec.json(), by_hand.json());
}

TEST(SpecRun, TimeVaryingEnvironmentNeedsTheNocEvaluator) {
  // Without a NoC axis, "auto" resolves to the static link evaluator,
  // which would silently collapse a ramp to its t = 0 sample — the
  // validator rejects that; constant entries are fine (AB5-style
  // static sweeps), as is an explicit "noc" evaluator.
  spec::EnvironmentEntry ramp;
  ramp.kind = "ramp";
  ramp.start_s = 0.0;
  ramp.end_s = 1e-6;
  ramp.from_activity = 0.25;
  ramp.to_activity = 1.0;
  try {
    spec::validate({.environments = {ramp}});
    FAIL() << "accepted a ramp under the link evaluator";
  } catch (const spec::SpecError& e) {
    EXPECT_EQ(e.field(), "axes.environments[0].kind");
    EXPECT_NE(std::string(e.what()).find("t = 0 sample"),
              std::string::npos);
  }
  spec::EnvironmentEntry constant;
  constant.activity = 0.75;
  EXPECT_NO_THROW(spec::validate({.environments = {constant}}));
  EXPECT_NO_THROW(
      spec::validate({.evaluator = "noc", .environments = {ramp}}));
  EXPECT_NO_THROW(spec::validate(
      {.traffic = {{.rate_msgs_per_s = 1e8}}, .environments = {ramp}}));
}

TEST(SpecRun, EnvironmentLabelsDistinguishDifferentTimelines) {
  // Grid labels come from EnvironmentTimeline::label(); two ramps with
  // different windows (and two phase schedules with different
  // durations) must not collide to the same label column value.
  namespace env = photecc::env;
  EXPECT_NE(env::EnvironmentTimeline::ramp(0.0, 1e-6, 0.25, 1.0).label(),
            env::EnvironmentTimeline::ramp(0.0, 2e-6, 0.25, 1.0).label());
  EXPECT_NE(
      env::EnvironmentTimeline::phases({{1e-6, 0.2, ""}, {1e-6, 0.8, ""}})
          .label(),
      env::EnvironmentTimeline::phases({{2e-6, 0.2, ""}, {2e-6, 0.8, ""}})
          .label());
  EXPECT_NE(
      env::EnvironmentTimeline::phases({{1e-6, 0.2, ""}, {1e-6, 0.8, ""}})
          .label(),
      env::EnvironmentTimeline::phases({{1e-6, 0.3, ""}, {1e-6, 0.7, ""}})
          .label());
}

TEST(SpecRun, EnvMetricObjectivesNeedAnEnvironmentAxis) {
  // dropped_thermal is NoC vocabulary only when an environment axis is
  // declared.
  EXPECT_NO_THROW(spec::validate({.traffic = {{.rate_msgs_per_s = 1e8}},
                                  .environments = {spec::EnvironmentEntry{}},
                                  .objectives = {{"dropped_thermal"}}}));
  EXPECT_THROW(spec::validate({.traffic = {{.rate_msgs_per_s = 1e8}},
                               .objectives = {{"dropped_thermal"}}}),
               spec::SpecError);
}

TEST(SpecRun, NetworkSpecMatchesHandAssembledGrid) {
  spec::NetworkEntry entry;
  entry.tile_count = 8;
  entry.channel_count = 2;
  entry.channel_codes = {"H(7,4)", "w/o ECC"};
  const auto by_spec = spec::run({.threads = 1,
                                  .noc_horizon_s = 5e-7,
                                  .network = entry,
                                  .traffic = {{.rate_msgs_per_s = 4e8}}});

  explore::NetworkSpec net;
  net.tile_count = 8;
  net.channel_count = 2;
  net.channel_codes = {"H(7,4)", "w/o ECC"};
  explore::ScenarioGrid grid;
  grid.network(net)
      .traffic_patterns({explore::uniform_traffic(4e8)})
      .noc_horizon(5e-7);
  const auto by_hand = explore::SweepRunner{{1}}.run(grid);
  EXPECT_EQ(by_spec.csv(), by_hand.csv());
  EXPECT_EQ(by_spec.json(), by_hand.json());
  // The network evaluator publishes per-channel columns.
  ASSERT_FALSE(by_spec.cells.empty());
  EXPECT_TRUE(by_spec.cells.metric(0, "ch0_delivered").has_value());
  EXPECT_TRUE(by_spec.cells.metric(0, "ch1_delivered").has_value());
}

TEST(SpecRun, PerChannelMetricsAreObjectiveVocabulary) {
  // ch<k>_ objective names validate up to the declared channel count
  // and no further.
  spec::NetworkEntry entry;
  entry.tile_count = 8;
  entry.channel_count = 2;
  EXPECT_NO_THROW(spec::validate({.network = entry,
                                  .traffic = {{.rate_msgs_per_s = 1e8}},
                                  .objectives = {{"ch1_mean_latency_s"}}}));
  EXPECT_THROW(spec::validate({.network = entry,
                               .traffic = {{.rate_msgs_per_s = 1e8}},
                               .objectives = {{"ch2_delivered"}}}),
               spec::SpecError);
}

TEST(SpecRun, TraceTrafficSpecMatchesHandAssembledGrid) {
  const std::string path =
      std::string(PHOTECC_SOURCE_DIR) + "/examples/traces/sample.trace";
  const auto by_spec =
      spec::run({.threads = 1,
                 .noc_horizon_s = 5e-7,
                 .oni_counts = {8},
                 .traffic = {{.kind = "trace", .trace_path = path}}});

  explore::ScenarioGrid grid;
  grid.traffic_patterns({explore::trace_traffic(path)})
      .oni_counts({8})
      .noc_horizon(5e-7);
  const auto by_hand = explore::SweepRunner{{1}}.run(grid);
  EXPECT_EQ(by_spec.csv(), by_hand.csv());
  EXPECT_EQ(by_spec.json(), by_hand.json());
  ASSERT_FALSE(by_spec.cells.empty());
  EXPECT_EQ(by_spec.cells.label(0, "traffic").value_or("").rfind("trace@", 0),
            0u);
}

TEST(SpecRun, ThermalPresetRunsAndSeparatesTheSchemes) {
  spec::ExperimentSpec preset =
      spec::preset_registry().make("thermal", "preset");
  preset.threads = 1;
  preset.noc_horizon_s = 1e-6;  // trim for test time
  const auto result = spec::run(preset);
  EXPECT_EQ(result.cells.size(), 9u);  // 3 codes x 3 environments
  // Under the ramp environment, the uncoded scheme suffers thermal
  // drops that H(7,4) does not.
  double uncoded_thermal = -1.0, h74_thermal = -1.0;
  const explore::ResultTable& cells = result.cells;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells.label(i, "environment").value_or("").rfind("ramp", 0) != 0)
      continue;
    if (cells.label(i, "code") == std::make_optional<std::string>("w/o ECC"))
      uncoded_thermal = cells.metric(i, "dropped_thermal").value_or(-1.0);
    if (cells.label(i, "code") == std::make_optional<std::string>("H(7,4)"))
      h74_thermal = cells.metric(i, "dropped_thermal").value_or(-1.0);
  }
  EXPECT_GT(uncoded_thermal, 0.0);
  EXPECT_EQ(h74_thermal, 0.0);
}
