// Block-streaming LoweredPlan::execute: blocks are delivered in
// ascending order at every thread count, each block's cells are final
// when its callback runs, and the assembled result is byte-identical to
// the one-shot execute.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/explore/plan.hpp"
#include "photecc/explore/result.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/run.hpp"

namespace {

using photecc::explore::ExperimentResult;
using photecc::explore::LoweredPlan;
using photecc::explore::ResultTable;

/// A link-only grid with enough cells (3 codes x 4 BERs x 2 ONI counts
/// = 24) to span several small blocks.
photecc::explore::ScenarioGrid streaming_grid() {
  auto spec = photecc::spec::preset_registry().make("fig6b", "preset");
  spec.oni_counts = {8, 12};
  return photecc::spec::lower(spec);
}

std::string cell_json(const ResultTable& cells, std::size_t row) {
  std::string out;
  cells.append_cell_json(out, row);
  return out;
}

TEST(PlanStream, BlocksArriveInOrderAndComplete) {
  const LoweredPlan plan(streaming_grid(), {.block_size = 5});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    std::vector<std::string> streamed;
    const ExperimentResult result = plan.execute(
        threads, [&](std::size_t begin, std::size_t end,
                     const ResultTable& cells) {
          blocks.emplace_back(begin, end);
          for (std::size_t i = begin; i < end; ++i)
            streamed.push_back(cell_json(cells, i));
        });

    // The fixed partition of parallel_for_blocks: [0,5), [5,10), ...
    ASSERT_EQ(blocks.size(), (plan.size() + 4) / 5) << threads;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_EQ(blocks[b].first, b * 5) << threads;
      EXPECT_EQ(blocks[b].second, std::min(plan.size(), b * 5 + 5))
          << threads;
    }

    // Every cell was final at delivery time: the streamed serialisation
    // matches the assembled result's, cell for cell.
    ASSERT_EQ(streamed.size(), result.cells.size()) << threads;
    for (std::size_t i = 0; i < streamed.size(); ++i)
      EXPECT_EQ(streamed[i], cell_json(result.cells, i)) << threads;
  }
}

TEST(PlanStream, AssembledResultMatchesOneShotByteForByte) {
  const LoweredPlan plan(streaming_grid(), {.block_size = 7});
  const std::string reference = plan.execute(1).json();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::size_t calls = 0;
    const ExperimentResult streamed = plan.execute(
        threads,
        [&](std::size_t, std::size_t, const ResultTable&) {
          ++calls;
        });
    EXPECT_EQ(streamed.json(), reference) << threads;
    EXPECT_EQ(streamed.csv(), plan.execute(1).csv()) << threads;
    EXPECT_EQ(calls, (plan.size() + 6) / 7) << threads;
  }
}

TEST(PlanStream, EmptyCallbackMatchesPlainExecute) {
  const LoweredPlan plan(streaming_grid(), {.block_size = 64});
  EXPECT_EQ(plan.execute(2, {}).json(), plan.execute(2).json());
}

TEST(SweepStats, MergeAddsEveryCounter) {
  photecc::explore::SweepStats a;
  a.cells = 10;
  a.channels_lowered = 2;
  a.root_solves = 4;
  a.solver_iterations = 100;
  a.warm_reuses = 6;
  a.lower_time_s = 0.5;
  a.execute_time_s = 1.5;
  photecc::explore::SweepStats b = a;
  b.cells = 3;
  a.merge(b);
  EXPECT_EQ(a.cells, 13u);
  EXPECT_EQ(a.channels_lowered, 4u);
  EXPECT_EQ(a.root_solves, 8u);
  EXPECT_EQ(a.solver_iterations, 200u);
  EXPECT_EQ(a.warm_reuses, 12u);
  EXPECT_DOUBLE_EQ(a.lower_time_s, 1.0);
  EXPECT_DOUBLE_EQ(a.execute_time_s, 3.0);
}

TEST(SweepStats, AsReplayKeepsCellsAndZeroesWork) {
  photecc::explore::SweepStats run;
  run.cells = 24;
  run.channels_lowered = 2;
  run.root_solves = 12;
  run.solver_iterations = 500;
  run.warm_reuses = 12;
  run.lower_time_s = 0.25;
  run.execute_time_s = 0.75;
  const photecc::explore::SweepStats replay = run.as_replay();
  EXPECT_EQ(replay.cells, 24u);
  EXPECT_EQ(replay.channels_lowered, 0u);
  EXPECT_EQ(replay.root_solves, 0u);
  EXPECT_EQ(replay.solver_iterations, 0u);
  EXPECT_EQ(replay.warm_reuses, 0u);
  EXPECT_EQ(replay.lower_time_s, 0.0);
  EXPECT_EQ(replay.execute_time_s, 0.0);

  // The serve accounting pattern: a compute run merged in full plus a
  // cached replay counts every cell but only the first run's work.
  photecc::explore::SweepStats lifetime;
  lifetime.merge(run);
  lifetime.merge(run.as_replay());
  EXPECT_EQ(lifetime.cells, 48u);
  EXPECT_EQ(lifetime.root_solves, 12u);
  EXPECT_DOUBLE_EQ(lifetime.execute_time_s, 0.75);
}

}  // namespace
