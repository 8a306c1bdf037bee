// Explore hot-path benchmark: the lowered sweep plan against the
// legacy per-cell evaluator.
//
// Part 1 (headline): the 600-cell Fig. 6b-style grid (full code family
// x 6 BER targets x 5 waveguide lengths) evaluated cold — per-cell
// evaluate_link_cell, rebuilding the channel and re-running the code
// inversion for every cell — and through explore::LoweredPlan.  The
// exports must be byte-identical (cold vs plan, and plan at 1 vs 4
// threads); the plan must deliver >= 10x per-cell throughput including
// its own lowering time.
//
// Part 2 (scale): a 100 000-cell grid (codes x 100 BER targets x 5
// links x 5 ONI counts x 2 modulations) executed plan-only, sequential
// and multi-threaded — the datapoint that the hot path holds its
// throughput when the grid outgrows any per-cell approach.
//
// Usage: bench_explore_hotpath [--smoke]
//   --smoke: a 12-cell grid, cold-vs-plan and 1-vs-4-thread byte
//   identity plus counter sanity only (no timing assertion — CI runs
//   this in Debug).  Exit code != 0 on any identity or counter failure.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "photecc/ecc/registry.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/plan.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/math/parallel.hpp"
#include "photecc/spec/run.hpp"

namespace {

using namespace photecc;

std::vector<std::string> all_code_names() {
  std::vector<std::string> names;
  for (const auto& code : ecc::all_known_codes())
    names.push_back(code->name());
  return names;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Cold reference: the per-cell evaluate_link_cell path, sequential.
explore::ExperimentResult run_cold(const explore::ScenarioGrid& grid) {
  explore::ExperimentResult result;
  result.cells = explore::ResultTable(explore::result_schema(grid),
                                      grid.size(), true);
  for (std::size_t i = 0; i < grid.size(); ++i)
    explore::evaluate_link_cell(grid.at(i), result.cells);
  return result;
}

/// Byte-compares two results' exports; reports and returns false on
/// mismatch.
bool identical_exports(const explore::ExperimentResult& a,
                       const explore::ExperimentResult& b,
                       const std::string& what) {
  if (a.csv() == b.csv() && a.json() == b.json()) return true;
  std::cerr << "FAILED: " << what << " exports differ\n";
  return false;
}

bool check(bool condition, const std::string& what) {
  if (!condition) std::cerr << "FAILED: " << what << "\n";
  return condition;
}

int run_smoke() {
  const spec::ExperimentSpec experiment{
      .codes = explore::paper_scheme_names(),
      .ber_targets = {1e-8, 1e-10},
      .links = {"2 cm", "4 cm"}};
  const explore::ScenarioGrid grid = spec::lower(experiment);
  const auto cold = run_cold(grid);

  const explore::LoweredPlan plan{grid};
  const auto sequential = plan.execute(1);
  const auto parallel = plan.execute(4);

  bool ok = identical_exports(cold, sequential, "cold vs plan");
  ok &= identical_exports(sequential, parallel, "1 vs 4 thread plan");
  const auto& stats = *sequential.stats;
  ok &= check(stats.cells == 12, "12 cells executed");
  ok &= check(stats.channels_lowered == 2, "2 channel combos lowered");
  ok &= check(stats.root_solves == 6, "6 (code, BER) root solves");
  ok &= check(stats.warm_reuses == 6, "6 warm reuses");
  ok &= check(stats.solver_iterations > 0, "solver iterations counted");
  if (!ok) return 1;
  std::cout << "smoke OK: 12-cell grid byte-identical cold vs plan and 1 "
               "vs 4 threads; counters "
            << stats.json() << "\n";
  return 0;
}

int run_full() {
  // --- Part 1: the 600-cell Fig. 6b-style grid, cold vs lowered.
  const spec::ExperimentSpec headline{
      .name = "hotpath-600",
      .codes = all_code_names(),
      .ber_targets = {1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11},
      .links = {"2 cm", "4 cm", "6 cm", "10 cm", "14 cm"}};
  const explore::ScenarioGrid grid = spec::lower(headline);

  auto start = std::chrono::steady_clock::now();
  const auto cold = run_cold(grid);
  const double cold_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  const explore::LoweredPlan plan{grid};
  const auto lowered = plan.execute(1);
  const double plan_s = seconds_since(start);  // lowering + execution
  const auto parallel = plan.execute(4);

  bool ok = identical_exports(cold, lowered, "600-cell cold vs plan");
  ok &= identical_exports(lowered, parallel, "600-cell 1 vs 4 threads");

  const double speedup = plan_s > 0.0 ? cold_s / plan_s : 0.0;
  const auto& stats = *lowered.stats;

  // --- Part 2: plan-only scaling datapoint, >= 100k cells.
  std::vector<double> dense_bers;
  for (int i = 0; i < 100; ++i)
    dense_bers.push_back(std::pow(10.0, -4.0 - 9.0 * i / 99.0));
  const spec::ExperimentSpec scale{
      .name = "hotpath-scale",
      .codes = all_code_names(),
      .ber_targets = dense_bers,
      .links = {"2 cm", "4 cm", "6 cm", "10 cm", "14 cm"},
      .oni_counts = {4, 8, 12, 16, 32},
      .modulations = {"ook", "pam4"}};
  const explore::ScenarioGrid scale_grid = spec::lower(scale);
  const explore::LoweredPlan scale_plan{scale_grid};
  const auto scale_seq = scale_plan.execute(1);
  const auto scale_par = scale_plan.execute(0);
  ok &= identical_exports(scale_seq, scale_par, "scale 1 vs N threads");
  const auto& scale_stats = *scale_seq.stats;

  std::cout << "{\n"
            << "  \"benchmark\": \"explore_hotpath\",\n"
            << "  \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ",\n"
            << "  \"threads_available\": " << math::default_thread_count()
            << ",\n"
            << "  \"headline_cells\": " << cold.cells.size() << ",\n"
            << "  \"cold_s\": " << cold_s << ",\n"
            << "  \"plan_s\": " << plan_s << ",\n"
            << "  \"speedup\": " << speedup << ",\n"
            << "  \"identical_output\": " << (ok ? "true" : "false") << ",\n"
            << "  \"headline_plan\": " << stats.json() << ",\n"
            << "  \"scale_cells\": " << scale_seq.cells.size() << ",\n"
            << "  \"scale_sequential_s\": " << scale_seq.wall_time_s << ",\n"
            << "  \"scale_parallel_s\": " << scale_par.wall_time_s << ",\n"
            << "  \"scale_plan\": " << scale_stats.json() << "\n"
            << "}\n";

  ok &= check(speedup >= 10.0, "plan >= 10x per-cell throughput");
  ok &= check(scale_seq.cells.size() >= 100000,
              "scaling grid >= 100k cells");
  // The parallel-speedup expectation only makes sense with real cores:
  // on a 1-core container thread-pool overhead dominates a sub-ms
  // workload, so such hosts pin only the byte-identity contract above.
  if (std::thread::hardware_concurrency() > 1)
    ok &= check(scale_par.wall_time_s < scale_seq.wall_time_s,
                "parallel 100k-cell run beats sequential on a multicore "
                "host");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  try {
    return smoke ? run_smoke() : run_full();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
