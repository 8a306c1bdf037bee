// Lowering: ExperimentSpec -> the existing explore engine.  The spec
// layer adds no execution machinery of its own — run() validates,
// resolves every registry name, materialises the ScenarioGrid and hands
// it to SweepRunner (or its lowered link plan), so a spec-driven sweep
// is byte-identical to the hand-assembled grid it replaces (for any
// thread count, by the engine's slot-indexed determinism).
#ifndef PHOTECC_SPEC_RUN_HPP
#define PHOTECC_SPEC_RUN_HPP

#include <optional>
#include <vector>

#include "photecc/explore/grid.hpp"
#include "photecc/explore/result.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/spec/spec.hpp"

namespace photecc::spec {

/// The ScenarioGrid a spec describes.  Validates first; throws
/// SpecError on any unresolvable name or out-of-range value.
[[nodiscard]] explore::ScenarioGrid lower(const ExperimentSpec& spec);

/// The spec's objectives on the explore engine's Objective type.
[[nodiscard]] std::vector<explore::Objective> lower_objectives(
    const ExperimentSpec& spec);

/// The per-cell evaluator `spec` runs on `grid` (= lower(spec)), or
/// nullopt when its cells run on the lowered link plan.  "auto" and
/// "link" take the plan (byte-identical to evaluate_link_cell) unless
/// the grid runs the simulator (explore::ScenarioGrid::runs_simulator);
/// "auto" on such a grid is the "network" evaluator, and every other
/// name resolves through evaluator_registry().  run() and the serve
/// daemon both route through this one decision.
[[nodiscard]] std::optional<explore::SweepRunner::Evaluator> cell_evaluator(
    const ExperimentSpec& spec, const explore::ScenarioGrid& grid);

/// Validate, lower and execute: SweepRunner{{spec.threads}} over
/// lower(spec) with cell_evaluator(), or the lowered plan.
[[nodiscard]] explore::ExperimentResult run(const ExperimentSpec& spec);

}  // namespace photecc::spec

#endif  // PHOTECC_SPEC_RUN_HPP
