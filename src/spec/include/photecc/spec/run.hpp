// Lowering: ExperimentSpec -> the existing explore engine.  The spec
// layer adds no execution machinery of its own — run() validates,
// resolves every registry name (the evaluator name included: it becomes
// the grid's simulator flag, so ScenarioGrid::runs_simulator stays the
// one routing decision), materialises the ScenarioGrid and hands it to
// SweepRunner, so a spec-driven sweep is byte-identical to the
// hand-assembled grid it replaces (for any thread count, by the
// engine's slot-indexed determinism).
#ifndef PHOTECC_SPEC_RUN_HPP
#define PHOTECC_SPEC_RUN_HPP

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

/// Validate, lower and execute: SweepRunner{{spec.threads}} over
/// lower(spec).
[[nodiscard]] explore::ExperimentResult run(const ExperimentSpec& spec);

}  // namespace photecc::spec

#endif  // PHOTECC_SPEC_RUN_HPP
