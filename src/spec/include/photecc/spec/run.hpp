// Lowering: ExperimentSpec -> the existing explore engine.  The spec
// layer adds no execution machinery of its own.  lower() is the one
// checked walk over the spec: field by field (evaluator, base, codes,
// BER, links, ONI, traffic, policies, modulations, environments,
// network) it resolves each registry name once, range-checks the value
// and sets it on the ScenarioGrid.  The evaluator name becomes the
// grid's simulator flag, so the checks that depend on routing (an
// explicit "link" evaluator, time-varying environments) ask the
// finished grid's runs_simulator(), the one routing decision; the
// objectives are then checked against the grid's result schema.  run()
// hands that grid to SweepRunner, so a spec-driven sweep is
// byte-identical to the hand-assembled grid it replaces (for any thread
// count, by the engine's slot-indexed determinism).
#ifndef PHOTECC_SPEC_RUN_HPP
#define PHOTECC_SPEC_RUN_HPP

#include <vector>

#include "photecc/explore/grid.hpp"
#include "photecc/explore/result.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/spec/spec.hpp"

namespace photecc::spec {

/// The ScenarioGrid a spec describes.  Throws SpecError (field path +
/// reason) on the first unresolvable name, out-of-range value or
/// unknown objective metric; spec::validate is this call with the grid
/// discarded.
[[nodiscard]] explore::ScenarioGrid lower(const ExperimentSpec& spec);

/// The spec's objectives on the explore engine's Objective type.
[[nodiscard]] std::vector<explore::Objective> lower_objectives(
    const ExperimentSpec& spec);

/// Lower and execute: SweepRunner{{spec.threads}} over lower(spec).
[[nodiscard]] explore::ExperimentResult run(const ExperimentSpec& spec);

}  // namespace photecc::spec

#endif  // PHOTECC_SPEC_RUN_HPP
