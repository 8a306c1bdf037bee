// Private to photecc::spec: lower() without its validate() call.
// validate() itself ends by reading the grid's result schema to check
// the objectives, so it builds the grid through this.
#ifndef PHOTECC_SPEC_LOWERING_HPP
#define PHOTECC_SPEC_LOWERING_HPP

#include "photecc/explore/grid.hpp"
#include "photecc/spec/spec.hpp"

namespace photecc::spec::detail {
[[nodiscard]] explore::ScenarioGrid lower_unchecked(const ExperimentSpec& spec);
}  // namespace photecc::spec::detail

#endif  // PHOTECC_SPEC_LOWERING_HPP
