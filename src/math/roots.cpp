#include "photecc/math/roots.hpp"

#include <cmath>

namespace photecc::math {

std::optional<RootResult> bisect(const std::function<double(double)>& f,
                                 double lo, double hi,
                                 const RootOptions& opts) {
  if (!(lo < hi)) return std::nullopt;
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return RootResult{lo, 0.0, 0, true};
  if (fhi == 0.0) return RootResult{hi, 0.0, 0, true};
  if (std::signbit(flo) == std::signbit(fhi)) return std::nullopt;

  RootResult r;
  for (r.iterations = 0; r.iterations < opts.max_iterations; ++r.iterations) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0 || (hi - lo) < opts.x_tolerance ||
        (opts.f_tolerance > 0.0 && std::abs(fmid) < opts.f_tolerance)) {
      r.root = mid;
      r.residual = fmid;
      r.converged = true;
      return r;
    }
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  r.root = 0.5 * (lo + hi);
  r.residual = f(r.root);
  r.converged = (hi - lo) < 1e4 * opts.x_tolerance;
  return r;
}

}  // namespace photecc::math
