// Scalar root finding used to invert the paper's BER / link models
// (Eq. 2 inversion, laser operating-point solves).
#ifndef PHOTECC_MATH_ROOTS_HPP
#define PHOTECC_MATH_ROOTS_HPP

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>

namespace photecc::math {

/// Options controlling the iterative solvers.
struct RootOptions {
  double x_tolerance = 1e-14;   ///< absolute tolerance on the root
  double f_tolerance = 0.0;     ///< |f| early-exit tolerance (0 = off)
  int max_iterations = 200;     ///< iteration budget
};

/// Result of a root solve.
struct RootResult {
  double root = 0.0;
  double residual = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Bisection on [lo, hi].  f(lo) and f(hi) must bracket a sign change;
/// returns std::nullopt otherwise.  Robust and derivative-free.
std::optional<RootResult> bisect(const std::function<double(double)>& f,
                                 double lo, double hi,
                                 const RootOptions& opts = {});

/// Brent's method on [lo, hi] with f(lo) = `flo` and f(hi) = `fhi`
/// already evaluated by the caller (bracketing required).  The iterates,
/// the root and the iteration count are exactly those of
/// brent(f, lo, hi, opts) whenever flo and fhi are bit-equal to f(lo)
/// and f(hi): callers that solve many targets on one bracket evaluate
/// the shared part of the edge values once.
template <class F>
std::optional<RootResult> brent(F&& f, double lo, double hi, double flo,
                                double fhi, const RootOptions& opts = {}) {
  double a = lo, b = hi;
  double fa = flo, fb = fhi;
  if (fa == 0.0) return RootResult{a, 0.0, 0, true};
  if (fb == 0.0) return RootResult{b, 0.0, 0, true};
  if (std::signbit(fa) == std::signbit(fb)) return std::nullopt;

  double c = a, fc = fa;
  double d = b - a, e = d;
  RootResult r;
  for (r.iterations = 0; r.iterations < opts.max_iterations; ++r.iterations) {
    if (std::abs(fc) < std::abs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol = 2.0 * std::numeric_limits<double>::epsilon() *
                           std::abs(b) + 0.5 * opts.x_tolerance;
    const double m = 0.5 * (c - b);
    if (std::abs(m) <= tol || fb == 0.0 ||
        (opts.f_tolerance > 0.0 && std::abs(fb) < opts.f_tolerance)) {
      r.root = b;
      r.residual = fb;
      r.converged = true;
      return r;
    }
    if (std::abs(e) >= tol && std::abs(fa) > std::abs(fb)) {
      // Attempt inverse quadratic interpolation / secant.
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double rr = fb / fc;
        p = s * (2.0 * m * qq * (qq - rr) - (b - a) * (rr - 1.0));
        q = (qq - 1.0) * (rr - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q; else p = -p;
      if (2.0 * p < std::min(3.0 * m * q - std::abs(tol * q),
                             std::abs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = m;
        e = m;
      }
    } else {
      d = m;
      e = m;
    }
    a = b;
    fa = fb;
    b += (std::abs(d) > tol) ? d : (m > 0.0 ? tol : -tol);
    fb = f(b);
    if (std::signbit(fb) == std::signbit(fc)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
  }
  r.root = b;
  r.residual = fb;
  r.converged = false;
  return r;
}

/// Brent's method on [lo, hi] (bracketing required).  Faster convergence
/// than bisection with the same robustness guarantees.
template <class F>
std::optional<RootResult> brent(F&& f, double lo, double hi,
                                const RootOptions& opts = {}) {
  const double flo = f(lo);
  const double fhi = f(hi);
  return brent(f, lo, hi, flo, fhi, opts);
}

}  // namespace photecc::math

#endif  // PHOTECC_MATH_ROOTS_HPP
