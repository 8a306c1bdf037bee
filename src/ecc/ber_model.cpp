#include "photecc/ecc/ber_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "photecc/math/roots.hpp"
#include "photecc/math/special.hpp"
#include "photecc/math/units.hpp"

namespace photecc::ecc {

double achieved_ber(const BlockCode& code, double snr) {
  return code.decoded_ber(math::raw_ber_from_snr(snr));
}

double required_snr(const BlockCode& code, double target_ber) {
  const double p = code.required_raw_ber(target_ber);
  return math::snr_from_raw_ber(p);
}

double required_snr_uncoded(double target_ber) {
  return math::snr_from_raw_ber(target_ber);
}

double coding_gain_db(const BlockCode& code, double target_ber) {
  const double coded = required_snr(code, target_ber);
  const double uncoded = required_snr_uncoded(target_ber);
  return math::to_db(uncoded / coded);
}

double achieved_ber(const BlockCode& code, double snr,
                    math::Modulation modulation) {
  return code.decoded_ber(math::ber_from_snr(modulation, snr));
}

double required_snr(const BlockCode& code, double target_ber,
                    math::Modulation modulation) {
  return math::snr_from_ber_clamped(modulation,
                                    code.required_raw_ber(target_ber));
}

double coding_gain_db(const BlockCode& code, double target_ber,
                      math::Modulation modulation) {
  const double coded = required_snr(code, target_ber, modulation);
  const double uncoded =
      math::snr_from_ber(modulation, target_ber);
  return math::to_db(uncoded / coded);
}

void BlockCode::check_batch_spans(std::span<const double> targets,
                                  std::span<const RawBerRequirement> out,
                                  std::span<const RawBerSolveTrace> traces) {
  if (out.size() != targets.size() ||
      (!traces.empty() && traces.size() != targets.size()))
    throw std::invalid_argument(
        "required_raw_ber_batch: output size differs from the targets'");
}

// Default numeric inversion for every BlockCode: decoded_ber is strictly
// increasing in p on (0, 0.5] for all codes in this library, so a
// log-space Brent solve of f(x) = log10(decoded_ber(10^x)) - log10(t)
// on [kMinSearchLog10RawBer, log10(0.5)] is robust.
void BlockCode::required_raw_ber_batch(
    std::span<const double> targets, std::span<RawBerRequirement> out,
    std::span<RawBerSolveTrace> traces) const {
  check_batch_spans(targets, out, traces);
  for (const double target : targets)
    if (target <= 0.0 || target >= 0.5)
      throw std::domain_error("required_raw_ber: target outside (0, 0.5)");
  std::fill(traces.begin(), traces.end(), RawBerSolveTrace{});
  if (targets.empty()) return;

  // Target-independent values, once per call: the p = 0.5 guard and
  // log10(decoded_ber) at both bracket edges.  f at an edge is then
  // log10(D(10^edge)) - log10(t), the very expression Brent would
  // evaluate there, so seeding the solver with it changes no bit.
  const double lo = kMinSearchLog10RawBer;
  const double hi = std::log10(0.5);
  const double at_half = decoded_ber(0.5);
  const double log_d_lo = std::log10(decoded_ber(std::pow(10.0, lo)));
  const double log_d_hi = std::log10(decoded_ber(std::pow(10.0, hi)));
  math::RootOptions opts;
  opts.x_tolerance = 1e-13;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (at_half < targets[i]) {
      // The code cannot be this bad below p = 0.5; caller asked for a
      // BER the model cannot represent (never happens for targets below
      // ~0.25).
      out[i] = {0.5, false};
      continue;
    }
    const double log_target = std::log10(targets[i]);
    const double f_lo = log_d_lo - log_target;
    if (f_lo > 0.0) {
      // Target is below what p = kMinSearchRawBer produces — numerically
      // zero channel errors; saturate (explicitly) at the bracket edge.
      out[i] = {kMinSearchRawBer, true};
      continue;
    }
    const auto f = [&](double x) {
      return std::log10(decoded_ber(std::pow(10.0, x))) - log_target;
    };
    const auto result =
        math::brent(f, lo, hi, f_lo, log_d_hi - log_target, opts);
    if (!result || !result->converged)
      throw std::runtime_error("required_raw_ber: inversion failed for " +
                               name());
    if (!traces.empty()) traces[i].iterations = result->iterations;
    // Roots below p ~ 1e-15 sit where 1-vs-(1-p)^(n-1) style decoded-BER
    // models have cancelled to rounding noise (the bracket was "crossed"
    // by noise, not by the model): the target is below the representable
    // range, so saturate explicitly instead of returning a noise root.
    constexpr double kNoiseFloorLog10 = -15.0;
    out[i] = result->root <= kNoiseFloorLog10
                 ? RawBerRequirement{kMinSearchRawBer, true}
                 : RawBerRequirement{std::pow(10.0, result->root), false};
  }
}

}  // namespace photecc::ecc
