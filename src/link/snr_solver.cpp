#include "photecc/link/snr_solver.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "photecc/ecc/ber_model.hpp"
#include "photecc/math/modulation.hpp"
#include "photecc/math/special.hpp"

namespace photecc::link {

OperatingPointSolver::OperatingPointSolver(const MwsrChannel& channel,
                                           std::size_t ch)
    : channel_(&channel), ch_(ch) {
  // Both the eye power and the crosstalk scale linearly with the common
  // per-carrier laser output power OP:
  //   OP_eye = OP * T_eye,   OP_xt = OP * T_xt
  //   SNR = R (OP_eye - OP_xt) / i_n
  // => OP = SNR i_n / (R (T_eye - T_xt)).
  t_eye_ = channel.eye_transmission(ch);
  t_xt_ = channel.crosstalk_transmission(ch);
  margin_ = t_eye_ - t_xt_;
  const auto& det = channel.detector().params();
  op_denominator_ = det.responsivity_a_per_w * margin_;
  dark_current_a_ = det.dark_current_a;
}

OperatingPointSolver::OperatingPointSolver(const MwsrChannel& channel)
    : OperatingPointSolver(channel, channel.worst_channel()) {}

namespace {

/// Activity the laser thermally sees under a guaranteed wire-duty
/// bound.  The branch (rather than an unconditional multiply) keeps the
/// duty_bound == 1.0 path bit-identical to the pre-duty solver even for
/// activities where `activity * 1.0` could round.
[[nodiscard]] double effective_activity(double activity,
                                        double duty_bound) noexcept {
  return duty_bound < 1.0 ? activity * duty_bound : activity;
}

}  // namespace

LinkOperatingPoint OperatingPointSolver::solve_from_raw_ber(
    double raw_ber, double target_ber,
    const env::EnvironmentSample& environment, double duty_bound) const {
  // Full-eye SNR: for multilevel formats the per-boundary requirement
  // scales by (levels-1)^2, which snr_from_ber_clamped folds in.
  return solve_from_snr(
      raw_ber,
      math::snr_from_ber_clamped(channel_->params().modulation, raw_ber),
      target_ber, environment, duty_bound);
}

LinkOperatingPoint OperatingPointSolver::solve_from_snr(
    double raw_ber, double snr, double target_ber,
    const env::EnvironmentSample& environment, double duty_bound) const {
  LinkOperatingPoint point;
  point.target_ber = target_ber;
  point.raw_ber = raw_ber;
  point.snr = snr;
  if (margin_ <= 0.0) {
    // Crosstalk exceeds the eye: no laser power can reach the target.
    point.feasible = false;
    point.op_laser_w = std::numeric_limits<double>::infinity();
    return point;
  }
  point.op_laser_w = point.snr * dark_current_a_ / op_denominator_;
  point.op_signal_w = point.op_laser_w * t_eye_;
  point.op_crosstalk_w = point.op_laser_w * t_xt_;

  const auto electrical = channel_->laser().electrical_power(
      point.op_laser_w,
      effective_activity(environment.activity, duty_bound));
  if (electrical) {
    point.feasible = true;
    point.p_laser_w = *electrical;
  }
  return point;
}

LinkOperatingPoint OperatingPointSolver::solve(
    const ecc::BlockCode& code, double target_ber,
    const env::EnvironmentSample& environment,
    const LinkOperatingPoint* previous, ecc::RawBerSolveTrace* trace) const {
  if (target_ber <= 0.0 || target_ber >= 0.5)
    throw std::domain_error(
        "solve_operating_point: target BER outside (0, 0.5)");
  // The raw-BER head depends only on (code, target): a previous-cell
  // solution for the bit-equal target is reused verbatim, anything else
  // re-runs the inversion — bit-identical either way.
  if (previous && previous->target_ber == target_ber) {
    if (trace) *trace = {};
    return solve_from_raw_ber(previous->raw_ber, target_ber, environment,
                              code.transmit_duty_bound());
  }
  return solve_from_raw_ber(
      code.required_raw_ber_checked(target_ber, trace).raw_ber, target_ber,
      environment, code.transmit_duty_bound());
}

LinkOperatingPoint OperatingPointSolver::solve(
    const ecc::BlockCode& code, double target_ber,
    const env::EnvironmentSample& environment,
    ecc::RawBerSolveTrace* trace) const {
  return solve(code, target_ber, environment, nullptr, trace);
}

LinkOperatingPoint solve_operating_point(
    const MwsrChannel& channel, const ecc::BlockCode& code,
    double target_ber, std::size_t ch,
    const env::EnvironmentSample& environment) {
  return OperatingPointSolver{channel, ch}.solve(code, target_ber,
                                                 environment);
}

LinkOperatingPoint solve_operating_point(
    const MwsrChannel& channel, const ecc::BlockCode& code,
    double target_ber, const env::EnvironmentSample& environment) {
  return solve_operating_point(channel, code, target_ber,
                               channel.worst_channel(), environment);
}

LinkOperatingPoint solve_operating_point(
    const MwsrChannel& channel, const ecc::BlockCode& code,
    double target_ber, const env::EnvironmentSample& environment,
    const LinkOperatingPoint* previous) {
  return OperatingPointSolver{channel}.solve(code, target_ber, environment,
                                             previous);
}

LinkOperatingPoint solve_operating_point(const MwsrChannel& channel,
                                         const ecc::BlockCode& code,
                                         double target_ber, std::size_t ch) {
  return solve_operating_point(channel, code, target_ber, ch,
                               channel.environment());
}

LinkOperatingPoint solve_operating_point(const MwsrChannel& channel,
                                         const ecc::BlockCode& code,
                                         double target_ber) {
  return solve_operating_point(channel, code, target_ber,
                               channel.worst_channel(),
                               channel.environment());
}

double best_achievable_ber(const MwsrChannel& channel,
                           const ecc::BlockCode& code,
                           const env::EnvironmentSample& environment) {
  const std::size_t ch = channel.worst_channel();
  const double t_eye = channel.eye_transmission(ch);
  const double t_xt = channel.crosstalk_transmission(ch);
  const double margin = t_eye - t_xt;
  if (margin <= 0.0) return 0.5;
  const auto& det = channel.detector().params();
  const double op_max = channel.laser().max_optical_power(
      code.transmit_duty_bound() < 1.0
          ? environment.activity * code.transmit_duty_bound()
          : environment.activity);
  const double snr_max =
      det.responsivity_a_per_w * op_max * margin / det.dark_current_a;
  return ecc::achieved_ber(code, snr_max, channel.params().modulation);
}

double best_achievable_ber(const MwsrChannel& channel,
                           const ecc::BlockCode& code) {
  return best_achievable_ber(channel, code, channel.environment());
}

}  // namespace photecc::link
