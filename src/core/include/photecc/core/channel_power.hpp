// Channel power and energy roll-up (paper Section IV-E):
//
//   Pchannel = P_ENC+DEC + P_MR + P_laser     (per wavelength)
//
// plus the derived figures the evaluation reports: communication time
// CT, energy per payload bit, per-waveguide and whole-interconnect
// power.
#ifndef PHOTECC_CORE_CHANNEL_POWER_HPP
#define PHOTECC_CORE_CHANNEL_POWER_HPP

#include <optional>
#include <string>
#include <vector>

#include "photecc/ecc/block_code.hpp"
#include "photecc/interface/synthesis_model.hpp"
#include "photecc/link/snr_solver.hpp"
#include "photecc/math/modulation.hpp"

namespace photecc::core {

/// System-level constants of the evaluation (paper Section V).
struct SystemConfig {
  double f_mod_hz = 10e9;            ///< modulation speed per wavelength
  std::size_t wavelengths = 16;      ///< NW per waveguide
  std::size_t waveguides_per_channel = 16;
  std::size_t oni_count = 12;        ///< MWSR channels in the interconnect
  /// Interface synthesis source for P_ENC+DEC (Table I by default).
  interface::InterfacePair interface_pair = interface::table1_reference();
};

/// All figures the paper reports for one (code, target BER) pair.
struct SchemeMetrics {
  std::string scheme;          ///< code name
  /// Signaling format the scheme was evaluated at (from the channel).
  math::Modulation modulation = math::Modulation::kOok;
  double target_ber = 0.0;
  double code_rate = 1.0;      ///< Rc = k/n
  /// Communication time normalised to an uncoded OOK transmission of
  /// the same payload: (n/k) / bits_per_symbol(modulation).
  double ct = 1.0;
  link::LinkOperatingPoint operating_point{};
  bool feasible = false;
  /// The code's guaranteed wire-duty bound (see
  /// ecc::BlockCode::transmit_duty_bound); 1.0 for non-cooling codes.
  double duty_bound = 1.0;

  // Per-wavelength power breakdown [W]:
  double p_laser_w = 0.0;
  double p_mr_w = 0.0;
  double p_enc_dec_w = 0.0;
  double p_channel_w = 0.0;

  // Derived figures:
  double energy_per_bit_j = 0.0;       ///< per payload bit
  double p_waveguide_w = 0.0;          ///< Pchannel x NW
  double p_interconnect_w = 0.0;       ///< x waveguides x ONIs
};

/// Maps the paper's three schemes onto Table I interface modes; other
/// codes fall back to the DSENT-style estimator.
double enc_dec_power_per_wavelength_w(const ecc::BlockCode& code,
                                      const SystemConfig& config);

/// Display name of one (scheme, modulation) pair: the scheme name for
/// OOK (the paper's tables), "<scheme> @<format>" otherwise.
std::string scheme_display_name(const SchemeMetrics& metrics);

/// Full evaluation of one scheme at one target BER on one channel, at
/// the channel's t = 0 environment sample (the static operating point).
SchemeMetrics evaluate_scheme(const link::MwsrChannel& channel,
                              const ecc::BlockCode& code, double target_ber,
                              const SystemConfig& config = {});

/// Same, at an explicit environment sample — the manager's
/// recalibration loop re-evaluates here whenever the sampled
/// environment drifts.
SchemeMetrics evaluate_scheme(const link::MwsrChannel& channel,
                              const ecc::BlockCode& code, double target_ber,
                              const SystemConfig& config,
                              const env::EnvironmentSample& environment);

/// Warm-start overload: `previous` is an optional previous-cell result
/// (nullptr = cold).  When it evaluated the SAME code (matched by
/// scheme name) its operating point is offered to the link solver,
/// which reuses the raw-BER/SNR head when the target also bit-matches;
/// any mismatch degrades to the cold evaluation bit-identically.
SchemeMetrics evaluate_scheme(const link::MwsrChannel& channel,
                              const ecc::BlockCode& code, double target_ber,
                              const SystemConfig& config,
                              const env::EnvironmentSample& environment,
                              const SchemeMetrics* previous);

/// Lower-once/execute-many core of evaluate_scheme over one channel:
/// hoists the channel geometry (the worst-channel scan inside
/// link::OperatingPointSolver), the t = 0 environment sample, the
/// per-modulation ring power and the per-code interface/rate algebra
/// out of the per-cell path, leaving only the per-(code, target BER)
/// solve — or, with evaluate_with_requirement, nothing but closed-form
/// arithmetic.  Every entry point is bit-identical to the one-shot
/// evaluate_scheme on the same inputs (the hoisted subexpressions keep
/// its exact evaluation order).  The channel must outlive the plan.
class ChannelSweepPlan {
 public:
  ChannelSweepPlan(const link::MwsrChannel& channel,
                   std::vector<ecc::BlockCodePtr> codes,
                   const SystemConfig& config = {});

  [[nodiscard]] std::size_t code_count() const noexcept {
    return codes_.size();
  }
  [[nodiscard]] const ecc::BlockCode& code(std::size_t i) const {
    return *codes_.at(i).code;
  }
  [[nodiscard]] const link::OperatingPointSolver& solver() const noexcept {
    return solver_;
  }

  /// Bit-identical to
  /// evaluate_scheme(channel, *codes[code_index], target_ber, config).
  [[nodiscard]] SchemeMetrics evaluate(
      std::size_t code_index, double target_ber,
      ecc::RawBerSolveTrace* trace = nullptr) const;

  /// Tail of evaluate() from a precomputed raw-BER requirement (the
  /// explore plan's shared (code, BER) table).  `raw_ber` must equal
  /// code.required_raw_ber(target_ber) for bit-identity.
  [[nodiscard]] SchemeMetrics evaluate_with_requirement(
      std::size_t code_index, double target_ber, double raw_ber) const;

  /// Tail from a precomputed (raw BER, SNR) pair — the entry
  /// LoweredPlan's hoisted tables feed.  `snr` must equal
  /// math::snr_from_ber_clamped(modulation, raw_ber) for bit-identity.
  [[nodiscard]] SchemeMetrics evaluate_with_solution(
      std::size_t code_index, double target_ber, double raw_ber,
      double snr) const;

  [[nodiscard]] math::Modulation modulation() const noexcept {
    return modulation_;
  }

 private:
  struct CodeInvariants {
    ecc::BlockCodePtr code;
    std::string name;
    double code_rate = 1.0;
    double communication_time = 1.0;
    double p_enc_dec_w = 0.0;
    double duty_bound = 1.0;
  };

  const link::MwsrChannel* channel_;
  link::OperatingPointSolver solver_;
  env::EnvironmentSample environment_{};
  math::Modulation modulation_ = math::Modulation::kOok;
  double bits_per_symbol_ = 1.0;
  double f_mod_x_bits_per_symbol_hz_ = 0.0;
  double p_mr_w_ = 0.0;
  double wavelengths_d_ = 0.0;
  double waveguides_d_ = 0.0;
  double oni_d_ = 0.0;
  std::vector<CodeInvariants> codes_;
};

/// Laser-power headroom of an evaluated scheme under `environment`: the
/// deliverable maximum at the duty-bounded activity minus the required
/// operating point, in watts.  Negative means infeasible.  Shared by
/// the explore evaluators and the lowered plan so the cooling metric
/// columns are byte-identical across both paths.
double thermal_headroom_w(const link::MwsrChannel& channel,
                          const SchemeMetrics& metrics,
                          const env::EnvironmentSample& environment);

/// Evaluates several schemes at the same target.
std::vector<SchemeMetrics> evaluate_schemes(
    const link::MwsrChannel& channel,
    const std::vector<ecc::BlockCodePtr>& codes, double target_ber,
    const SystemConfig& config = {});

/// Same, at an explicit environment sample.
std::vector<SchemeMetrics> evaluate_schemes(
    const link::MwsrChannel& channel,
    const std::vector<ecc::BlockCodePtr>& codes, double target_ber,
    const SystemConfig& config, const env::EnvironmentSample& environment);

}  // namespace photecc::core

#endif  // PHOTECC_CORE_CHANNEL_POWER_HPP
