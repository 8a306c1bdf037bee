// Abstract interface for the (n, k) block codes studied in the paper,
// combining the bit-true codec with the analytic post-decoding BER model
// (Eq. 2) used by the link-power solver.
#ifndef PHOTECC_ECC_BLOCK_CODE_HPP
#define PHOTECC_ECC_BLOCK_CODE_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "photecc/ecc/bitslab.hpp"
#include "photecc/ecc/bitvec.hpp"

namespace photecc::ecc {

/// Smallest raw channel error probability the analytic BER inversions
/// search over (the 10^-18 bracket edge).  Targets whose inversion
/// falls below it saturate to this value — see
/// BlockCode::required_raw_ber_checked.
inline constexpr double kMinSearchRawBer = 1e-18;

/// log10(kMinSearchRawBer); the shared lower bracket of every
/// log-domain BER solve (BlockCode, core::ArqScheme, core::HarqScheme).
inline constexpr double kMinSearchLog10RawBer = -18.0;

/// Result of inverting a post-decoding BER model: the required raw
/// channel error probability, plus an explicit flag when the target was
/// below the representable range and the result is the saturated
/// bracket edge kMinSearchRawBer (i.e. "any channel at least this
/// clean"), not an exact inverse.
struct RawBerRequirement {
  double raw_ber = 0.0;
  bool saturated = false;
};

/// Observability record of one BER inversion (sweep-plan counters):
/// how many root-finder iterations it cost.  Closed-form inversions
/// (UncodedScheme) and the guard and saturation shortcuts report zero
/// iterations.
struct RawBerSolveTrace {
  int iterations = 0;
};

/// Outcome of decoding one 64-lane slab of received blocks.  The masks
/// carry one bit per lane (bit l = lane l), restricted to the slab's
/// lane_mask(); lane semantics match the scalar DecodeResult flags
/// exactly — the batch contract is bit identity with per-lane decode().
/// (corrected_position has no batch counterpart: no shipped consumer
/// reads it in bulk, and carrying it would serialise the kernels.)
struct BatchDecodeResult {
  codec::BitSlab messages;              ///< k-position slab of messages
  std::uint64_t error_detected = 0;     ///< lanes with a non-zero syndrome
  std::uint64_t corrected = 0;          ///< lanes where a correction applied
};

/// Outcome of decoding one received block.
struct DecodeResult {
  BitVec message;                ///< recovered k message bits
  bool error_detected = false;   ///< syndrome was non-zero
  bool corrected = false;        ///< a correction was applied
  /// Codeword bit index that was flipped, when corrected is true.
  std::optional<std::size_t> corrected_position;
};

/// An (n, k) block code: bit-true encode/decode plus the analytic BER
/// model the paper builds its laser-power trade-off on.
class BlockCode {
 public:
  virtual ~BlockCode() = default;

  /// Human-readable name, e.g. "H(7,4)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Codeword length n in bits.
  [[nodiscard]] virtual std::size_t block_length() const noexcept = 0;

  /// Message length k in bits.
  [[nodiscard]] virtual std::size_t message_length() const noexcept = 0;

  /// Minimum Hamming distance of the code.
  [[nodiscard]] virtual std::size_t min_distance() const noexcept = 0;

  /// Encodes k message bits into an n-bit codeword.
  /// Throws std::invalid_argument on size mismatch.
  [[nodiscard]] virtual BitVec encode(const BitVec& message) const = 0;

  /// Decodes an n-bit received word, correcting up to the guaranteed
  /// correction capability.  Throws std::invalid_argument on size
  /// mismatch.
  [[nodiscard]] virtual DecodeResult decode(const BitVec& received) const = 0;

  /// Batch encode: a k-position message slab (one message per lane) to
  /// an n-position codeword slab with the same lane count.  The base
  /// implementation is a scalar fallback — transpose out, encode() each
  /// lane, transpose back in — so overrides are bit-identical to it by
  /// construction; the menu codes override it with straight-line
  /// word-parallel kernels (parity-mask XOR networks for Hamming,
  /// word-wide LFSR division for BCH, ...).  Throws std::invalid_argument
  /// when messages.bits() != message_length().
  [[nodiscard]] virtual codec::BitSlab encode_batch(
      const codec::BitSlab& messages) const;

  /// Batch decode: an n-position received slab to per-lane messages and
  /// detected/corrected lane masks.  Same contract as encode_batch:
  /// the scalar fallback decodes lane by lane, and every override must
  /// be bit-identical to it (messages and masks) for all inputs.
  /// Throws std::invalid_argument when received.bits() != block_length().
  [[nodiscard]] virtual BatchDecodeResult decode_batch(
      const codec::BitSlab& received) const;

  /// Post-decoding bit error rate as a function of the raw channel bit
  /// error probability p.  For Hamming codes this is the paper's Eq. 2:
  /// BER = p - p (1-p)^(n-1).
  [[nodiscard]] virtual double decoded_ber(double raw_p) const = 0;

  /// Batch inverse of decoded_ber with explicit saturation: out[i] is
  /// the raw channel error probability that yields targets[i] after
  /// decoding.  When a target is below what p = kMinSearchRawBer
  /// produces, the result is {kMinSearchRawBer, saturated == true}.
  /// `out` must hold targets.size() entries, and so must `traces` unless
  /// it is empty (std::invalid_argument); traces[i] receives target i's
  /// iteration count (the sweep plans aggregate it).  Every target is
  /// range-checked before any is solved (std::domain_error).
  ///
  /// The default implementation inverts decoded_ber numerically
  /// (decoded_ber must be strictly increasing on (0, 0.5], which holds
  /// for every code here) by a log-space Brent solve per target.  The
  /// target-independent values — the p = 0.5 guard and decoded_ber at
  /// the two bracket edges — are evaluated once per call, so a call over
  /// a whole BER axis costs little more than its solver iterations.
  /// Each result is bit-identical to a one-element call.
  virtual void required_raw_ber_batch(
      std::span<const double> targets, std::span<RawBerRequirement> out,
      std::span<RawBerSolveTrace> traces = {}) const;

  /// One-target required_raw_ber_batch: the requirement for
  /// `target_ber`, with its iteration count in `*trace` when non-null
  /// (passing nullptr changes nothing).
  [[nodiscard]] RawBerRequirement required_raw_ber_checked(
      double target_ber, RawBerSolveTrace* trace = nullptr) const {
    RawBerRequirement out;
    required_raw_ber_batch({&target_ber, 1}, {&out, 1},
                           trace ? std::span(trace, 1)
                                 : std::span<RawBerSolveTrace>{});
    return out;
  }

  /// Convenience wrapper discarding the saturation flag.  Callers that
  /// must distinguish an exact inverse from the clamped bracket edge
  /// use required_raw_ber_checked.
  [[nodiscard]] double required_raw_ber(double target_ber) const {
    return required_raw_ber_checked(target_ber).raw_ber;
  }

  /// Guaranteed number of correctable errors: floor((d_min - 1) / 2).
  [[nodiscard]] std::size_t correctable_errors() const noexcept {
    return (min_distance() - 1) / 2;
  }

  /// Code rate Rc = k / n.
  [[nodiscard]] double code_rate() const noexcept {
    return static_cast<double>(message_length()) /
           static_cast<double>(block_length());
  }

  /// Relative communication time CT = n / k, normalised to the uncoded
  /// transmission of the same payload (paper Section IV-D: H(7,4) has
  /// CT = 1.75).
  [[nodiscard]] double communication_time() const noexcept {
    return static_cast<double>(block_length()) /
           static_cast<double>(message_length());
  }

  /// Guaranteed upper bound on the fraction of codeword bits that are 1
  /// in ANY transmitted word, in (0, 1].  1.0 (the default) means no
  /// guarantee — an adversarial payload can light every wire.  Cooling
  /// codes (photecc::cooling) override this with w_max / n; the thermal
  /// stack multiplies the channel activity by it (laser derating and
  /// self-heating both scale with the number of simultaneously-hot
  /// wires), so a bound < 1 widens the feasible activity window.
  [[nodiscard]] virtual double transmit_duty_bound() const noexcept {
    return 1.0;
  }

 protected:
  /// The required_raw_ber_batch size contract: throws
  /// std::invalid_argument unless `out`, and `traces` when non-empty,
  /// hold targets.size() entries.
  static void check_batch_spans(std::span<const double> targets,
                                std::span<const RawBerRequirement> out,
                                std::span<const RawBerSolveTrace> traces);
};

using BlockCodePtr = std::shared_ptr<const BlockCode>;

}  // namespace photecc::ecc

#endif  // PHOTECC_ECC_BLOCK_CODE_HPP
