// Binary narrow-sense BCH codes: t-error-correcting block codes over
// GF(2^m), the natural upgrade path from the paper's Hamming schemes
// ("other coding techniques can be used", Section IV-B).
//
// Construction: generator polynomial g(x) = lcm of the minimal
// polynomials of alpha, alpha^2, ..., alpha^(2t); systematic encoding
// by polynomial division; decoding via syndrome computation,
// Berlekamp-Massey and Chien search.  t = 1 coincides with the Hamming
// code of the same length.
#ifndef PHOTECC_ECC_BCH_HPP
#define PHOTECC_ECC_BCH_HPP

#include <cstdint>
#include <vector>

#include "photecc/ecc/block_code.hpp"
#include "photecc/ecc/gf2m.hpp"

namespace photecc::ecc {

/// BCH code of length n = 2^m - 1 correcting up to t errors.
class BchCode : public BlockCode {
 public:
  /// Throws std::invalid_argument when the designed distance cannot be
  /// met (t too large for the length) or m outside [3, 14].
  BchCode(unsigned m, unsigned t);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t block_length() const noexcept override {
    return n_;
  }
  [[nodiscard]] std::size_t message_length() const noexcept override {
    return k_;
  }
  /// Designed distance 2t + 1 (the true distance may be larger; the
  /// guaranteed correction radius is what the BER model uses).
  [[nodiscard]] std::size_t min_distance() const noexcept override {
    return 2 * t_ + 1;
  }
  [[nodiscard]] BitVec encode(const BitVec& message) const override;
  [[nodiscard]] DecodeResult decode(const BitVec& received) const override;

  /// Bitsliced kernels.  Encode runs the systematic LFSR division with
  /// 64-lane-wide feedback words (one XOR per generator tap per message
  /// position).  Decode computes the odd syndrome bit-planes
  /// word-parallel (S_2j = S_j^2 over GF(2^m), so the odd ones carry
  /// all the information and the dirty-lane screen is exact); clean
  /// lanes finish with zero per-lane work.  Dirty lanes use the
  /// closed-form t<=2 decoder (single error: S3 == S1^3, flip log S1;
  /// double: sigma2 = (S3 + S1^3)/S1 + Chien over the quadratic) which
  /// provably lands on the same outcome set as the scalar
  /// Berlekamp-Massey + Chien + verify pipeline; t >= 3 falls back to
  /// the scalar decoder per dirty lane.  Bit-identical to the scalar
  /// path for every input.
  [[nodiscard]] codec::BitSlab encode_batch(
      const codec::BitSlab& messages) const override;
  [[nodiscard]] BatchDecodeResult decode_batch(
      const codec::BitSlab& received) const override;

  /// Generalisation of the paper's Eq. 2 to t-error correction:
  ///   BER = p * P(>= t errors among the other n-1 bits)
  /// which reduces exactly to Eq. 2 for t = 1.
  [[nodiscard]] double decoded_ber(double raw_p) const override;

  [[nodiscard]] unsigned t() const noexcept { return t_; }

  /// Generator polynomial coefficients over GF(2), bit i = coeff of x^i.
  [[nodiscard]] std::uint64_t generator_polynomial() const noexcept {
    return generator_mask_;
  }

 private:
  /// Syndromes S_1..S_2t of a received word; true if all zero.
  [[nodiscard]] bool syndromes(const BitVec& received,
                               std::vector<unsigned>& out) const;

  GF2m field_;
  unsigned t_;
  std::size_t n_;
  std::size_t k_;
  std::vector<unsigned> generator_;  // GF(2) coeffs, degree n-k
  std::uint64_t generator_mask_ = 0;
  /// 2^(n-1069): decoded_ber stops its binomial tail early only while
  /// the running sum's ulp is at least this (see bch.cpp).
  double tail_ulp_floor_ = 0.0;
};

}  // namespace photecc::ecc

#endif  // PHOTECC_ECC_BCH_HPP
