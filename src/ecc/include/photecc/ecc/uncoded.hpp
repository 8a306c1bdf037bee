// Pass-through "code": direct modulation without ECC, the paper's
// baseline transmission scheme ("w/o ECC").
#ifndef PHOTECC_ECC_UNCODED_HPP
#define PHOTECC_ECC_UNCODED_HPP

#include "photecc/ecc/block_code.hpp"

namespace photecc::ecc {

/// (w, w) identity code over a w-bit block.  decoded_ber(p) == p and
/// CT == 1, matching the paper's uncoded scheme.
class UncodedScheme : public BlockCode {
 public:
  explicit UncodedScheme(std::size_t width = 64);

  [[nodiscard]] std::string name() const override { return "w/o ECC"; }
  [[nodiscard]] std::size_t block_length() const noexcept override {
    return width_;
  }
  [[nodiscard]] std::size_t message_length() const noexcept override {
    return width_;
  }
  [[nodiscard]] std::size_t min_distance() const noexcept override {
    return 1;
  }
  [[nodiscard]] BitVec encode(const BitVec& message) const override;
  [[nodiscard]] DecodeResult decode(const BitVec& received) const override;
  /// Identity batch kernels: straight word copies, no flags.
  [[nodiscard]] codec::BitSlab encode_batch(
      const codec::BitSlab& messages) const override;
  [[nodiscard]] BatchDecodeResult decode_batch(
      const codec::BitSlab& received) const override;
  [[nodiscard]] double decoded_ber(double raw_p) const override;
  /// Identity inverse: each target itself, never saturated; the traces
  /// (when given) report zero iterations.  Targets may reach 0.5.
  void required_raw_ber_batch(
      std::span<const double> targets, std::span<RawBerRequirement> out,
      std::span<RawBerSolveTrace> traces = {}) const override;

 private:
  std::size_t width_;
};

}  // namespace photecc::ecc

#endif  // PHOTECC_ECC_UNCODED_HPP
