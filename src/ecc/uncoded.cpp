#include "photecc/ecc/uncoded.hpp"

#include <algorithm>
#include <stdexcept>

namespace photecc::ecc {

UncodedScheme::UncodedScheme(std::size_t width) : width_(width) {
  if (width == 0)
    throw std::invalid_argument("UncodedScheme: zero width");
}

BitVec UncodedScheme::encode(const BitVec& message) const {
  if (message.size() != width_)
    throw std::invalid_argument("UncodedScheme::encode: size mismatch");
  return message;
}

DecodeResult UncodedScheme::decode(const BitVec& received) const {
  if (received.size() != width_)
    throw std::invalid_argument("UncodedScheme::decode: size mismatch");
  DecodeResult result;
  result.message = received;
  return result;  // no redundancy: nothing to detect or correct
}

codec::BitSlab UncodedScheme::encode_batch(
    const codec::BitSlab& messages) const {
  if (messages.bits() != width_)
    throw std::invalid_argument("UncodedScheme::encode_batch: size mismatch");
  return messages;
}

BatchDecodeResult UncodedScheme::decode_batch(
    const codec::BitSlab& received) const {
  if (received.bits() != width_)
    throw std::invalid_argument("UncodedScheme::decode_batch: size mismatch");
  BatchDecodeResult result;
  result.messages = received;
  return result;  // no redundancy: nothing to detect or correct
}

double UncodedScheme::decoded_ber(double raw_p) const {
  if (raw_p < 0.0 || raw_p > 1.0)
    throw std::domain_error("decoded_ber: raw p outside [0, 1]");
  return raw_p;
}

void UncodedScheme::required_raw_ber_batch(
    std::span<const double> targets, std::span<RawBerRequirement> out,
    std::span<RawBerSolveTrace> traces) const {
  check_batch_spans(targets, out, traces);
  for (const double target : targets)
    if (target <= 0.0 || target > 0.5)
      throw std::domain_error("required_raw_ber: target outside (0, 0.5]");
  std::fill(traces.begin(), traces.end(), RawBerSolveTrace{});
  for (std::size_t i = 0; i < targets.size(); ++i) out[i] = {targets[i], false};
}

}  // namespace photecc::ecc
