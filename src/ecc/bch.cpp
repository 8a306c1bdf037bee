#include "photecc/ecc/bch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace photecc::ecc {
namespace {

// Multiplies two GF(2) polynomials given as bit masks.
std::uint64_t poly_mul_gf2(std::uint64_t a, std::uint64_t b) {
  std::uint64_t out = 0;
  for (unsigned i = 0; b >> i; ++i) {
    if ((b >> i) & 1u) out ^= a << i;
  }
  return out;
}

// nextafter(x, +inf) - x for a positive normal x: the spacing of the
// doubles in the binade [2^e, 2^(e+1)) that holds x, read off x's
// exponent bits.  0 for zero and subnormal x.
double ulp_above(double x) {
  const std::uint64_t exponent =
      std::bit_cast<std::uint64_t>(x) & 0x7ff0000000000000u;
  return std::bit_cast<double>(exponent) * 0x1p-52;
}

unsigned poly_degree(std::uint64_t p) {
  unsigned d = 0;
  while (p >> (d + 1)) ++d;
  return d;
}

}  // namespace

BchCode::BchCode(unsigned m, unsigned t) : field_(m), t_(t) {
  if (m < 3) throw std::invalid_argument("BchCode: m must be >= 3");
  if (t == 0) throw std::invalid_argument("BchCode: t must be >= 1");
  n_ = field_.order();
  if (2 * t >= n_)
    throw std::invalid_argument("BchCode: t too large for the length");

  // g(x) = lcm of minimal polynomials of alpha^1 .. alpha^(2t); since
  // each minimal polynomial is irreducible, the lcm is the product of
  // the distinct ones.
  std::vector<std::uint64_t> minimals;
  for (unsigned i = 1; i <= 2 * t; ++i) {
    const std::uint64_t mp = field_.minimal_polynomial(i);
    if (std::find(minimals.begin(), minimals.end(), mp) == minimals.end())
      minimals.push_back(mp);
  }
  std::uint64_t g = 1;
  for (const std::uint64_t mp : minimals) g = poly_mul_gf2(g, mp);
  generator_mask_ = g;
  const unsigned deg = poly_degree(g);
  if (deg >= n_)
    throw std::invalid_argument("BchCode: generator consumes the block");
  k_ = n_ - deg;
  tail_ulp_floor_ = std::ldexp(1.0, static_cast<int>(n_) - 1069);
  generator_.resize(deg + 1);
  for (unsigned i = 0; i <= deg; ++i)
    generator_[i] = static_cast<unsigned>((g >> i) & 1u);
}

std::string BchCode::name() const {
  return "BCH(" + std::to_string(n_) + "," + std::to_string(k_) + "," +
         std::to_string(t_) + ")";
}

BitVec BchCode::encode(const BitVec& message) const {
  if (message.size() != k_)
    throw std::invalid_argument(name() + "::encode: message size mismatch");
  // Systematic encoding: codeword = [parity | message], i.e.
  // c(x) = x^(n-k) u(x) + (x^(n-k) u(x) mod g(x)).
  const std::size_t parity_len = n_ - k_;
  // Long division of x^(n-k) u(x) by g(x) over GF(2), bit by bit
  // (message degree can exceed 64, so no mask shortcut here).
  std::vector<unsigned> remainder(parity_len, 0);
  for (std::size_t i = k_; i-- > 0;) {
    const unsigned feedback =
        (message.get(i) ? 1u : 0u) ^ remainder[parity_len - 1];
    for (std::size_t j = parity_len; j-- > 1;) {
      remainder[j] = remainder[j - 1] ^ (feedback & generator_[j]);
    }
    remainder[0] = feedback & generator_[0];
  }
  BitVec code(n_);
  for (std::size_t i = 0; i < parity_len; ++i)
    code.set(i, remainder[i] != 0);
  for (std::size_t i = 0; i < k_; ++i)
    code.set(parity_len + i, message.get(i));
  return code;
}

bool BchCode::syndromes(const BitVec& received,
                        std::vector<unsigned>& out) const {
  out.assign(2 * t_, 0);
  bool all_zero = true;
  for (unsigned j = 1; j <= 2 * t_; ++j) {
    unsigned s = 0;
    for (std::size_t pos = 0; pos < n_; ++pos) {
      if (received.get(pos))
        s = GF2m::add(s, field_.alpha_pow(static_cast<int>(pos * j)));
    }
    out[j - 1] = s;
    if (s != 0) all_zero = false;
  }
  return all_zero;
}

DecodeResult BchCode::decode(const BitVec& received) const {
  if (received.size() != n_)
    throw std::invalid_argument(name() + "::decode: block size mismatch");
  const std::size_t parity_len = n_ - k_;
  const auto extract = [&](const BitVec& word) {
    BitVec msg(k_);
    for (std::size_t i = 0; i < k_; ++i)
      msg.set(i, word.get(parity_len + i));
    return msg;
  };

  DecodeResult result;
  std::vector<unsigned> syn;
  if (syndromes(received, syn)) {
    result.message = extract(received);
    return result;
  }
  result.error_detected = true;

  // Berlekamp-Massey: find the error-locator polynomial sigma(x).
  std::vector<unsigned> sigma{1};     // current locator
  std::vector<unsigned> prev{1};      // locator before last length change
  unsigned prev_discrepancy = 1;
  unsigned lfsr_len = 0;
  int shift = 1;
  for (unsigned step = 0; step < 2 * t_; ++step) {
    // Discrepancy d = S_{step+1} + sum sigma_i S_{step+1-i}.
    unsigned d = syn[step];
    for (unsigned i = 1; i <= lfsr_len && i < sigma.size(); ++i) {
      if (step >= i)
        d = GF2m::add(d, field_.mul(sigma[i], syn[step - i]));
    }
    if (d == 0) {
      ++shift;
      continue;
    }
    // sigma' = sigma - (d / prev_d) x^shift prev
    std::vector<unsigned> candidate = sigma;
    const unsigned scale = field_.div(d, prev_discrepancy);
    if (candidate.size() < prev.size() + shift)
      candidate.resize(prev.size() + shift, 0);
    for (std::size_t i = 0; i < prev.size(); ++i) {
      candidate[i + shift] =
          GF2m::add(candidate[i + shift], field_.mul(scale, prev[i]));
    }
    if (2 * lfsr_len <= step) {
      prev = sigma;
      prev_discrepancy = d;
      lfsr_len = step + 1 - lfsr_len;
      shift = 1;
    } else {
      ++shift;
    }
    sigma = std::move(candidate);
  }

  // Degree check: more errors than t => uncorrectable (detected only).
  unsigned degree = 0;
  for (std::size_t i = sigma.size(); i-- > 0;) {
    if (sigma[i] != 0) {
      degree = static_cast<unsigned>(i);
      break;
    }
  }
  if (degree > t_ || degree == 0) {
    result.message = extract(received);
    return result;
  }

  // Chien search: roots of sigma(x) at x = alpha^{-pos} name the error
  // positions.
  BitVec corrected = received;
  unsigned roots = 0;
  std::size_t last_fix = 0;
  for (std::size_t pos = 0; pos < n_; ++pos) {
    const unsigned x = field_.alpha_pow(-static_cast<int>(pos));
    if (field_.eval_poly(sigma, x) == 0) {
      corrected.flip(pos);
      last_fix = pos;
      ++roots;
    }
  }
  if (roots != degree) {
    // Locator does not factor into distinct roots: > t errors.
    result.message = extract(received);
    return result;
  }
  // Verify: corrected word must have zero syndromes.
  std::vector<unsigned> check;
  if (!syndromes(corrected, check)) {
    result.message = extract(received);
    return result;
  }
  result.corrected = true;
  if (roots == 1) result.corrected_position = last_fix;
  result.message = extract(corrected);
  return result;
}

codec::BitSlab BchCode::encode_batch(const codec::BitSlab& messages) const {
  if (messages.bits() != k_)
    throw std::invalid_argument(name() +
                                "::encode_batch: message size mismatch");
  const std::size_t parity_len = n_ - k_;
  // Word-parallel LFSR division: the scalar bit-serial recurrence with
  // every scalar replaced by a 64-lane word (feedback bit -> feedback
  // word), so each lane runs the exact scalar recurrence.
  std::vector<std::uint64_t> rem(parity_len, 0);
  for (std::size_t i = k_; i-- > 0;) {
    const std::uint64_t feedback = messages.word(i) ^ rem[parity_len - 1];
    for (std::size_t j = parity_len; j-- > 1;)
      rem[j] = rem[j - 1] ^ (generator_[j] ? feedback : 0);
    rem[0] = generator_[0] ? feedback : 0;
  }
  codec::BitSlab code(n_, messages.lanes());
  for (std::size_t i = 0; i < parity_len; ++i) code.word(i) = rem[i];
  for (std::size_t i = 0; i < k_; ++i)
    code.word(parity_len + i) = messages.word(i);
  return code;
}

BatchDecodeResult BchCode::decode_batch(const codec::BitSlab& received) const {
  if (received.bits() != n_)
    throw std::invalid_argument(name() + "::decode_batch: block size mismatch");
  const std::size_t parity_len = n_ - k_;
  const unsigned m = field_.m();

  // Odd syndrome bit-planes: planes[idx * m + b] bit l = bit b of
  // S_{2 idx + 1} in lane l.  Even syndromes are Frobenius squares of
  // earlier ones (S_2j = S_j^2), so "any odd syndrome non-zero" is
  // exactly the scalar dirty condition over all 2t syndromes.
  std::vector<std::uint64_t> planes(static_cast<std::size_t>(t_) * m, 0);
  for (std::size_t pos = 0; pos < n_; ++pos) {
    const std::uint64_t w = received.word(pos);
    if (w == 0) continue;
    for (unsigned idx = 0; idx < t_; ++idx) {
      unsigned a = field_.alpha_pow(static_cast<int>(pos * (2 * idx + 1)));
      std::uint64_t* plane = &planes[static_cast<std::size_t>(idx) * m];
      for (; a != 0; a &= a - 1) plane[std::countr_zero(a)] ^= w;
    }
  }
  std::uint64_t dirty = 0;
  for (const std::uint64_t p : planes) dirty |= p;

  const auto gather = [&](unsigned idx, unsigned l) {
    unsigned v = 0;
    for (unsigned b = 0; b < m; ++b)
      v |= static_cast<unsigned>(
               (planes[static_cast<std::size_t>(idx) * m + b] >> l) & 1u)
           << b;
    return v;
  };

  codec::BitSlab corrected = received;
  std::uint64_t corrected_mask = 0;
  for (std::uint64_t rest = dirty; rest != 0; rest &= rest - 1) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(rest));
    const std::uint64_t lbit = std::uint64_t{1} << l;
    if (t_ == 1) {
      // Hamming-equivalent: the single odd syndrome names the error and
      // the scalar verify step always passes (S2' = S1'^2 = 0).
      corrected.word(field_.log(gather(0, l))) ^= lbit;
      corrected_mask |= lbit;
    } else if (t_ == 2) {
      const unsigned s1 = gather(0, l);
      const unsigned s3 = gather(1, l);
      if (s1 == 0) continue;  // locator degree 3 in scalar BM: detect only
      const unsigned s1_cubed = field_.mul(s1, field_.mul(s1, s1));
      if (s3 == s1_cubed) {
        // Scalar BM yields sigma = 1 + S1 x with its verify passing
        // (S3' = S3 + S1^3 = 0): single correction at log S1.
        corrected.word(field_.log(s1)) ^= lbit;
        corrected_mask |= lbit;
        continue;
      }
      // Double error: sigma = 1 + S1 x + sigma2 x^2 with
      // sigma2 = (S3 + S1^3) / S1 — the exact BM output for this
      // syndrome pattern.  A degree-2 locator has 0 or 2 distinct
      // roots; with 2 the scalar verify step provably passes
      // (S1' = S1 + Y1 + Y2 = 0, S3' = S3 + Y1^3 + Y2^3 = 0).
      const unsigned sigma2 = field_.div(GF2m::add(s3, s1_cubed), s1);
      std::size_t roots[2] = {0, 0};
      unsigned n_roots = 0;
      for (std::size_t pos = 0; pos < n_ && n_roots < 2; ++pos) {
        const unsigned x = field_.alpha_pow(-static_cast<int>(pos));
        const unsigned val = GF2m::add(
            GF2m::add(1u, field_.mul(s1, x)),
            field_.mul(sigma2, field_.mul(x, x)));
        if (val == 0) roots[n_roots++] = pos;
      }
      if (n_roots == 2) {
        corrected.word(roots[0]) ^= lbit;
        corrected.word(roots[1]) ^= lbit;
        corrected_mask |= lbit;
      }
    } else {
      // t >= 3: scalar fallback for the (screened, rare) dirty lane.
      // Systematic layout: overwriting the message region of this lane
      // with the scalar result covers both corrected and detected-only
      // outcomes.
      const DecodeResult lane = decode(received.transpose_out(l));
      const std::span<const std::uint64_t> mw = lane.message.words();
      for (std::size_t i = 0; i < k_; ++i) {
        const std::uint64_t bit = (mw[i / 64] >> (i % 64)) & 1u;
        std::uint64_t& word = corrected.word(parity_len + i);
        word = (word & ~lbit) | (bit << l);
      }
      if (lane.corrected) corrected_mask |= lbit;
    }
  }

  BatchDecodeResult result;
  result.messages = codec::BitSlab(k_, received.lanes());
  for (std::size_t i = 0; i < k_; ++i)
    result.messages.word(i) = corrected.word(parity_len + i);
  result.error_detected = dirty;
  result.corrected = corrected_mask;
  return result;
}

double BchCode::decoded_ber(double raw_p) const {
  if (raw_p < 0.0 || raw_p > 1.0)
    throw std::domain_error("decoded_ber: raw p outside [0, 1]");
  if (raw_p == 0.0) return 0.0;
  // BER = p * P(at least t errors among the remaining n-1 bits): the
  // observed bit is wrong and the decoder's correction budget is spent
  // elsewhere.  Reduces to the paper's Eq. 2 for t = 1.  The tail is
  // summed directly (all-positive terms) so small-p values do not lose
  // precision to cancellation.
  //
  // The sum stops as soon as no later term can change it, so the result
  // is bit-identical to summing all n - t terms.  Let T_j be the exact
  // terms C(n-1, j) p^j q^(n-1-j) for the double values p and q, and
  // T^_j the computed ones.  T_{j+1} / T_j = (n-1-j) p / ((j+1) q) falls
  // as j grows, so once it is below 1/2 each later exact term is at most
  // half the one before.  The loop stops after adding T^_J when
  //   (a) 2 (n-1-J) p < (J+1) q          (term ratio below 1/2),
  //   (b) T^_J < u / 4, u = nextafter(tail, +inf) - tail, and
  //   (c) u >= 2^(n-1069)                (tail far above the subnormals).
  // Margins.  Where pow(p, j), pow(q, n-1-j) and the products stay
  // normal, T^_j is within a relative (2n + 6) eps of T_j (the running
  // binomial, two pows, two products: below 1e-13 for n <= 1023).  Where
  // any of them is subnormal, each adds an absolute error of at most
  // C(n-1, j) 2^-1074, under 2^(n-1073) <= u / 16 in all by (c).  So
  // T_J < (u/4 + u/16)(1 + 1e-13), each later exact term is below half of
  // that (the rounding of (a) moves its 1/2 by 2 eps), and each later
  // computed term is below (5/32 + 1/16 + 1e-12) u < u / 2.  Under
  // round-to-nearest fl(tail + x) == tail for 0 <= x < u / 2, so the tail
  // and its u never change again.  For p <= 1e-3 this leaves a handful
  // of terms out of n - t.  (c) binds only for tails below about
  // 2^(n-1017) (1e-268 at n = 127), far below anything the inversion's
  // p >= 1e-18 bracket produces.
  const double q = 1.0 - raw_p;
  const double nm1 = static_cast<double>(n_ - 1);
  double tail = 0.0;  // P(>= t errors among n-1)
  double comb = 1.0;
  for (unsigned j = 1; j <= t_; ++j)
    comb = comb * (nm1 - static_cast<double>(j - 1)) /
           static_cast<double>(j);
  for (unsigned j = t_; j <= n_ - 1; ++j) {
    const double jd = static_cast<double>(j);
    const double term = comb * std::pow(raw_p, jd) * std::pow(q, nm1 - jd);
    tail += term;
    comb = comb * (nm1 - jd) / static_cast<double>(j + 1);
    if (2.0 * (nm1 - jd) * raw_p < (jd + 1.0) * q) {
      const double ulp = ulp_above(tail);
      if (ulp >= tail_ulp_floor_ && term < 0.25 * ulp) break;
    }
  }
  return raw_p * std::min(1.0, tail);
}

}  // namespace photecc::ecc
