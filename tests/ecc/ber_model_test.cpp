#include "photecc/ecc/ber_model.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/ecc/hamming.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/ecc/uncoded.hpp"
#include "photecc/math/special.hpp"

namespace photecc::ecc {
namespace {

TEST(BerModel, AchievedBerChainsEqThreeIntoEqTwo) {
  const HammingCode h74(3);
  const double snr = 11.0;
  const double p = math::raw_ber_from_snr(snr);
  EXPECT_DOUBLE_EQ(achieved_ber(h74, snr), h74.decoded_ber(p));
}

TEST(BerModel, RequiredSnrUncodedMatchesDirectInversion) {
  for (const double ber : {1e-3, 1e-9, 1e-11}) {
    EXPECT_DOUBLE_EQ(required_snr_uncoded(ber),
                     math::snr_from_raw_ber(ber));
  }
}

class RequiredSnrRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(RequiredSnrRoundTrip, AchievedBerAtRequiredSnrHitsTarget) {
  const auto [name, target] = GetParam();
  const BlockCodePtr code = make_code(name);
  const double snr = required_snr(*code, target);
  EXPECT_NEAR(achieved_ber(*code, snr) / target, 1.0, 1e-5)
      << name << " @ " << target;
}

INSTANTIATE_TEST_SUITE_P(
    CodesAndTargets, RequiredSnrRoundTrip,
    ::testing::Combine(::testing::Values("w/o ECC", "H(7,4)", "H(71,64)",
                                         "H(63,57)", "REP(3,1)"),
                       ::testing::Values(1e-6, 1e-9, 1e-11, 1e-12)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      const double target = std::get<1>(param_info.param);
      return name + "_1em" + std::to_string(static_cast<int>(
                                 -std::log10(target) + 0.5));
    });

TEST(BerModel, PaperSnrValues) {
  // Section V-B operating points at BER 1e-11 (hand-derived from the
  // paper's equations): uncoded ~22.5, H(7,4) ~11.0, H(71,64) ~12.2.
  EXPECT_NEAR(required_snr_uncoded(1e-11), 22.5, 0.2);
  EXPECT_NEAR(required_snr(*make_code("H(7,4)"), 1e-11), 11.05, 0.1);
  EXPECT_NEAR(required_snr(*make_code("H(71,64)"), 1e-11), 12.23, 0.1);
}

TEST(BerModel, CodedSnrAlwaysBelowUncoded) {
  for (const auto& code : hamming_family()) {
    for (const double ber : {1e-6, 1e-9, 1e-12}) {
      EXPECT_LT(required_snr(*code, ber), required_snr_uncoded(ber))
          << code->name() << " @ " << ber;
    }
  }
}

TEST(BerModel, StrongerCodeNeedsLessSnr) {
  // H(7,4) corrects a larger fraction than H(71,64): lower SNR demand.
  for (const double ber : {1e-6, 1e-9, 1e-12}) {
    EXPECT_LT(required_snr(*make_code("H(7,4)"), ber),
              required_snr(*make_code("H(71,64)"), ber));
  }
}

TEST(BerModel, CodingGainPositiveAndOrdered) {
  const double ber = 1e-11;
  const double gain74 = coding_gain_db(*make_code("H(7,4)"), ber);
  const double gain7164 = coding_gain_db(*make_code("H(71,64)"), ber);
  EXPECT_GT(gain74, gain7164);
  EXPECT_GT(gain7164, 0.0);
  // Roughly 3 dB for H(7,4) at 1e-11 (22.5 / 11.05).
  EXPECT_NEAR(gain74, 3.09, 0.15);
}

TEST(BerModel, CodingGainGrowsTowardLowBer) {
  const auto h74 = make_code("H(7,4)");
  EXPECT_LT(coding_gain_db(*h74, 1e-6), coding_gain_db(*h74, 1e-12));
}

TEST(BerModel, RequiredSnrMonotoneInTarget) {
  const auto code = make_code("H(71,64)");
  double previous = required_snr(*code, 1e-3);
  for (const double ber : {1e-5, 1e-7, 1e-9, 1e-11, 1e-13}) {
    const double snr = required_snr(*code, ber);
    EXPECT_GT(snr, previous) << "ber=" << ber;
    previous = snr;
  }
}

TEST(BerModel, RequiredRawBerRejectsBadTargets) {
  const HammingCode h74(3);
  EXPECT_THROW((void)h74.required_raw_ber(0.0), std::domain_error);
  EXPECT_THROW((void)h74.required_raw_ber(0.5), std::domain_error);
  EXPECT_THROW((void)h74.required_raw_ber(-1e-9), std::domain_error);
}

TEST(BerModel, SaturationIsExplicitForUnrepresentableTargets) {
  const HammingCode h74(3);
  // A 1e-40 target would need p below the 1e-18 search floor (the true
  // inverse is sqrt(1e-40/6) ~ 4e-21); pre-fix the solve silently
  // returned a cancellation-noise root (~5e-17).  Now it saturates at
  // the bracket edge and says so.
  const auto saturated = h74.required_raw_ber_checked(1e-40);
  EXPECT_TRUE(saturated.saturated);
  EXPECT_DOUBLE_EQ(saturated.raw_ber, kMinSearchRawBer);
  EXPECT_DOUBLE_EQ(h74.required_raw_ber(1e-40), kMinSearchRawBer);
  // Representable targets are exact (non-saturated) inverses and are
  // bit-identical to the unchecked accessor.
  for (const double target : {1e-6, 1e-11, 1e-15}) {
    const auto exact = h74.required_raw_ber_checked(target);
    EXPECT_FALSE(exact.saturated) << target;
    EXPECT_NEAR(h74.decoded_ber(exact.raw_ber) / target, 1.0, 1e-6)
        << target;
    EXPECT_DOUBLE_EQ(exact.raw_ber, h74.required_raw_ber(target));
  }
  // A code whose decoded-BER model stays representable at the floor
  // (BCH sums positive terms) hits the explicit bracket-edge branch.
  const auto bch = make_code("BCH(15,7,2)");
  const auto edge = bch->required_raw_ber_checked(1e-60);
  EXPECT_TRUE(edge.saturated);
  EXPECT_DOUBLE_EQ(edge.raw_ber, kMinSearchRawBer);
}

TEST(BerModel, UncodedInverseNeverSaturates) {
  const UncodedScheme uncoded;
  const auto requirement = uncoded.required_raw_ber_checked(1e-15);
  EXPECT_FALSE(requirement.saturated);
  EXPECT_DOUBLE_EQ(requirement.raw_ber, 1e-15);
}

TEST(BerModel, ModulationAwareCompositionReducesToOok) {
  const HammingCode h74(3);
  for (const double snr : {10.0, 20.0, 36.0}) {
    EXPECT_DOUBLE_EQ(achieved_ber(h74, snr, math::Modulation::kOok),
                     achieved_ber(h74, snr));
  }
  for (const double target : {1e-6, 1e-9, 1e-12}) {
    EXPECT_DOUBLE_EQ(required_snr(h74, target, math::Modulation::kOok),
                     required_snr(h74, target));
    EXPECT_DOUBLE_EQ(
        coding_gain_db(h74, target, math::Modulation::kOok),
        coding_gain_db(h74, target));
  }
}

TEST(BerModel, Pam4NeedsMoreSnrButSameRawBer) {
  const HammingCode h74(3);
  for (const double target : {1e-6, 1e-9, 1e-12}) {
    const double ook = required_snr(h74, target, math::Modulation::kOok);
    const double pam4 =
        required_snr(h74, target, math::Modulation::kPam4);
    EXPECT_GT(pam4, 8.0 * ook) << target;
    EXPECT_LT(pam4, 9.0 * ook) << target;
    // Round-trip through the composed model.
    EXPECT_NEAR(
        achieved_ber(h74, pam4, math::Modulation::kPam4) / target, 1.0,
        1e-6);
  }
}

TEST(BerModel, CodingGainSimilarAcrossFormats) {
  // The code sees the raw BER, not the constellation: its SNR gain
  // ratio (in dB) carries over to PAM almost unchanged.
  const HammingCode h74(3);
  const double ook = coding_gain_db(h74, 1e-9, math::Modulation::kOok);
  const double pam4 =
      coding_gain_db(h74, 1e-9, math::Modulation::kPam4);
  EXPECT_NEAR(ook, pam4, 0.2);
}

TEST(RequiredRawBerTrace, UncodedClosedFormReportsZeroIterations) {
  const UncodedScheme uncoded{64};
  RawBerSolveTrace trace;
  const RawBerRequirement req =
      uncoded.required_raw_ber_checked(1e-9, &trace);
  EXPECT_EQ(trace.iterations, 0);
  EXPECT_EQ(req.raw_ber, 1e-9);
}

// --- Batch inversion: one call per code over a list of targets.

/// Forwards to H(7,4) and counts decoded_ber evaluations.
class CountingCode final : public BlockCode {
 public:
  std::string name() const override { return inner_.name(); }
  std::size_t block_length() const noexcept override {
    return inner_.block_length();
  }
  std::size_t message_length() const noexcept override {
    return inner_.message_length();
  }
  std::size_t min_distance() const noexcept override {
    return inner_.min_distance();
  }
  BitVec encode(const BitVec& message) const override {
    return inner_.encode(message);
  }
  DecodeResult decode(const BitVec& received) const override {
    return inner_.decode(received);
  }
  double decoded_ber(double raw_p) const override {
    ++calls;
    return inner_.decoded_ber(raw_p);
  }

  mutable int calls = 0;

 private:
  HammingCode inner_{3};
};

// Targets spanning the p = 0.5 guard (0.495 is above H(7,4)'s
// decoded_ber(0.5)), ordinary roots and the 1e-18 saturation edge.
const std::vector<double> kBatchTargets = {0.495, 1e-2, 1e-6, 1e-9, 1e-12,
                                           1e-15, 1e-30, 1e-40, 1e-9};

TEST(RequiredRawBerBatch, MatchesOneTargetCallsBitForBit) {
  for (const char* name : {"w/o ECC", "H(7,4)", "eH(64,57)", "REP(5,1)",
                           "BCH(15,5,3)", "BCH(127,113,2)"}) {
    const auto code = make_code(name);
    std::vector<RawBerRequirement> batch(kBatchTargets.size());
    std::vector<RawBerRequirement> untraced(kBatchTargets.size());
    std::vector<RawBerSolveTrace> traces(kBatchTargets.size());
    code->required_raw_ber_batch(kBatchTargets, batch, traces);
    code->required_raw_ber_batch(kBatchTargets, untraced);
    for (std::size_t i = 0; i < kBatchTargets.size(); ++i) {
      RawBerSolveTrace trace;
      const RawBerRequirement one =
          code->required_raw_ber_checked(kBatchTargets[i], &trace);
      EXPECT_EQ(batch[i].raw_ber, one.raw_ber) << name << " #" << i;
      EXPECT_EQ(batch[i].saturated, one.saturated) << name << " #" << i;
      EXPECT_EQ(traces[i].iterations, trace.iterations) << name << " #" << i;
      EXPECT_EQ(untraced[i].raw_ber, one.raw_ber) << name << " #" << i;
    }
  }
}

TEST(RequiredRawBerBatch, EvaluatesTheTargetIndependentValuesOncePerCall) {
  // Three shared evaluations (the p = 0.5 guard and both bracket edges)
  // per call, then one per Brent iteration; guarded and saturated
  // targets cost nothing more.
  const CountingCode code;
  std::vector<RawBerRequirement> out(kBatchTargets.size());
  std::vector<RawBerSolveTrace> traces(kBatchTargets.size());
  code.required_raw_ber_batch(kBatchTargets, out, traces);
  int iterations = 0;
  for (const RawBerSolveTrace& trace : traces) iterations += trace.iterations;
  EXPECT_EQ(out.front().raw_ber, 0.5);  // the guard
  EXPECT_TRUE(out[7].saturated);        // 1e-40
  EXPECT_GT(iterations, 0);
  EXPECT_EQ(code.calls, 3 + iterations);
}

TEST(RequiredRawBerBatch, RejectsBadTargetsBeforeSolvingAny) {
  const CountingCode code;
  const std::vector<double> targets = {1e-9, 0.5};
  std::vector<RawBerRequirement> out(targets.size());
  EXPECT_THROW(code.required_raw_ber_batch(targets, out),
               std::domain_error);
  EXPECT_EQ(code.calls, 0);
  const UncodedScheme uncoded{8};
  const std::vector<double> half = {0.5};
  std::vector<RawBerRequirement> one(1);
  uncoded.required_raw_ber_batch(half, one);  // (0, 0.5] for the identity
  EXPECT_EQ(one[0].raw_ber, 0.5);
  const std::vector<double> zero = {0.0};
  EXPECT_THROW(uncoded.required_raw_ber_batch(zero, one), std::domain_error);
}

TEST(RequiredRawBerBatch, RejectsMismatchedSpans) {
  const CountingCode code;
  const std::vector<double> targets = {1e-9, 1e-6};
  std::vector<RawBerRequirement> short_out(1);
  std::vector<RawBerRequirement> out(2);
  std::vector<RawBerSolveTrace> short_traces(1);
  EXPECT_THROW(code.required_raw_ber_batch(targets, short_out),
               std::invalid_argument);
  EXPECT_THROW(code.required_raw_ber_batch(targets, out, short_traces),
               std::invalid_argument);
  const UncodedScheme uncoded{8};
  EXPECT_THROW(uncoded.required_raw_ber_batch(targets, short_out),
               std::invalid_argument);
  code.required_raw_ber_batch({}, {});  // empty: no work at all
  EXPECT_EQ(code.calls, 0);
}

}  // namespace
}  // namespace photecc::ecc
