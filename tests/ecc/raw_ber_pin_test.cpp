// Bit-level pin of the decoded-BER models and their inversion.
//
// The fingerprints and values below were recorded from the full-tail
// BchCode::decoded_ber (every binomial term from j = t to n - 1 summed)
// and the per-target Brent inversion in
// BlockCode::required_raw_ber_checked (guards and bracket edges
// evaluated afresh for every target).  Later changes to how the tail is
// summed or how the inversion is organised are pure performance changes:
// every decoded_ber value, every {raw_ber, saturated} requirement and
// every iteration count must stay bit-identical.  Any drift is a bug,
// not a reason to re-pin.
//
// Every double is rendered as a hex float, so a fingerprint changes on
// any last-ulp difference.
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/math/hash.hpp"

namespace photecc::ecc {
namespace {

std::string hex(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

/// `points` values 10^x for x evenly spaced from `from` to `to`.
std::vector<double> log_ladder(double from, double to, int points) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i)
    out.push_back(std::pow(10.0, from + (to - from) * i / (points - 1)));
  return out;
}

/// decoded_ber on 20,001 raw BERs from 1e-18 to 0.5, plus p = 1.
std::uint64_t decoded_fingerprint(const BlockCode& code) {
  std::string out;
  for (const double p : log_ladder(-18.0, std::log10(0.5), 20001))
    out += hex(code.decoded_ber(p)) + ';';
  out += hex(code.decoded_ber(1.0)) + ';';
  return math::fnv1a64(out);
}

/// required_raw_ber_checked's {raw_ber, saturated} and trace iterations
/// on 2,001 targets from 1e-1 down to 1e-18.
std::uint64_t inversion_fingerprint(const BlockCode& code) {
  std::string out;
  for (const double target : log_ladder(-1.0, -18.0, 2001)) {
    RawBerSolveTrace trace;
    const RawBerRequirement r = code.required_raw_ber_checked(target, &trace);
    out += hex(r.raw_ber);
    out += r.saturated ? ";s;" : ";-;";
    out += std::to_string(trace.iterations) + ';';
  }
  return math::fnv1a64(out);
}

struct CodePin {
  const char* code;
  std::uint64_t decoded;
  std::uint64_t inversion;
};

// Every ecc::all_known_codes() entry, then COOL(<BCH>, 3) wraps.
const CodePin kCodePins[] = {
    {"w/o ECC", 0x1dcfd49bc70f4f86ULL,
     0x5cec553e1d476480ULL},
    {"H(7,4)", 0x8de4a1a297bed780ULL,
     0xfb73dae22242d2aaULL},
    {"H(15,11)", 0x8ba5557c5f686024ULL,
     0x1b239700574210dULL},
    {"H(31,26)", 0xe056f2f24fb87907ULL,
     0xb238c9755617f40dULL},
    {"H(63,57)", 0x1969497336dea02aULL,
     0xa0a8b74ffb701640ULL},
    {"H(127,120)", 0xfbdc0acad0fd7924ULL,
     0x230986ecb146af61ULL},
    {"H(71,64)", 0x29f70a2e71e4530eULL,
     0x86118db3bdb33025ULL},
    {"H(12,8)", 0x398f5406a757d25aULL,
     0x7429a5f49a371230ULL},
    {"H(38,32)", 0x7acdb72769904814ULL,
     0x33fc3eeced9178f7ULL},
    {"eH(8,4)", 0xb095241f30660033ULL,
     0xf4e2926c66b2cf39ULL},
    {"eH(16,11)", 0xf27222491b2b4f67ULL,
     0xfadf324d0a3f0023ULL},
    {"eH(64,57)", 0xca86dbef8c5bb32bULL,
     0xd1ce914309b00eeeULL},
    {"REP(3,1)", 0x4498618902b82e64ULL,
     0x9ab221216198ab3bULL},
    {"REP(5,1)", 0x33ad3b465563d560ULL,
     0x77a7486168d805ccULL},
    {"REP(7,1)", 0xd83a9cb3227ea38eULL,
     0x723b925f1d75cc53ULL},
    {"BCH(15,7,2)", 0x23f484bb3dbbdbc5ULL,
     0x32aedf5398bc74eaULL},
    {"BCH(15,5,3)", 0x3f507da79338cfa9ULL,
     0x62b6e3f5d1f96496ULL},
    {"BCH(31,21,2)", 0x457cd76772c22815ULL,
     0x54c7e04fb644b129ULL},
    {"BCH(63,51,2)", 0xa2e63e62b24ffd64ULL,
     0xe5f101525b527d98ULL},
    {"BCH(127,113,2)", 0x89953849dbc71c2bULL,
     0xd131a694020557a1ULL},
    {"COOL(BCH(15,7,2),3)", 0x41949d5befe439c7ULL,
     0x8463734dcd4932b6ULL},
    {"COOL(BCH(15,5,3),3)", 0xf6dee50922b299eaULL,
     0xd7bf00243891d64bULL},
    {"COOL(BCH(31,21,2),3)", 0xb37c7f5e82c8e97cULL,
     0x8d98dacb3b213e9dULL},
    {"COOL(BCH(63,51,2),3)", 0x7a2668a47fb99d7eULL,
     0x337053f1474e9c01ULL},
    {"COOL(BCH(127,113,2),3)", 0x51f41e2bcbfa8ba6ULL,
     0xa7db2496a486b0aULL},
};

class RawBerPin : public ::testing::TestWithParam<CodePin> {
 protected:
  static void SetUpTestSuite() { cooling::register_cooling_codes(); }
};

TEST_P(RawBerPin, DecodedBerLadderIsBitIdentical) {
  const CodePin& pin = GetParam();
  const std::uint64_t got = decoded_fingerprint(*make_code(pin.code));
  EXPECT_EQ(got, pin.decoded) << pin.code << " decoded 0x" << std::hex << got;
}

TEST_P(RawBerPin, InversionLadderIsBitIdentical) {
  const CodePin& pin = GetParam();
  const std::uint64_t got = inversion_fingerprint(*make_code(pin.code));
  EXPECT_EQ(got, pin.inversion)
      << pin.code << " inversion 0x" << std::hex << got;
}

std::string pin_name(const ::testing::TestParamInfo<CodePin>& info) {
  std::string name;
  for (const char c : std::string(info.param.code))
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(EveryCode, RawBerPin, ::testing::ValuesIn(kCodePins),
                         pin_name);

TEST(RawBerPinCoverage, EveryRegistryCodeIsPinned) {
  std::set<std::string> pinned;
  for (const CodePin& pin : kCodePins) pinned.insert(pin.code);
  for (const BlockCodePtr& code : all_known_codes())
    EXPECT_TRUE(pinned.count(code->name())) << code->name();
}

// --- Direct values --------------------------------------------------
//
// The crossover points are raw BERs at which a tail that stops early
// (term ratio below 1/2 and the last term below a quarter of the running
// sum's upward ulp) would stop on the margin: the term at the stopping
// index j is within 1e-4 of that quarter ulp.  The last BCH(127,113,2)
// point is where the term ratio at the stopping index is largest.  The
// neighbours a few ulps either side sit on both sides of the boundary.
// p = 0.5 is the inversion's guard value; p >= 0.5 is where the terms
// rise before they fall; the tiny p values drive pow(p, j) and the terms
// into the subnormal range or to zero.

struct DirectPin {
  const char* code;
  double raw_p;
  double decoded;
};

const DirectPin kDirectPins[] = {
    {"BCH(15,7,2)", 0x1.c750c60eb4da4p-57, 0x1.fffca6adc3f97p-163},
    {"BCH(15,5,3)", 0x1.abf3a21aff54p-20, 0x1.6353005027019p-69},
    {"BCH(31,21,2)", 0x1.710d76e07f85dp-4, 0x1.1acdc7629a025p-4},
    {"BCH(63,51,2)", 0x1.8367c24002d44p-59, 0x1.9996ccc01b0f3p-165},
    {"BCH(127,113,2)", 0x1.46e462f1c5899p-14, 0x1.fd17caceda4d2p-29},
    {"BCH(127,113,2)", 0x1.1544b9772ebd6p-2, 0x1.1544b9772ebd6p-2},
};

const char* const kBchCodes[] = {"BCH(15,7,2)", "BCH(15,5,3)",
                                 "BCH(31,21,2)", "BCH(63,51,2)",
                                 "BCH(127,113,2)"};

const double kEdgeRawBers[] = {
    0.5,     0.75,    0.999,   1.0,      1e-19,    1e-50,
    1e-100,  1e-160,  1e-200,  1e-250,   1e-300,   1e-310,
    0x1p-358, 0x1p-537, 0x1p-1000, 0x1p-1074};

// Recorded decoded_ber values: kBchCodes x kEdgeRawBers, row-major.
const double kEdgeDecoded[] = {
    0x1.ff88p-2, 0x1.7ffffbf8p-1, 0x1.ff7ced916872bp-1, 0x1p+0,
    0x1.1d9bae56eb5aap-183, 0x1.29e0e8589338bp-492, 0x1.e78952939fa02p-991, 0x0p+0,
    0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
    0x0.000000000005bp-1022, 0x0p+0, 0x0p+0, 0x0p+0,
    0x1.fcbp-2, 0x1.7fffaf3p-1, 0x1.ff7ced916872bp-1, 0x1p+0,
    0x1.076d5011d043bp-244, 0x1.169fbdb262414p-656, 0x0p+0, 0x0p+0,
    0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
    0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
    0x1.ffffff08p-2, 0x1.7ffffffffffffp-1, 0x1.ff7ced916872bp-1, 0x1p+0,
    0x1.555141937a50ep-181, 0x1.63fb31cc504a1p-490, 0x1.2350ffc2682cp-988, 0x0p+0,
    0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
    0x0.00000000001b3p-1022, 0x0p+0, 0x0p+0, 0x0p+0,
    0x1p-1, 0x1.8p-1, 0x1.ff7ced916872bp-1, 0x1p+0,
    0x1.72effebbc9eeep-179, 0x1.82dfb4cba74b3p-488, 0x1.3c98e93a69db1p-986, 0x0p+0,
    0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
    0x0.0000000000763p-1022, 0x0p+0, 0x0p+0, 0x0p+0,
    0x1.fffffffffffffp-2, 0x1.8p-1, 0x1.ff7ced9168729p-1, 0x1.ffffffffffffep-1,
    0x1.82305a3273c68p-177, 0x1.92c7cddcb0e9fp-486, 0x1.499d4d855812fp-984, 0x0p+0,
    0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
    0x0.0000000001ec3p-1022, 0x0p+0, 0x0p+0, 0x0p+0,
};

TEST(RawBerPinDirect, CrossoverPointsAndNeighbours) {
  for (const DirectPin& pin : kDirectPins) {
    const auto code = make_code(pin.code);
    EXPECT_EQ(code->decoded_ber(pin.raw_p), pin.decoded)
        << pin.code << " at " << hex(pin.raw_p) << ": "
        << hex(code->decoded_ber(pin.raw_p));
  }
}

TEST(RawBerPinDirect, CrossoverNeighboursAreBitIdentical) {
  // Four ulps either side of each crossover point, recorded as a
  // fingerprint, since the values only need to stay put.
  std::string out;
  for (const DirectPin& pin : kDirectPins) {
    const auto code = make_code(pin.code);
    double below = pin.raw_p, above = pin.raw_p;
    for (int i = 0; i < 4; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1.0);
      out += hex(code->decoded_ber(below)) + ';' +
             hex(code->decoded_ber(above)) + ';';
    }
  }
  EXPECT_EQ(math::fnv1a64(out), 0xf475bc9fba63c021ULL)
      << "neighbours 0x" << std::hex << math::fnv1a64(out);
}

TEST(RawBerPinDirect, HalfOneAndSubnormalRegime) {
  static_assert(std::size(kEdgeDecoded) ==
                std::size(kBchCodes) * std::size(kEdgeRawBers));
  const double* expected = kEdgeDecoded;
  for (const char* name : kBchCodes) {
    const auto code = make_code(name);
    for (const double p : kEdgeRawBers) {
      const double got = code->decoded_ber(p);
      EXPECT_EQ(got, *expected++)
          << name << " at " << hex(p) << ": " << hex(got);
    }
  }
}

TEST(RawBerPinDirect, InversionAtTheGuardAndBracketEdges) {
  // Targets at and just inside the p = 0.5 guard and the 1e-18
  // saturation edge, for every BCH code.
  std::string out;
  for (const char* name : kBchCodes) {
    const auto code = make_code(name);
    const double half = code->decoded_ber(0.5);
    const double edge = code->decoded_ber(std::pow(10.0, -18.0));
    for (const double target :
         {std::nextafter(half, 0.0), half, std::nextafter(half, 1.0),
          std::nextafter(edge, 0.0), edge, std::nextafter(edge, 1.0)}) {
      if (!(target > 0.0 && target < 0.5)) continue;
      RawBerSolveTrace trace;
      const RawBerRequirement r = code->required_raw_ber_checked(target, &trace);
      out += hex(r.raw_ber) + (r.saturated ? ";s;" : ";-;") +
             std::to_string(trace.iterations) + ';';
    }
  }
  EXPECT_EQ(math::fnv1a64(out), 0x80ce08be10b728c9ULL)
      << "edges 0x" << std::hex << math::fnv1a64(out);
}

}  // namespace
}  // namespace photecc::ecc
