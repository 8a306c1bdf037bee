// Tests of the benchmark itself: seeded generators, the serve-session
// share mix and the tail-percentile rule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "generators.hpp"
#include "measure.hpp"
#include "photecc/math/stats.hpp"

namespace perfbench {
namespace {

TEST(Generators, SweepInputsAreDeterministicPerSeed) {
  const std::vector<SweepInput> a = make_sweep_inputs(7);
  const std::vector<SweepInput> b = make_sweep_inputs(7);
  const std::vector<SweepInput> c = make_sweep_inputs(8);
  ASSERT_EQ(a.size(), kSweepPoolSize);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].document, b[i].document);
    EXPECT_EQ(a[i].cells, b[i].cells);
    differing += a[i].document != c[i].document;
  }
  EXPECT_EQ(differing, a.size());
}

TEST(Generators, SweepSizesFollowTheLogUniformLadder) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<SweepInput> inputs = make_sweep_inputs(seed);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const double target = log_quantile(
          kSweepMinCells, kSweepMaxCells,
          radical_inverse2(i) + 0.5 / static_cast<double>(kSweepPoolSize));
      EXPECT_NEAR(static_cast<double>(inputs[i].cells) / target, 1.0, 0.03)
          << "seed " << seed << " request " << i;
      EXPECT_EQ(inputs[i].cells, grid_cells(photecc::spec::from_json(
                                     inputs[i].document)));
    }
  }
}

TEST(Generators, ServeStreamIsDeterministicPerSeed) {
  const std::vector<ServeRequest> a = make_serve_stream(3, 20);
  const std::vector<ServeRequest> b = make_serve_stream(3, 20);
  const std::vector<ServeRequest> c = make_serve_stream(4, 20);
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].line, b[i].line);
    differing += a[i].line != c[i].line;
  }
  EXPECT_GT(differing, a.size() * 9 / 10);
}

TEST(Generators, NocAndMcInputsAreDeterministicPerSeed) {
  EXPECT_EQ(make_noc_recipe(5).hotspot_tiles, make_noc_recipe(5).hotspot_tiles);
  EXPECT_EQ(make_noc_input(5, 3).traffic_seeds,
            make_noc_input(5, 3).traffic_seeds);
  EXPECT_EQ(make_noc_input(5, 3).messages, make_noc_input(5, 3).messages);
  EXPECT_NE(make_noc_input(5, 3).traffic_seeds,
            make_noc_input(6, 3).traffic_seeds);
  EXPECT_NE(make_noc_input(5, 3).messages, make_noc_input(6, 3).messages);
  EXPECT_NE(make_noc_input(5, 3).traffic_seeds,
            make_noc_input(5, 4).traffic_seeds);
  for (std::size_t i = 0; i < 64; ++i) {
    const McInput a = make_mc_input(5, i);
    EXPECT_EQ(a.raw_ber, make_mc_input(5, i).raw_ber);
    EXPECT_EQ(a.mc_seed, make_mc_input(5, i).mc_seed);
    EXPECT_NE(a.raw_ber, make_mc_input(6, i).raw_ber);
    EXPECT_GE(a.raw_ber, 1e-3);
    EXPECT_LE(a.raw_ber, 1e-2);
  }
}

TEST(ServeStream, ShareMixMatchesTheStatedShares) {
  const std::vector<ServeRequest> stream = make_serve_stream(11, 200);
  ASSERT_EQ(stream.size(), 200 * kServeBlock);
  std::size_t fresh = 0, exact = 0, variants = 0, network_fresh = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ServeRequest& r = stream[i];
    const ServeRequest& first = stream[i - i % kServeBlock];
    const ServeRequest& second = stream[i - i % kServeBlock + 1];
    switch (r.kind) {
      case ServeKind::kFresh:
        ++fresh;
        network_fresh += r.network;
        EXPECT_LT(i % kServeBlock, 2u);
        break;
      case ServeKind::kExact:
        ++exact;
        // Byte-identical spec of one of this block's fresh requests.
        EXPECT_TRUE(r.spec_hash == first.spec_hash ||
                    r.spec_hash == second.spec_hash);
        break;
      case ServeKind::kThreadsVariant:
        ++variants;
        // Same grid as its fresh spec, different canonical document.
        EXPECT_TRUE(r.spec_index == first.spec_index ||
                    r.spec_index == second.spec_index);
        EXPECT_NE(r.spec_hash, first.spec_hash);
        EXPECT_NE(r.spec_hash, second.spec_hash);
        break;
    }
  }
  EXPECT_EQ(fresh * 100, stream.size() * 40);
  EXPECT_EQ(exact * 100, stream.size() * 20);
  EXPECT_EQ(variants * 100, stream.size() * 40);
  EXPECT_EQ(network_fresh * kServeNetworkEvery, fresh);
}

TEST(Tail, NearestRankWithTenSamplesBeyond) {
  for (std::size_t n = 1; n <= 400; ++n) {
    std::vector<double> values;
    for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
    const Tail t = tail(values);
    const std::size_t index =
        photecc::math::nearest_rank_index(n, t.percentile / 100.0);
    EXPECT_EQ(t.value, static_cast<double>(index + 1)) << n;
    EXPECT_EQ(t.beyond, n - 1 - index) << n;
    if (n - 1 - photecc::math::nearest_rank_index(n, 0.5) < kTailBeyond) {
      EXPECT_EQ(t.percentile, 50.0) << n;  // too few samples: the median
      continue;
    }
    EXPECT_GE(t.beyond, kTailBeyond) << n;
    // The next higher whole percentile (or 99.9) leaves fewer than 10.
    const double next = t.percentile >= 99.0 ? 99.9 : t.percentile + 1.0;
    if (t.percentile < 99.9) {
      EXPECT_LT(n - 1 - photecc::math::nearest_rank_index(n, next / 100.0),
                kTailBeyond)
          << n;
    }
  }
}

TEST(Tail, KnownValues) {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(tail(hundred).percentile, 90.0);
  EXPECT_EQ(tail(hundred).value, 90.0);
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT_EQ(tail(thousand).percentile, 99.0);
  EXPECT_EQ(tail(thousand).beyond, 10u);
}

}  // namespace
}  // namespace perfbench
