#include "photecc/math/roots.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace photecc::math {
namespace {

TEST(Bisect, FindsSimpleRoot) {
  const auto result = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->root, std::sqrt(2.0), 1e-12);
}

TEST(Bisect, ReturnsNulloptWithoutSignChange) {
  EXPECT_FALSE(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0));
}

TEST(Bisect, AcceptsRootAtBracketEdge) {
  const auto result = bisect([](double x) { return x; }, 0.0, 1.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->root, 0.0);
}

TEST(Bisect, RejectsInvertedBracket) {
  EXPECT_FALSE(bisect([](double x) { return x; }, 1.0, -1.0));
}

TEST(Brent, FindsSimpleRoot) {
  const auto result = brent([](double x) { return x * x * x - 8.0; },
                            0.0, 5.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->root, 2.0, 1e-12);
}

TEST(Brent, ConvergesFasterThanBisectionOnSmoothFunction) {
  RootOptions opts;
  opts.x_tolerance = 1e-13;
  const auto f = [](double x) { return std::exp(x) - 5.0; };
  const auto brent_result = brent(f, 0.0, 4.0, opts);
  const auto bisect_result = bisect(f, 0.0, 4.0, opts);
  ASSERT_TRUE(brent_result && bisect_result);
  EXPECT_LT(brent_result->iterations, bisect_result->iterations);
  EXPECT_NEAR(brent_result->root, std::log(5.0), 1e-11);
}

TEST(Brent, HandlesSteepTransition) {
  // Near-step function: f = tanh(1000 (x - 0.3)).
  const auto result = brent(
      [](double x) { return std::tanh(1000.0 * (x - 0.3)); }, 0.0, 1.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->root, 0.3, 1e-9);
}

TEST(Brent, KnownEdgeValuesGiveTheSameIterates) {
  // The entry that takes f(lo) and f(hi) from the caller must walk the
  // same iterates as the one that evaluates them: same root, residual
  // and iteration count, bit for bit, and two fewer calls of f.
  int calls = 0;
  const auto f = [&calls](double x) {
    ++calls;
    return std::log10(x * x * x + 1e-9) + 3.0;
  };
  RootOptions opts;
  opts.x_tolerance = 1e-13;
  const auto cold = brent(f, 0.0, 2.0, opts);
  const int cold_calls = calls;
  const double flo = f(0.0);
  const double fhi = f(2.0);
  calls = 0;
  const auto seeded = brent(f, 0.0, 2.0, flo, fhi, opts);
  ASSERT_TRUE(cold && seeded);
  EXPECT_TRUE(seeded->converged);
  EXPECT_EQ(seeded->root, cold->root);
  EXPECT_EQ(seeded->residual, cold->residual);
  EXPECT_EQ(seeded->iterations, cold->iterations);
  EXPECT_EQ(calls, cold_calls - 2);
}

TEST(Brent, KnownEdgeValuesWithoutSignChangeAreRejected) {
  const auto f = [](double x) { return x + 1.0; };
  EXPECT_FALSE(brent(f, 0.0, 1.0, f(0.0), f(1.0)).has_value());
  const auto at_edge = brent(f, -1.0, 1.0, 0.0, 2.0);
  ASSERT_TRUE(at_edge.has_value());
  EXPECT_EQ(at_edge->root, -1.0);
  EXPECT_EQ(at_edge->iterations, 0);
}

}  // namespace
}  // namespace photecc::math
