// The closed recalibration loop: a RecalibratingManager re-solves only
// when the sampled environment drifts past the hysteresis band, and
// counts what every re-solve costs.
#include "photecc/core/manager.hpp"

#include <gtest/gtest.h>

#include "photecc/ecc/registry.hpp"

namespace photecc::core {
namespace {

std::shared_ptr<const LinkManager> paper_manager() {
  return std::make_shared<LinkManager>(link::MwsrChannel(link::MwsrParams{}),
                                       ecc::paper_schemes());
}

CommunicationRequest request_at(double ber) {
  CommunicationRequest request;
  request.target_ber = ber;
  request.policy = Policy::kMinEnergy;
  return request;
}

TEST(RecalibratingManager, ConstantEnvironmentSolvesOncePerRequest) {
  RecalibratingManager recal{paper_manager()};
  const auto request = request_at(1e-9);
  const env::EnvironmentSample sample{0.0, 0.25};
  const auto first = recal.configure(request, sample);
  ASSERT_TRUE(first.configuration.has_value());
  // The cold first solve is the ordinary manager round trip, not a
  // drift recalibration: no cost, not flagged.
  EXPECT_FALSE(first.recalibrated);
  for (int i = 0; i < 5; ++i) {
    const auto again = recal.configure(
        request, {static_cast<double>(i) * 1e-7, 0.25});
    EXPECT_FALSE(again.recalibrated);
    EXPECT_EQ(again.configuration->metrics.scheme,
              first.configuration->metrics.scheme);
  }
  EXPECT_EQ(recal.stats().solves, 1u);
  EXPECT_EQ(recal.stats().recalibrations, 0u);
  EXPECT_EQ(recal.stats().reuses, 5u);
  EXPECT_DOUBLE_EQ(recal.stats().energy_j, 0.0);
  EXPECT_DOUBLE_EQ(recal.stats().latency_s, 0.0);
}

TEST(RecalibratingManager, DriftPastHysteresisTriggersResolve) {
  RecalibrationConfig config;
  config.activity_hysteresis = 0.1;
  RecalibratingManager recal{paper_manager(), config};
  const auto request = request_at(1e-9);
  (void)recal.configure(request, {0.0, 0.25});
  // Inside the band: reuse.
  EXPECT_FALSE(recal.configure(request, {1e-7, 0.34}).recalibrated);
  // Past the band: re-solve, and the band re-centres at the new sample.
  EXPECT_TRUE(recal.configure(request, {2e-7, 0.40}).recalibrated);
  EXPECT_FALSE(recal.configure(request, {3e-7, 0.45}).recalibrated);
  EXPECT_EQ(recal.stats().solves, 2u);          // cold + 1 drift
  EXPECT_EQ(recal.stats().recalibrations, 1u);  // the drift re-solve
  EXPECT_EQ(recal.stats().reuses, 2u);
  EXPECT_DOUBLE_EQ(recal.stats().energy_j, config.recalibration_energy_j);
  EXPECT_DOUBLE_EQ(recal.stats().latency_s,
                   config.recalibration_latency_s);
}

TEST(RecalibratingManager, DistinctRequestsGetDistinctCacheEntries) {
  RecalibratingManager recal{paper_manager()};
  const env::EnvironmentSample sample{0.0, 0.25};
  (void)recal.configure(request_at(1e-6), sample);
  (void)recal.configure(request_at(1e-11), sample);
  EXPECT_EQ(recal.stats().solves, 2u);  // one cold solve each
  (void)recal.configure(request_at(1e-6), sample);
  (void)recal.configure(request_at(1e-11), sample);
  EXPECT_EQ(recal.stats().solves, 2u);  // both served from the cache
  EXPECT_EQ(recal.stats().reuses, 2u);
  EXPECT_EQ(recal.stats().recalibrations, 0u);
}

TEST(RecalibratingManager, HotEnvironmentFlipsTheDecision) {
  // At 25 % activity the manager's answer at BER 1e-11 differs from the
  // answer near saturation: the uncoded scheme leaves the feasible set
  // (the paper's thermal-envelope claim, now visible at runtime).
  auto manager = std::make_shared<LinkManager>(
      link::MwsrChannel(link::MwsrParams{}),
      std::vector<ecc::BlockCodePtr>{ecc::make_code("w/o ECC")});
  RecalibratingManager recal{manager};
  const auto request = request_at(1e-11);
  const auto cool = recal.configure(request, {0.0, 0.25});
  EXPECT_TRUE(cool.configuration.has_value());
  const auto hot = recal.configure(request, {1e-6, 0.9});
  EXPECT_TRUE(hot.recalibrated);
  EXPECT_FALSE(hot.configuration.has_value());
  // Nullopt configurations are cached too: no re-solve while hot.
  const auto still_hot = recal.configure(request, {1.1e-6, 0.9});
  EXPECT_FALSE(still_hot.recalibrated);
  EXPECT_FALSE(still_hot.configuration.has_value());
}

TEST(RecalibratingManager, EnvironmentAwareConfigureMatchesStaticAtBaseline) {
  const auto manager = paper_manager();
  const auto request = request_at(1e-9);
  const auto statically = manager->configure(request);
  const auto sampled = manager->configure(request, {0.0, 0.25});
  ASSERT_TRUE(statically && sampled);
  EXPECT_EQ(statically->metrics.p_laser_w, sampled->metrics.p_laser_w);
  EXPECT_EQ(statically->metrics.scheme, sampled->metrics.scheme);
}

TEST(ConfigureMemo, WrappersShareSolvesButKeepTheirOwnCounters) {
  const auto manager = paper_manager();
  ConfigureMemo memo(manager);
  RecalibratingManager first{memo};
  RecalibratingManager second{memo};
  const auto request = request_at(1e-9);
  const env::EnvironmentSample sample{0.0, 0.25};
  (void)first.configure(request, sample);
  const auto shared = second.configure(request, sample);
  EXPECT_EQ(memo.size(), 1u);  // the second cold solve was a memo hit
  // ... but still counts as the second wrapper's own solve.
  EXPECT_EQ(first.stats().solves, 1u);
  EXPECT_EQ(second.stats().solves, 1u);
  EXPECT_FALSE(shared.recalibrated);

  const auto direct = manager->configure(request, sample);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(shared.configuration.has_value());
  EXPECT_EQ(shared.configuration->code, direct->code);
  EXPECT_EQ(shared.configuration->laser_output_w, direct->laser_output_w);
  EXPECT_EQ(shared.configuration->metrics.p_channel_w,
            direct->metrics.p_channel_w);
}

TEST(ConfigureMemo, KeyIsTheExactRequestAndSample) {
  ConfigureMemo memo(paper_manager());
  const auto request = request_at(1e-9);
  (void)memo.configure(request, {0.0, 0.25});
  (void)memo.configure(request, {0.0, 0.25});
  EXPECT_EQ(memo.size(), 1u);
  (void)memo.configure(request, {1e-9, 0.25});  // another time
  (void)memo.configure(request, {0.0, 0.26});   // another activity
  CommunicationRequest capped = request;
  capped.max_ct = 1.0;
  (void)memo.configure(capped, {0.0, 0.25});
  // A zero power cap is a different request from no cap.
  CommunicationRequest zero_cap = request;
  zero_cap.max_channel_power_w = 0.0;
  EXPECT_FALSE(memo.configure(zero_cap, {0.0, 0.25}).has_value());
  EXPECT_TRUE(memo.configure(request, {0.0, 0.25}).has_value());
  EXPECT_EQ(memo.size(), 5u);
  EXPECT_THROW(ConfigureMemo{nullptr}, std::invalid_argument);
}

TEST(RecalibratingManager, Validation) {
  EXPECT_THROW(RecalibratingManager(nullptr), std::invalid_argument);
  RecalibrationConfig negative;
  negative.activity_hysteresis = -0.1;
  EXPECT_THROW(RecalibratingManager(paper_manager(), negative),
               std::invalid_argument);
}

}  // namespace
}  // namespace photecc::core
