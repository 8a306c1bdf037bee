#include "photecc/core/manager.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "photecc/link/snr_solver.hpp"

namespace photecc::core {

std::string to_string(Policy policy) {
  switch (policy) {
    case Policy::kMinPower: return "min-power";
    case Policy::kMinEnergy: return "min-energy";
    case Policy::kMinTime: return "min-time";
  }
  throw std::logic_error("to_string: bad Policy");
}

std::optional<Policy> policy_from_string(std::string_view name) {
  for (const Policy policy : all_policies())
    if (name == to_string(policy)) return policy;
  return std::nullopt;
}

const std::vector<Policy>& all_policies() {
  static const std::vector<Policy> policies{
      Policy::kMinPower, Policy::kMinEnergy, Policy::kMinTime};
  return policies;
}

LinkManager::LinkManager(link::MwsrChannel channel,
                         std::vector<ecc::BlockCodePtr> codes,
                         SystemConfig config)
    : channel_(std::move(channel)),
      codes_(std::move(codes)),
      config_(config) {
  if (codes_.empty())
    throw std::invalid_argument("LinkManager: empty scheme menu");
  for (const auto& code : codes_)
    if (!code) throw std::invalid_argument("LinkManager: null code");
}

std::vector<SchemeMetrics> LinkManager::candidates(double target_ber) const {
  return candidates(target_ber, channel_.environment());
}

std::vector<SchemeMetrics> LinkManager::candidates(
    double target_ber, const env::EnvironmentSample& environment) const {
  return evaluate_schemes(channel_, codes_, target_ber, config_,
                          environment);
}

std::optional<LinkConfiguration> LinkManager::configure(
    const CommunicationRequest& request) const {
  return configure(request, channel_.environment());
}

std::optional<LinkConfiguration> LinkManager::configure(
    const CommunicationRequest& request,
    const env::EnvironmentSample& environment) const {
  const std::vector<SchemeMetrics> all =
      candidates(request.target_ber, environment);

  std::optional<std::size_t> best;
  const auto objective = [&](const SchemeMetrics& m) {
    switch (request.policy) {
      case Policy::kMinPower: return m.p_channel_w;
      case Policy::kMinEnergy: return m.energy_per_bit_j;
      case Policy::kMinTime: return m.ct;
    }
    throw std::logic_error("configure: bad Policy");
  };
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SchemeMetrics& m = all[i];
    if (!m.feasible) continue;
    if (request.max_ct && m.ct > *request.max_ct + 1e-12) continue;
    if (request.max_channel_power_w &&
        m.p_channel_w > *request.max_channel_power_w) continue;
    if (!best || objective(m) < objective(all[*best]) ||
        (objective(m) == objective(all[*best]) &&
         m.p_channel_w < all[*best].p_channel_w)) {
      best = i;
    }
  }
  if (!best) return std::nullopt;

  LinkConfiguration configuration;
  configuration.code = codes_[*best];
  configuration.metrics = all[*best];
  configuration.laser_output_w = all[*best].operating_point.op_laser_w;
  return configuration;
}

double LinkManager::best_reachable_ber() const {
  return best_reachable_ber(channel_.environment());
}

double LinkManager::best_reachable_ber(
    const env::EnvironmentSample& environment) const {
  double best = 0.5;
  for (const auto& code : codes_)
    best = std::min(
        best, link::best_achievable_ber(channel_, *code, environment));
  return best;
}

ConfigureMemo::ConfigureMemo(std::shared_ptr<const LinkManager> manager)
    : manager_(std::move(manager)) {
  if (!manager_) throw std::invalid_argument("ConfigureMemo: null manager");
}

const std::optional<LinkConfiguration>& ConfigureMemo::configure(
    const CommunicationRequest& request,
    const env::EnvironmentSample& environment) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const Key key{bits(request.target_ber),
                static_cast<std::uint64_t>(request.policy),
                request.max_ct.has_value(),
                bits(request.max_ct.value_or(0.0)),
                request.max_channel_power_w.has_value(),
                bits(request.max_channel_power_w.value_or(0.0)),
                bits(environment.time_s),
                bits(environment.activity)};
  const auto it = results_.find(key);
  if (it != results_.end()) return it->second;
  return results_.emplace(key, manager_->configure(request, environment))
      .first->second;
}

RecalibratingManager::RecalibratingManager(
    std::shared_ptr<const LinkManager> manager, RecalibrationConfig config)
    : manager_(std::move(manager)), config_(config) {
  if (!manager_)
    throw std::invalid_argument("RecalibratingManager: null manager");
  if (config_.activity_hysteresis < 0.0)
    throw std::invalid_argument(
        "RecalibratingManager: negative hysteresis");
}

RecalibratingManager::RecalibratingManager(ConfigureMemo& memo,
                                           RecalibrationConfig config)
    : RecalibratingManager(memo.manager(), config) {
  memo_ = &memo;
}

RecalibratingManager::Outcome RecalibratingManager::configure(
    const CommunicationRequest& request,
    const env::EnvironmentSample& environment) {
  CacheEntry* entry = nullptr;
  for (CacheEntry& candidate : cache_) {
    if (candidate.request == request) {
      entry = &candidate;
      break;
    }
  }
  const bool drifted =
      entry != nullptr &&
      std::abs(environment.activity - entry->activity) >
          config_.activity_hysteresis;
  if (entry != nullptr && !drifted) {
    ++stats_.reuses;
    return {entry->configuration, false};
  }
  if (entry == nullptr) {
    cache_.push_back({request, 0.0, std::nullopt});
    entry = &cache_.back();
  }
  entry->activity = environment.activity;
  entry->configuration = memo_ ? memo_->configure(request, environment)
                               : manager_->configure(request, environment);
  ++stats_.solves;
  // Only a drift-triggered re-solve is a recalibration; the cold first
  // solve of a request is the ordinary manager round trip.
  if (drifted) {
    ++stats_.recalibrations;
    stats_.energy_j += config_.recalibration_energy_j;
    stats_.latency_s += config_.recalibration_latency_s;
  }
  return {entry->configuration, drifted};
}

}  // namespace photecc::core
