// Optical Link Energy/Performance Manager (paper Section III-C):
//
// A source ONI sends a request (destination + communication
// requirements); the manager answers with the configuration both sides
// must apply — the coding scheme (w/ or w/o ECC) and the laser output
// power that meets the BER target.  Policies arbitrate between the
// feasible schemes: real-time traffic wants minimum communication time,
// energy-bounded traffic wants minimum energy per bit, thermally
// constrained regions want minimum channel power.
#ifndef PHOTECC_CORE_MANAGER_HPP
#define PHOTECC_CORE_MANAGER_HPP

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "photecc/core/channel_power.hpp"
#include "photecc/env/environment.hpp"

namespace photecc::core {

/// Selection policy among the feasible schemes.
enum class Policy {
  kMinPower,   ///< minimise Pchannel (thermal / power-wall relief)
  kMinEnergy,  ///< minimise energy per payload bit
  kMinTime,    ///< minimise communication time (real-time traffic)
};

[[nodiscard]] std::string to_string(Policy policy);

/// Exact inverse of to_string(Policy): "min-power" / "min-energy" /
/// "min-time" (case-sensitive); nullopt for anything else.
[[nodiscard]] std::optional<Policy> policy_from_string(
    std::string_view name);

/// Every Policy enumerator, in declaration order (for registries and
/// error messages that list the valid names).
[[nodiscard]] const std::vector<Policy>& all_policies();

/// One communication request from a source ONI.
struct CommunicationRequest {
  double target_ber = 1e-9;
  Policy policy = Policy::kMinEnergy;
  /// Deadline expressed as the maximum tolerated communication-time
  /// ratio (1.0 = no slack over an uncoded transfer).
  std::optional<double> max_ct;
  /// Per-wavelength channel power cap [W].
  std::optional<double> max_channel_power_w;

  [[nodiscard]] bool operator==(const CommunicationRequest&) const = default;
};

/// The manager's answer: scheme + laser operating point for both ONIs.
struct LinkConfiguration {
  ecc::BlockCodePtr code;
  SchemeMetrics metrics;
  /// Laser output power to program into the laser output power
  /// controller (LOPC) [W].
  double laser_output_w = 0.0;
};

/// Centralised manager for one MWSR channel.
class LinkManager {
 public:
  /// `codes` is the scheme menu (paper: uncoded, H(71,64), H(7,4)).
  LinkManager(link::MwsrChannel channel,
              std::vector<ecc::BlockCodePtr> codes,
              SystemConfig config = {});

  /// Resolves a request to a configuration, or std::nullopt when no
  /// scheme meets all constraints (the caller may relax the request).
  /// Evaluated at the channel's t = 0 environment sample.
  [[nodiscard]] std::optional<LinkConfiguration> configure(
      const CommunicationRequest& request) const;

  /// Same, at an explicit environment sample — one solve of the
  /// time-varying decision problem.  RecalibratingManager wraps this
  /// with drift hysteresis so a simulator does not re-solve per event.
  [[nodiscard]] std::optional<LinkConfiguration> configure(
      const CommunicationRequest& request,
      const env::EnvironmentSample& environment) const;

  /// All candidate evaluations for a target BER (for inspection).
  [[nodiscard]] std::vector<SchemeMetrics> candidates(
      double target_ber) const;

  /// Same, at an explicit environment sample.
  [[nodiscard]] std::vector<SchemeMetrics> candidates(
      double target_ber, const env::EnvironmentSample& environment) const;

  /// Lowest BER any scheme in the menu can reach on this channel.
  [[nodiscard]] double best_reachable_ber() const;

  /// Same, at an explicit environment sample.
  [[nodiscard]] double best_reachable_ber(
      const env::EnvironmentSample& environment) const;

  [[nodiscard]] const link::MwsrChannel& channel() const noexcept {
    return channel_;
  }
  [[nodiscard]] const std::vector<ecc::BlockCodePtr>& codes()
      const noexcept {
    return codes_;
  }
  [[nodiscard]] const SystemConfig& config() const noexcept {
    return config_;
  }

 private:
  link::MwsrChannel channel_;
  std::vector<ecc::BlockCodePtr> codes_;
  SystemConfig config_;
};

/// Run-scoped memo of one manager's configure(request, environment)
/// results.  configure is a pure const function, so a repeated
/// (request, environment) pair is answered bit-identically without a
/// second solve; the key compares every field bit for bit.  A simulator
/// shares one memo between all channels solving against the same
/// manager for the length of one run.  Not thread-safe.
class ConfigureMemo {
 public:
  explicit ConfigureMemo(std::shared_ptr<const LinkManager> manager);

  /// manager().configure(request, environment), solved once per key.
  [[nodiscard]] const std::optional<LinkConfiguration>& configure(
      const CommunicationRequest& request,
      const env::EnvironmentSample& environment);

  [[nodiscard]] const std::shared_ptr<const LinkManager>& manager()
      const noexcept {
    return manager_;
  }
  /// Distinct (request, environment) pairs solved so far.
  [[nodiscard]] std::size_t size() const noexcept { return results_.size(); }

 private:
  using Key = std::array<std::uint64_t, 8>;

  std::shared_ptr<const LinkManager> manager_;
  std::map<Key, std::optional<LinkConfiguration>> results_;
};

/// Knobs of the closed recalibration loop.
struct RecalibrationConfig {
  /// Re-solve when the sampled activity drifts more than this from the
  /// activity the cached configuration was solved at.  The paper's
  /// manager solves once and trusts it forever — that is hysteresis 1.
  double activity_hysteresis = 0.02;
  /// Cost of one manager round trip (request + re-solve + LOPC
  /// reprogramming) charged per recalibration.
  double recalibration_latency_s = 20e-9;
  double recalibration_energy_j = 2e-12;
};

/// Counters of the closed loop, for energy/latency accounting.  The
/// first solve of a request is a cold solve (the manager round trip
/// the paper already assumes) — only drift-triggered *re*-solves are
/// recalibrations and carry the recalibration energy/latency cost, so
/// a constant environment accrues zero cost regardless of the config.
struct RecalibrationStats {
  std::uint64_t solves = 0;           ///< total solves (cold + drift)
  std::uint64_t recalibrations = 0;   ///< drift-triggered re-solves only
  std::uint64_t reuses = 0;           ///< requests served from the cache
  double energy_j = 0.0;      ///< recalibrations x recalibration_energy_j
  double latency_s = 0.0;     ///< recalibrations x recalibration_latency_s
};

/// Stateful wrapper that closes the loop between a drifting environment
/// and the LinkManager: each configure() call carries the current
/// environment sample; the manager re-solves only when no cached
/// configuration exists for the request or the activity has drifted
/// past the hysteresis band, and counts the energy/latency every
/// re-solve costs.  Under a constant environment this reduces to one
/// solve per distinct request — the static special case.
class RecalibratingManager {
 public:
  RecalibratingManager(std::shared_ptr<const LinkManager> manager,
                       RecalibrationConfig config = {});

  /// Same, solving through `memo` (which must outlive this object) so
  /// wrappers of one manager share solves.  Hysteresis, counters and
  /// costs stay per wrapper: a memo hit still counts as this wrapper's
  /// solve.
  RecalibratingManager(ConfigureMemo& memo, RecalibrationConfig config = {});

  /// Resolves `request` at `environment`, reusing the cached
  /// configuration while the activity stays within the hysteresis band.
  /// `recalibrated` is true only for drift-triggered re-solves (not the
  /// cold first solve of a request) so callers can charge the
  /// recalibration latency to the right event.
  struct Outcome {
    std::optional<LinkConfiguration> configuration;
    bool recalibrated = false;
  };
  [[nodiscard]] Outcome configure(const CommunicationRequest& request,
                                  const env::EnvironmentSample& environment);

  [[nodiscard]] const RecalibrationStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const RecalibrationConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const LinkManager& manager() const noexcept {
    return *manager_;
  }

 private:
  struct CacheEntry {
    CommunicationRequest request;
    double activity = 0.0;
    std::optional<LinkConfiguration> configuration;
  };

  std::shared_ptr<const LinkManager> manager_;
  ConfigureMemo* memo_ = nullptr;
  RecalibrationConfig config_;
  RecalibrationStats stats_;
  std::vector<CacheEntry> cache_;
};

}  // namespace photecc::core

#endif  // PHOTECC_CORE_MANAGER_HPP
