// Declarative design-space grid: compose axes (code, BER target, link
// variant, ONI count, traffic, laser gating, policy, modulation,
// environment) and get a lazily enumerated cartesian product of
// Scenario cells.
//
// Enumeration order is fixed and documented: the code axis varies
// fastest, then cooling weight, BER, link variant, ONI count, traffic,
// gating, policy, modulation, environment.  A grid with only
// {codes, ber_targets}
// therefore enumerates in exactly the order of the historical
// core::sweep_tradeoff loops (BER-major, code-minor), which is what
// lets the refactored benches reproduce byte-identical tables; the
// modulation and environment axes are outermost so declaring them
// appends whole-grid repeats after the base cells instead of
// interleaving them.
#ifndef PHOTECC_EXPLORE_GRID_HPP
#define PHOTECC_EXPLORE_GRID_HPP

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "photecc/explore/scenario.hpp"

namespace photecc::explore {

/// A labelled MwsrParams variant for the link-parameter axis.
using LinkVariant = std::pair<std::string, link::MwsrParams>;

/// A labelled environment timeline for the environment axis.
using EnvironmentVariant = std::pair<std::string, env::EnvironmentTimeline>;

class ScenarioGrid {
 public:
  // --- Axes (fluent setters; an unset axis contributes the base value
  // and no label).  Passing an empty vector clears the axis. ---
  ScenarioGrid& codes(std::vector<std::string> names);
  /// Cooling axis (between code and BER): each weight w > 0 wraps the
  /// cell's code into COOL(<code>, w) — the enumerative weight-bounding
  /// outer code of photecc::cooling — and 0 leaves the plain code
  /// ("cooling off", the comparison baseline).  Declaring the axis also
  /// switches on the cooling metric columns (duty_bound,
  /// thermal_headroom_w) in every evaluator.
  ScenarioGrid& cooling_weights(std::vector<std::size_t> weights);
  ScenarioGrid& ber_targets(std::vector<double> bers);
  ScenarioGrid& link_variants(std::vector<LinkVariant> variants);
  ScenarioGrid& oni_counts(std::vector<std::size_t> counts);
  ScenarioGrid& traffic_patterns(std::vector<TrafficSpec> specs);
  ScenarioGrid& laser_gating(std::vector<bool> values);
  ScenarioGrid& policies(std::vector<core::Policy> values);
  ScenarioGrid& modulations(std::vector<math::Modulation> values);
  /// Environment axis (outermost): each value overrides the cell's
  /// link.environment timeline.  Undeclared = the base link's
  /// environment (the static chip-activity alias by default).
  ScenarioGrid& environments(std::vector<EnvironmentVariant> variants);

  // --- Base values applied to every cell before axis overrides. ---
  ScenarioGrid& base_link(link::MwsrParams params);
  ScenarioGrid& base_system(core::SystemConfig config);
  ScenarioGrid& base_seed(std::uint64_t seed);
  ScenarioGrid& noc_horizon(double horizon_s);
  /// Tiled-network configuration applied to every cell (not an axis:
  /// the topology and per-channel assignment are fixed while the
  /// declared axes sweep).  Routes the grid to the network evaluator.
  ScenarioGrid& network(NetworkSpec spec);
  /// Routes every cell through the NoC simulator even without a network
  /// section or NoC axis — what a spec's "noc" / "network" evaluator
  /// lowers to.
  ScenarioGrid& simulator(bool on = true);

  // --- Axis inspection (read-only views used by the lowered-plan
  // compiler; an empty vector means the axis is undeclared and every
  // cell takes the base value). ---
  [[nodiscard]] const std::vector<std::string>& code_axis() const noexcept {
    return codes_;
  }
  [[nodiscard]] const std::vector<std::size_t>& cooling_axis()
      const noexcept {
    return cooling_weights_;
  }
  [[nodiscard]] const std::vector<double>& ber_axis() const noexcept {
    return bers_;
  }
  [[nodiscard]] const std::vector<LinkVariant>& link_variant_axis()
      const noexcept {
    return link_variants_;
  }
  [[nodiscard]] const std::vector<std::size_t>& oni_axis() const noexcept {
    return oni_counts_;
  }
  [[nodiscard]] const std::vector<math::Modulation>& modulation_axis()
      const noexcept {
    return modulations_;
  }
  [[nodiscard]] const std::vector<EnvironmentVariant>& environment_axis()
      const noexcept {
    return environments_;
  }
  [[nodiscard]] const link::MwsrParams& base_link_params() const noexcept {
    return base_link_;
  }
  [[nodiscard]] const core::SystemConfig& base_system_config()
      const noexcept {
    return base_system_;
  }
  [[nodiscard]] const std::optional<NetworkSpec>& network_spec()
      const noexcept {
    return network_;
  }

  /// The declared axes in canonical order, each with one label per
  /// value in the format at() attaches to a Scenario — the result
  /// schema's axis dictionaries.
  [[nodiscard]] std::vector<AxisLabels> axis_labels() const;

  /// Number of cells: the product of the declared axis lengths (1 when
  /// no axis is declared — the grid still holds the single base cell).
  [[nodiscard]] std::size_t size() const;

  /// True when the grid's cells need the NoC simulator: simulator() is
  /// set, or a network section or any NoC-only axis (traffic, gating,
  /// policy) is declared.  Every other grid is a static link sweep that
  /// compiles to an explore::LoweredPlan.  This is the one routing
  /// decision between the two (SweepRunner::run, LoweredPlan and
  /// result_schema ask it; spec::run and serve reach it through them).
  [[nodiscard]] bool runs_simulator() const;

  /// Materialises cell `i` (mixed-radix decode of the axis indices).
  /// Throws std::out_of_range for i >= size().
  [[nodiscard]] Scenario at(std::size_t i) const;

  /// Lazy input iterator over all cells in enumeration order.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Scenario;
    using difference_type = std::ptrdiff_t;
    using pointer = const Scenario*;
    using reference = Scenario;

    const_iterator(const ScenarioGrid* grid, std::size_t index)
        : grid_(grid), index_(index) {}

    [[nodiscard]] Scenario operator*() const { return grid_->at(index_); }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++index_;
      return copy;
    }
    [[nodiscard]] bool operator==(const const_iterator& other) const {
      return grid_ == other.grid_ && index_ == other.index_;
    }
    [[nodiscard]] bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    const ScenarioGrid* grid_;
    std::size_t index_;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  std::vector<std::string> codes_;
  std::vector<std::size_t> cooling_weights_;
  std::vector<double> bers_;
  std::vector<LinkVariant> link_variants_;
  std::vector<std::size_t> oni_counts_;
  std::vector<TrafficSpec> traffic_;
  std::vector<bool> gating_;
  std::vector<core::Policy> policies_;
  std::vector<math::Modulation> modulations_;
  std::vector<EnvironmentVariant> environments_;

  link::MwsrParams base_link_{};
  core::SystemConfig base_system_{};
  std::optional<NetworkSpec> network_;
  bool simulator_ = false;
  std::uint64_t base_seed_ = 0x9e3779b97f4a7c15ULL;
  double noc_horizon_s_ = 2e-6;
};

}  // namespace photecc::explore

#endif  // PHOTECC_EXPLORE_GRID_HPP
