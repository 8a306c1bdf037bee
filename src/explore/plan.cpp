#include "photecc/explore/plan.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <utility>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/link/link_budget.hpp"
#include "photecc/math/modulation.hpp"
#include "photecc/math/parallel.hpp"

namespace photecc::explore {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

LoweredPlan::LoweredPlan(const ScenarioGrid& grid, PlanOptions options)
    : options_(options) {
  if (grid.runs_simulator())
    throw std::invalid_argument(
        "LoweredPlan: grid runs the simulator (a network section, NoC "
        "axes or simulator()); those cells need evaluate_network_cell");
  const auto start = std::chrono::steady_clock::now();

  // --- Effective axes: Scenario's defaults stand in for undeclared
  // ones (evaluate_link_cell uses code "w/o ECC" and target 1e-9).
  cooling::register_cooling_codes();
  schema_ = result_schema(grid);
  std::vector<std::string> code_names = grid.code_axis();
  if (code_names.empty()) code_names = {"w/o ECC"};
  const auto& weights = grid.cooling_axis();
  has_cooling_axis_ = !weights.empty();
  bers_ = grid.ber_axis();
  if (bers_.empty()) bers_ = {1e-9};

  const auto& variants = grid.link_variant_axis();
  const auto& onis = grid.oni_axis();
  const auto& mods = grid.modulation_axis();
  const auto& envs = grid.environment_axis();
  nc_ = code_names.size();
  nw_ = std::max<std::size_t>(1, weights.size());
  nb_ = bers_.size();
  nv_ = std::max<std::size_t>(1, variants.size());
  no_ = std::max<std::size_t>(1, onis.size());
  nm_ = std::max<std::size_t>(1, mods.size());
  ne_ = std::max<std::size_t>(1, envs.size());
  size_ = grid.size();

  // --- Shared (code, BER) requirement table.  The inversion depends
  // only on the code model, never on the channel, so every combo reads
  // the same table; bit-equal to the per-cell inversion because it IS
  // the per-cell inversion, run once per distinct pair (one batch call
  // per code over the BER axis).  The cooling axis expands the plan's
  // code list to nc_ * nw_ effective codes — the same COOL(<base>, w)
  // wrap ScenarioGrid::at applies per cell.
  std::vector<ecc::BlockCodePtr> codes;
  codes.reserve(nc_ * nw_);
  for (std::size_t wi = 0; wi < nw_; ++wi) {
    for (const auto& name : code_names) {
      const bool wrap = has_cooling_axis_ && weights[wi] > 0;
      codes.push_back(ecc::make_code(
          wrap ? cooling::cooling_name(name, weights[wi]) : name));
    }
  }
  requirements_.resize(nc_ * nw_ * nb_);
  std::vector<ecc::RawBerSolveTrace> traces(nb_);
  for (std::size_t pci = 0; pci < nc_ * nw_; ++pci) {
    codes[pci]->required_raw_ber_batch(
        bers_, std::span(requirements_).subspan(pci * nb_, nb_), traces);
    for (const ecc::RawBerSolveTrace& trace : traces)
      stats_.solver_iterations +=
          static_cast<std::size_t>(std::max(0, trace.iterations));
    stats_.root_solves += nb_;
  }

  // --- Channel combos: one MwsrChannel (one worst-channel scan), one
  // core plan and one link budget per distinct slow-axis digit tuple,
  // overriding the base parameters in ScenarioGrid::at's order.
  combos_.reserve(nv_ * no_ * nm_ * ne_);
  std::vector<math::Modulation> modulations;  // distinct, first-seen order
  for (std::size_t ei = 0; ei < ne_; ++ei) {
    for (std::size_t mi = 0; mi < nm_; ++mi) {
      for (std::size_t oi = 0; oi < no_; ++oi) {
        for (std::size_t vi = 0; vi < nv_; ++vi) {
          link::MwsrParams params = grid.base_link_params();
          core::SystemConfig system = grid.base_system_config();
          if (!variants.empty()) params = variants[vi].second;
          if (!onis.empty()) {
            params.oni_count = onis[oi];
            system.oni_count = onis[oi];
          }
          if (!mods.empty()) params.modulation = mods[mi];
          if (!envs.empty()) params.environment = envs[ei].second;

          ChannelCombo combo;
          combo.channel =
              std::make_unique<link::MwsrChannel>(std::move(params));
          combo.plan = std::make_unique<core::ChannelSweepPlan>(
              *combo.channel, codes, system);
          const math::Modulation modulation =
              combo.channel->params().modulation;
          combo.snr_table =
              static_cast<std::size_t>(std::find(modulations.begin(),
                                                 modulations.end(),
                                                 modulation) -
                                       modulations.begin());
          if (combo.snr_table == modulations.size())
            modulations.push_back(modulation);
          combo.total_loss_db =
              link::compute_link_budget(*combo.channel,
                                        combo.plan->solver().channel_index())
                  .total_loss_db;
          combos_.push_back(std::move(combo));
        }
      }
    }
  }

  // --- SNR table: the BER -> SNR map of every requirement, once per
  // distinct combo modulation (the same snr_from_ber_clamped call the
  // per-cell path makes, on the same inputs).
  snrs_.reserve(modulations.size() * requirements_.size());
  for (const math::Modulation modulation : modulations)
    for (const ecc::RawBerRequirement& requirement : requirements_)
      snrs_.push_back(
          math::snr_from_ber_clamped(modulation, requirement.raw_ber));
  stats_.channels_lowered = combos_.size();
  stats_.lower_time_s = seconds_since(start);
}

void LoweredPlan::execute_block(std::size_t begin, std::size_t end,
                                ResultTable& cells) const {
  const std::size_t table = nc_ * nw_ * nb_;
  for (std::size_t cell = begin; cell < end; ++cell) {
    // Mixed-radix decode in grid axis order; the NoC axes are absent by
    // construction, so their radix-1 digits vanish.
    std::size_t rem = cell;
    const std::size_t ci = rem % nc_;
    rem /= nc_;
    const std::size_t wi = rem % nw_;
    rem /= nw_;
    const std::size_t bi = rem % nb_;
    rem /= nb_;
    const std::size_t vi = rem % nv_;
    rem /= nv_;
    const std::size_t oi = rem % no_;
    rem /= no_;
    const std::size_t mi = rem % nm_;
    rem /= nm_;
    const std::size_t ei = rem % ne_;
    const ChannelCombo& c = combos_[vi + nv_ * (oi + no_ * (mi + nm_ * ei))];
    const std::size_t pci = wi * nc_ + ci;
    const std::size_t entry = pci * nb_ + bi;
    store_link_cell(cells, cell,
                    c.plan->evaluate_with_solution(
                        pci, bers_[bi], requirements_[entry].raw_ber,
                        snrs_[c.snr_table * table + entry]),
                    c.total_loss_db, *c.channel, has_cooling_axis_);
  }
}

ExperimentResult LoweredPlan::execute(std::size_t threads) const {
  return execute(threads, BlockCallback{});
}

ExperimentResult LoweredPlan::execute(std::size_t threads,
                                      const BlockCallback& on_block) const {
  ExperimentResult result;
  result.cells = ResultTable(schema_, size_, /*with_schemes=*/true);
  const std::size_t workers =
      threads ? threads : math::default_thread_count();
  result.threads_used = std::max<std::size_t>(1, std::min(workers, size_));

  const auto start = std::chrono::steady_clock::now();
  math::parallel_for_blocks_ordered(
      size_, options_.block_size, options_.block_size, threads,
      [&](std::size_t begin, std::size_t end) {
        execute_block(begin, end, result.cells);
      },
      [&](std::size_t begin, std::size_t end) {
        if (on_block) on_block(begin, end, result.cells);
      });
  result.wall_time_s = seconds_since(start);

  SweepStats stats = stats_;
  stats.cells = size_;
  // Every cell beyond the distinct (code, BER) pairs is served from the
  // hoisted tables without touching a root solver.
  stats.warm_reuses = size_ - std::min(size_, stats.root_solves);
  stats.execute_time_s = result.wall_time_s;
  result.stats = stats;
  return result;
}

}  // namespace photecc::explore
