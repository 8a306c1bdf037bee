#include "photecc/explore/plan.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/link/link_budget.hpp"
#include "photecc/math/modulation.hpp"
#include "photecc/math/parallel.hpp"
#include "photecc/math/table.hpp"

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
        "LoweredPlan: grid declares a network or NoC axes "
        "(traffic/gating/policy); those cells need the simulator "
        "evaluator");
  const auto start = std::chrono::steady_clock::now();

  // --- Effective axes: Scenario's defaults stand in for undeclared
  // ones (evaluate_link_cell uses code "w/o ECC" and target 1e-9), with
  // no label emitted.
  cooling::register_cooling_codes();
  code_names_ = grid.code_axis();
  has_code_axis_ = !code_names_.empty();
  if (!has_code_axis_) code_names_ = {"w/o ECC"};
  const auto& weights = grid.cooling_axis();
  has_cooling_axis_ = !weights.empty();
  bers_ = grid.ber_axis();
  has_ber_axis_ = !bers_.empty();
  if (!has_ber_axis_) bers_ = {1e-9};

  const auto& variants = grid.link_variant_axis();
  const auto& onis = grid.oni_axis();
  const auto& mods = grid.modulation_axis();
  const auto& envs = grid.environment_axis();
  nc_ = code_names_.size();
  nw_ = std::max<std::size_t>(1, weights.size());
  nb_ = bers_.size();
  nv_ = std::max<std::size_t>(1, variants.size());
  no_ = std::max<std::size_t>(1, onis.size());
  nm_ = std::max<std::size_t>(1, mods.size());
  ne_ = std::max<std::size_t>(1, envs.size());
  size_ = grid.size();

  // --- Label strings, rendered once per axis value with the exact
  // formatting of ScenarioGrid::at.
  if (has_cooling_axis_) {
    cooling_labels_.reserve(nw_);
    for (const std::size_t w : weights)
      cooling_labels_.push_back(w == 0 ? "off" : "w" + std::to_string(w));
  }
  if (has_ber_axis_) {
    ber_labels_.reserve(nb_);
    for (const double ber : bers_)
      ber_labels_.push_back(math::format_sci(ber, 0));
  }
  for (const auto& [label, params] : variants) {
    (void)params;
    link_labels_.push_back(label);
  }
  for (const std::size_t oni : onis)
    oni_labels_.push_back(std::to_string(oni));
  for (const math::Modulation mod : mods)
    mod_labels_.push_back(math::to_string(mod));
  for (const auto& [label, timeline] : envs) {
    (void)timeline;
    env_labels_.push_back(label);
  }

  // --- Shared (code, BER) requirement table.  The inversion depends
  // only on the code model, never on the channel, so every combo reads
  // the same table; bit-equal to the per-cell inversion because it IS
  // the per-cell inversion, run once per distinct pair.  The cooling
  // axis expands the plan's code list to nc_ * nw_ effective codes —
  // the same COOL(<base>, w) wrap ScenarioGrid::at applies per cell.
  std::vector<ecc::BlockCodePtr> codes;
  codes.reserve(nc_ * nw_);
  for (std::size_t wi = 0; wi < nw_; ++wi) {
    for (const auto& name : code_names_) {
      const bool wrap = has_cooling_axis_ && weights[wi] > 0;
      codes.push_back(ecc::make_code(
          wrap ? cooling::cooling_name(name, weights[wi]) : name));
    }
  }
  requirements_.resize(nc_ * nw_ * nb_);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t pci = 0; pci < nc_ * nw_; ++pci) {
      ecc::RawBerSolveTrace trace;
      requirements_[bi * nc_ * nw_ + pci] =
          codes[pci]->required_raw_ber_checked(bers_[bi], &trace).raw_ber;
      ++stats_.root_solves;
      stats_.solver_iterations +=
          static_cast<std::size_t>(std::max(0, trace.iterations));
    }
  }

  // --- Channel combos: one MwsrChannel (one worst-channel scan), one
  // core plan and one link budget per distinct slow-axis digit tuple,
  // overriding the base parameters in ScenarioGrid::at's order.
  combos_.reserve(nv_ * no_ * nm_ * ne_);
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
          combo.modulation = combo.channel->params().modulation;
          combo.total_loss_db =
              link::compute_link_budget(*combo.channel,
                                        combo.plan->solver().channel_index())
                  .total_loss_db;
          combos_.push_back(std::move(combo));
        }
      }
    }
  }
  stats_.channels_lowered = combos_.size();
  stats_.lower_time_s = seconds_since(start);
}

void LoweredPlan::execute_block(std::size_t begin, std::size_t end,
                                std::vector<CellResult>& cells) const {
  const std::size_t n = end - begin;
  // Struct-of-arrays scratch: decode once, then run the transcendental
  // BER -> SNR map as one tight batch before any per-cell assembly.
  std::vector<std::size_t> ci(n), wi(n), bi(n), vi(n), oi(n), mi(n), ei(n);
  std::vector<std::size_t> pci(n), combo(n);
  std::vector<double> raw_ber(n), snr(n);

  for (std::size_t k = 0; k < n; ++k) {
    // Mixed-radix decode in grid axis order; the NoC axes are absent by
    // construction, so their radix-1 digits vanish.
    std::size_t rem = begin + k;
    ci[k] = rem % nc_;
    rem /= nc_;
    wi[k] = rem % nw_;
    rem /= nw_;
    bi[k] = rem % nb_;
    rem /= nb_;
    vi[k] = rem % nv_;
    rem /= nv_;
    oi[k] = rem % no_;
    rem /= no_;
    mi[k] = rem % nm_;
    rem /= nm_;
    ei[k] = rem % ne_;
    combo[k] = vi[k] + nv_ * (oi[k] + no_ * (mi[k] + nm_ * ei[k]));
    pci[k] = wi[k] * nc_ + ci[k];
    raw_ber[k] = requirements_[bi[k] * nc_ * nw_ + pci[k]];
  }

  for (std::size_t k = 0; k < n; ++k)
    snr[k] = math::snr_from_ber_clamped(combos_[combo[k]].modulation,
                                        raw_ber[k]);

  for (std::size_t k = 0; k < n; ++k) {
    const ChannelCombo& c = combos_[combo[k]];
    CellResult cell;
    cell.index = begin + k;
    // Labels in the grid's canonical axis order, from the pre-rendered
    // strings.
    if (has_code_axis_)
      cell.labels.emplace_back("code", code_names_[ci[k]]);
    if (has_cooling_axis_)
      cell.labels.emplace_back("cooling", cooling_labels_[wi[k]]);
    if (has_ber_axis_)
      cell.labels.emplace_back("target_ber", ber_labels_[bi[k]]);
    if (!link_labels_.empty())
      cell.labels.emplace_back("link", link_labels_[vi[k]]);
    if (!oni_labels_.empty())
      cell.labels.emplace_back("oni_count", oni_labels_[oi[k]]);
    if (!mod_labels_.empty())
      cell.labels.emplace_back("modulation", mod_labels_[mi[k]]);
    if (!env_labels_.empty())
      cell.labels.emplace_back("environment", env_labels_[ei[k]]);

    core::SchemeMetrics m = c.plan->evaluate_with_solution(
        pci[k], bers_[bi[k]], raw_ber[k], snr[k]);
    cell.feasible = m.feasible;
    cell.set_metric("ct", m.ct);
    cell.set_metric("p_channel_w", m.p_channel_w);
    cell.set_metric("p_laser_w", m.p_laser_w);
    cell.set_metric("p_mr_w", m.p_mr_w);
    cell.set_metric("p_enc_dec_w", m.p_enc_dec_w);
    cell.set_metric("energy_per_bit_j", m.energy_per_bit_j);
    cell.set_metric("code_rate", m.code_rate);
    cell.set_metric("op_laser_w", m.operating_point.op_laser_w);
    cell.set_metric("snr", m.operating_point.snr);
    cell.set_metric("p_interconnect_w", m.p_interconnect_w);
    cell.set_metric("total_loss_db", c.total_loss_db);
    if (has_cooling_axis_) {
      cell.set_metric("duty_bound", m.duty_bound);
      cell.set_metric("thermal_headroom_w",
                      core::thermal_headroom_w(*c.channel, m,
                                               c.channel->environment()));
    }
    cell.scheme = std::move(m);
    cells[begin + k] = std::move(cell);
  }
}

ExperimentResult LoweredPlan::execute(std::size_t threads) const {
  return execute(threads, BlockCallback{});
}

ExperimentResult LoweredPlan::execute(std::size_t threads,
                                      const BlockCallback& on_block) const {
  ExperimentResult result;
  result.cells.resize(size_);
  const std::size_t workers =
      threads ? threads : math::default_thread_count();
  result.threads_used = std::max<std::size_t>(1, std::min(workers, size_));

  // In-order delivery state: parallel_for_blocks hands out the SAME
  // fixed partition at every thread count, so block k is exactly
  // [k * block, min(size, (k + 1) * block)).  Whichever worker finishes
  // the oldest undelivered block drains every consecutive finished one
  // under the mutex — callbacks are serialised and strictly ascending.
  const std::size_t block = std::max<std::size_t>(1, options_.block_size);
  const std::size_t n_blocks = size_ ? (size_ + block - 1) / block : 0;
  std::vector<char> finished(n_blocks, 0);
  std::size_t next_to_deliver = 0;
  std::mutex delivery_mutex;

  const auto start = std::chrono::steady_clock::now();
  math::parallel_for_blocks(
      size_, options_.block_size, threads,
      [&](std::size_t begin, std::size_t end) {
        execute_block(begin, end, result.cells);
        if (!on_block) return;
        const std::lock_guard<std::mutex> lock(delivery_mutex);
        finished[begin / block] = 1;
        while (next_to_deliver < n_blocks && finished[next_to_deliver]) {
          const std::size_t b = next_to_deliver * block;
          on_block(b, std::min(size_, b + block), result.cells);
          ++next_to_deliver;
        }
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
