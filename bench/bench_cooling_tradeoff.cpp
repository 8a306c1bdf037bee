// Cooling-code trade-off benchmark: weight-bounded (cooling) codes on
// the (CT, Pchannel, thermal-ceiling) surface next to the FEC menu.
//
// A cooling code COOL(<inner>, w) guarantees every transmitted word has
// at most w + (n - m) hot wires, so the laser derating sees
// activity * duty_bound instead of the raw chip activity — a lever that
// attacks the heat source itself rather than the BER requirement.
//
// Part 1 (static window): on a long hot channel, each scheme's thermal
// ceiling — the highest activity where the target BER stays reachable.
// The headline: the best cooling-coded scheme sustains a strictly wider
// feasible activity window than the best FEC-only scheme, at a
// quantified rate cost.
//
// Part 2 (closed loop): a streaming workload through the PR 5
// ramp + self-heating environment.  The NoC simulator weights the
// self-heating feedback by the menu's duty bound, so the cooling-coded
// channel both heats less and keeps its operating point feasible
// longer — strictly fewer dropped_thermal at equal offered messages.
//
// Part 3 (export identity): the cooling axis of explore::ScenarioGrid
// through the lowered-plan hot path — CSV exports are byte-identical at
// 1 vs 4 threads and to the legacy evaluate_link_cell path.
//
// Usage: bench_cooling_tradeoff [--smoke]   (--smoke trims the sweeps;
// the dominance and byte-identity pins are asserted in both modes —
// exit code != 0 on any violation).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/env/environment.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/grid.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/link/snr_solver.hpp"
#include "photecc/math/table.hpp"
#include "photecc/noc/network.hpp"

namespace {

using namespace photecc;

constexpr double kTargetBer = 1e-11;

/// The hot channel every part runs on: the paper link stretched to a
/// 14 cm waveguide with 16 ONIs — enough loss that even the strongest
/// FEC scheme hits its thermal ceiling below full activity.
link::MwsrParams hot_channel_params() {
  link::MwsrParams params;
  params.waveguide_length_m = 0.14;
  params.oni_count = 16;
  return params;
}

/// Highest activity (within `step` resolution) at which `code` still
/// reaches the target BER — the scheme's thermal ceiling.  The solver
/// multiplies the activity the laser derating sees by the code's
/// transmit_duty_bound(), which is where cooling codes win.
double thermal_ceiling(const link::MwsrChannel& channel,
                       const ecc::BlockCode& code, double step) {
  double best = 0.0;
  for (double activity = 0.0; activity <= 1.0 + 1e-12; activity += step) {
    const env::EnvironmentSample sample{0.0, std::min(activity, 1.0)};
    if (link::solve_operating_point(channel, code, kTargetBer, sample)
            .feasible)
      best = sample.activity;
  }
  return best;
}

struct CeilingRow {
  std::string name;
  double rate = 0.0;
  double duty_bound = 1.0;
  double ceiling = 0.0;
};

/// Part 1: the static feasible-activity window per scheme.  Returns
/// false when the cooling side fails to strictly dominate.
bool static_window(bool smoke) {
  cooling::register_cooling_codes();
  const link::MwsrChannel channel{hot_channel_params()};
  const double step = smoke ? 0.02 : 0.005;

  std::cout << "=== Static window: thermal ceilings on the hot channel "
               "(14 cm, 16 ONIs) @ BER "
            << math::format_sci(kTargetBer, 0) << " ===\n\n";

  const std::vector<std::string> fec_menu = {
      "w/o ECC", "H(71,64)", "H(7,4)", "BCH(15,7,2)", "REP(3,1)"};
  const std::vector<std::string> cooling_menu = {
      "COOL(H(71,64),16)", "COOL(BCH(15,7,2),2)", "COOL(BCH(15,7,2),3)",
      "COOL(64,16)"};

  const auto evaluate = [&](const std::vector<std::string>& names) {
    std::vector<CeilingRow> rows;
    for (const std::string& name : names) {
      const auto code = ecc::make_code(name);
      CeilingRow row;
      row.name = name;
      row.rate = static_cast<double>(code->message_length()) /
                 static_cast<double>(code->block_length());
      row.duty_bound = code->transmit_duty_bound();
      row.ceiling = thermal_ceiling(channel, *code, step);
      rows.push_back(std::move(row));
    }
    return rows;
  };
  const std::vector<CeilingRow> fec_rows = evaluate(fec_menu);
  const std::vector<CeilingRow> cooling_rows = evaluate(cooling_menu);

  math::TextTable table(
      {"scheme", "rate", "duty bound", "ceiling [%]", "window [%]"});
  const auto add_rows = [&](const std::vector<CeilingRow>& rows) {
    for (const CeilingRow& row : rows)
      table.add_row({row.name, math::format_fixed(row.rate, 3),
                     math::format_fixed(row.duty_bound, 3),
                     math::format_fixed(100.0 * row.ceiling, 1),
                     math::format_fixed(100.0 * row.ceiling, 1)});
  };
  add_rows(fec_rows);
  add_rows(cooling_rows);
  table.render(std::cout);

  // Widest window first; ties go to the higher-rate scheme (the
  // cheaper assignment among equally feasible ones).
  const auto best = [](const std::vector<CeilingRow>& rows) {
    const CeilingRow* top = &rows.front();
    for (const CeilingRow& row : rows)
      if (row.ceiling > top->ceiling ||
          (row.ceiling == top->ceiling && row.rate > top->rate))
        top = &row;
    return *top;
  };
  const CeilingRow best_fec = best(fec_rows);
  const CeilingRow best_cooling = best(cooling_rows);

  std::cout << "\nHeadline: " << best_cooling.name
            << " sustains a feasible activity window of "
            << math::format_fixed(100.0 * best_cooling.ceiling, 1)
            << " % vs " << math::format_fixed(100.0 * best_fec.ceiling, 1)
            << " % for the best FEC-only scheme (" << best_fec.name
            << ") — "
            << math::format_fixed(
                   100.0 * (best_cooling.ceiling - best_fec.ceiling), 1)
            << " points wider, at a rate cost of "
            << math::format_fixed(best_fec.rate, 3) << " -> "
            << math::format_fixed(best_cooling.rate, 3) << ".\n";

  if (best_cooling.ceiling <= best_fec.ceiling) {
    std::cerr << "FAIL: cooling window is not strictly wider\n";
    return false;
  }
  return true;
}

/// Part 2: the closed NoC loop under ramp + self-heating.  Returns
/// false when the cooling menu fails the drop-dominance pin.
bool closed_loop(bool smoke) {
  const double horizon = smoke ? 3e-6 : 6e-6;
  const auto environment = env::EnvironmentTimeline::self_heating(
      0.25, 0.75, 4e-7);

  std::cout << "\n=== Closed loop: streaming through self-heating "
               "(baseline 25 %, gain 0.75, tau 0.4 us) ===\n\n";

  struct MenuResult {
    std::string name;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_thermal = 0;
    std::uint64_t recalibrations = 0;
    double peak_activity = 0.0;
  };
  const auto run_menu = [&](const std::string& scheme) {
    noc::NetworkConfig config;
    config.topology.tile_count = 16;
    config.topology.channel_count = 16;
    config.base_link = hot_channel_params();
    config.base_link.environment = environment;
    config.scheme_menu = {ecc::make_code(scheme)};
    config.default_requirements.target_ber = kTargetBer;
    std::vector<noc::Message> schedule;
    const double period = smoke ? 50e-9 : 25e-9;
    for (std::uint64_t i = 0; static_cast<double>(i) * period < horizon;
         ++i) {
      noc::Message m;
      m.id = i;
      m.source = 1;
      m.destination = 0;
      m.payload_bits = 4096;
      m.creation_time_s = static_cast<double>(i) * period;
      schedule.push_back(m);
    }
    const auto run =
        noc::NetworkSimulator(config).run(std::move(schedule), horizon);
    const noc::NocStats& stats = run.stats.aggregate;
    MenuResult out;
    out.name = scheme;
    out.delivered = stats.delivered;
    out.dropped_thermal = stats.dropped_thermal;
    out.recalibrations = stats.recalibrations;
    out.peak_activity = stats.peak_activity;
    return out;
  };

  cooling::register_cooling_codes();
  const MenuResult fec = run_menu("BCH(15,7,2)");
  const MenuResult cool = run_menu("COOL(BCH(15,7,2),3)");

  math::TextTable table({"menu", "delivered", "dropped(thermal)",
                         "recalibrations", "peak activity [%]"});
  for (const MenuResult& r : {fec, cool})
    table.add_row({r.name, std::to_string(r.delivered),
                   std::to_string(r.dropped_thermal),
                   std::to_string(r.recalibrations),
                   math::format_fixed(100.0 * r.peak_activity, 1)});
  table.render(std::cout);

  std::cout << "\nHeadline: the cooling-coded channel drops "
            << fec.dropped_thermal - cool.dropped_thermal
            << " fewer messages to thermal infeasibility ("
            << cool.dropped_thermal << " vs " << fec.dropped_thermal
            << ") and delivers " << cool.delivered << " vs "
            << fec.delivered << " at equal offered load — the duty bound "
               "both lowers the self-heating feedback and keeps the "
               "operating point solvable.\n";

  if (cool.dropped_thermal >= fec.dropped_thermal ||
      cool.delivered < fec.delivered) {
    std::cerr << "FAIL: cooling menu does not dominate on thermal drops "
                 "at equal delivered messages\n";
    return false;
  }
  return true;
}

/// Part 3: the cooling axis through the explore engine — 1-vs-4-thread
/// and plan-vs-legacy export byte-identity.
bool export_identity() {
  std::cout << "\n=== Export identity: cooling axis through the lowered "
               "plan ===\n\n";
  explore::ScenarioGrid grid;
  grid.codes({"w/o ECC", "H(71,64)"})
      .cooling_weights({0, 16, 32})
      .ber_targets({1e-9, kTargetBer})
      .base_link(hot_channel_params());

  const auto sequential =
      explore::SweepRunner{{.threads = 1}}.run(grid);
  const auto parallel = explore::SweepRunner{{.threads = 4}}.run(grid);
  explore::ExperimentResult legacy;
  legacy.cells = explore::ResultTable(explore::result_schema(grid),
                                      grid.size(), true);
  for (std::size_t i = 0; i < grid.size(); ++i)
    explore::evaluate_link_cell(grid.at(i), legacy.cells);

  const std::string csv1 = sequential.csv();
  const bool threads_identical = csv1 == parallel.csv();
  const bool legacy_identical = csv1 == legacy.csv();
  std::cout << grid.size() << " cells; 1-vs-4-thread CSV: "
            << (threads_identical ? "byte-identical" : "MISMATCH")
            << "; plan-vs-legacy CSV: "
            << (legacy_identical ? "byte-identical" : "MISMATCH") << "\n";
  if (!threads_identical || !legacy_identical) {
    std::cerr << "FAIL: cooling-axis exports are not byte-identical\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  bool ok = static_window(smoke);
  ok = closed_loop(smoke) && ok;
  ok = export_identity() && ok;
  return ok ? 0 : 1;
}
