// Thermal-transient benchmark: the dynamic twin of ablation AB5.
//
// Part 1 (static limit): re-derives AB5's activity sweep through the
// photecc::env path — one constant EnvironmentTimeline per activity —
// and verifies in-process that the env-resolved operating points equal
// the direct chip_activity-alias solve bit for bit.  The static table
// is the t -> infinity limit of a constant timeline, so the dynamic
// machinery must reproduce it exactly.
//
// Part 2 (dynamic headline): a streaming workload runs through a linear
// activity ramp from the paper's 25 % toward saturation.  The solver
// gives each scheme's thermal ceiling (the highest activity where the
// target stays reachable) and therefore the wall-clock time at which it
// falls off the ramp; the NoC simulator then confirms the closed-loop
// picture — recalibrations, thermal drops and per-phase delivery.  The
// headline number: how much longer H(7,4) keeps the stream feasible
// than the uncoded scheme.
//
// Usage: bench_thermal_transient [--smoke]   (--smoke trims the sweep
// for CI; exit code != 0 on any static-limit mismatch).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "photecc/ecc/registry.hpp"
#include "photecc/env/environment.hpp"
#include "photecc/link/snr_solver.hpp"
#include "photecc/math/table.hpp"
#include "photecc/math/units.hpp"
#include "photecc/noc/network.hpp"

namespace {

using namespace photecc;

constexpr double kTargetBer = 1e-11;

/// Highest activity (within `step` resolution) at which `code` still
/// reaches the target on the paper channel — AB5's thermal envelope,
/// computed through environment samples.
double thermal_ceiling(const link::MwsrChannel& channel,
                       const ecc::BlockCode& code, double step) {
  double best = -1.0;
  for (double activity = 0.0; activity <= 1.0 + 1e-12; activity += step) {
    const env::EnvironmentSample sample{0.0, std::min(activity, 1.0)};
    if (link::solve_operating_point(channel, code, kTargetBer, sample)
            .feasible)
      best = sample.activity;
  }
  return best;
}

/// Part 1: the AB5 table as the constant-timeline special case.
/// Returns false on any mismatch with the direct alias solve.
bool static_limit_table(bool smoke) {
  const auto schemes = ecc::paper_schemes();
  std::cout << "=== Static limit: AB5's activity sweep via "
               "env::EnvironmentTimeline::constant @ BER "
            << math::format_sci(kTargetBer, 0) << " ===\n\n";
  std::vector<double> activities;
  const int steps = smoke ? 4 : 8;
  for (int i = 0; i <= steps; ++i)
    activities.push_back(static_cast<double>(i) / steps);

  bool consistent = true;
  math::TextTable table({"activity", "OPmax [uW]", "w/o ECC [mW]",
                         "H(71,64) [mW]", "H(7,4) [mW]"});
  for (const double activity : activities) {
    // The env path: a constant timeline declared on the channel.
    link::MwsrParams timed;
    timed.environment = env::EnvironmentTimeline::constant(activity);
    const link::MwsrChannel channel{timed};
    // The historical path: the deprecated chip_activity alias.
    link::MwsrParams aliased;
    aliased.chip_activity = activity;
    const link::MwsrChannel alias_channel{aliased};

    std::vector<std::string> row{
        math::format_fixed(100.0 * activity, 0) + " %",
        math::format_fixed(
            math::as_micro(channel.laser().max_optical_power(
                channel.environment().activity)),
            0)};
    for (const auto& code : schemes) {
      const auto point =
          link::solve_operating_point(channel, *code, kTargetBer);
      const auto alias_point =
          link::solve_operating_point(alias_channel, *code, kTargetBer);
      if (point.feasible != alias_point.feasible ||
          point.p_laser_w != alias_point.p_laser_w) {
        std::cerr << "MISMATCH: env path != alias path at activity "
                  << activity << " for " << code->name() << "\n";
        consistent = false;
      }
      row.push_back(
          point.feasible
              ? math::format_fixed(math::as_milli(point.p_laser_w), 2)
              : "infeasible");
    }
    table.add_row(std::move(row));
  }
  table.render(std::cout);
  std::cout << (consistent
                    ? "\nstatic limit OK: env-resolved operating points "
                      "equal the alias solve bit for bit\n"
                    : "\nstatic limit FAILED\n");
  return consistent;
}

/// Part 2: the activity ramp.  Solver-level ceilings map to fall-off
/// times; the NoC closed loop confirms them.
void transient_ramp(bool smoke) {
  const double ramp_start = 0.5e-6;
  const double ramp_end = smoke ? 2.5e-6 : 4.5e-6;
  const double horizon = ramp_end + 0.5e-6;
  const double from = 0.25, to = 1.0;
  const auto ramp =
      env::EnvironmentTimeline::ramp(ramp_start, ramp_end, from, to);

  std::cout << "\n=== Transient: streaming through an activity ramp "
            << math::format_fixed(100 * from, 0) << " % -> "
            << math::format_fixed(100 * to, 0) << " % over ["
            << math::format_sci(ramp_start, 1) << ", "
            << math::format_sci(ramp_end, 1) << "] s @ BER "
            << math::format_sci(kTargetBer, 0) << " ===\n\n";

  const link::MwsrChannel channel{link::MwsrParams{}};
  const double step = smoke ? 0.02 : 0.005;
  const auto ceiling_time = [&](double ceiling) {
    if (ceiling >= to) return horizon;  // never falls off
    if (ceiling < from) return 0.0;
    return ramp_start +
           (ceiling - from) / (to - from) * (ramp_end - ramp_start);
  };

  math::TextTable table({"scheme", "ceiling [%]", "falls off at [us]",
                         "feasible window [%]"});
  double uncoded_falloff = 0.0, h74_falloff = 0.0;
  for (const auto& code : ecc::paper_schemes()) {
    const double ceiling = thermal_ceiling(channel, *code, step);
    const double falloff = ceiling_time(ceiling);
    if (code->name() == "w/o ECC") uncoded_falloff = falloff;
    if (code->name() == "H(7,4)") h74_falloff = falloff;
    table.add_row({code->name(),
                   math::format_fixed(100.0 * ceiling, 1),
                   math::format_fixed(falloff * 1e6, 2),
                   math::format_fixed(100.0 * falloff / horizon, 1)});
  }
  table.render(std::cout);
  std::cout << "\nHeadline: H(7,4) keeps the stream feasible "
            << math::format_fixed((h74_falloff - uncoded_falloff) * 1e6, 2)
            << " us longer than the uncoded scheme ("
            << math::format_fixed(
                   uncoded_falloff > 0.0 ? h74_falloff / uncoded_falloff
                                         : 0.0,
                   2)
            << "x the feasible window).\n";

  // Closed-loop confirmation: one streaming channel under the ramp.
  std::cout << "\nClosed-loop NoC confirmation (streaming frames, "
               "recalibrating manager):\n";
  math::TextTable noc_table({"menu", "delivered", "dropped(thermal)",
                             "recalibrations", "per-phase delivered"});
  for (const char* scheme : {"w/o ECC", "H(7,4)"}) {
    noc::NetworkConfig config;
    config.topology.tile_count = 12;
    config.topology.channel_count = 12;
    config.base_link.environment = ramp;
    config.scheme_menu = {ecc::make_code(scheme)};
    config.default_requirements.target_ber = kTargetBer;
    std::vector<noc::Message> schedule;
    const double period = smoke ? 100e-9 : 50e-9;
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
    std::string phases;
    for (const auto& phase : stats.phases) {
      if (!phases.empty()) phases += " / ";
      phases += phase.label + ":" + std::to_string(phase.delivered);
    }
    noc_table.add_row(
        {scheme, std::to_string(stats.delivered),
         std::to_string(stats.dropped) + " (" +
             std::to_string(stats.dropped_thermal) + ")",
         std::to_string(stats.recalibrations), phases});
  }
  noc_table.render(std::cout);
  std::cout << "\nReading: the static table freezes one operating "
               "point per activity; the ramp shows the same cliff as a "
               "time axis.  The uncoded scheme dies where AB5 said it "
               "would (~35 %), while H(7,4) streams through the whole "
               "ramp — coding as thermal headroom, measured in "
               "microseconds of survived workload.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  if (!static_limit_table(smoke)) return 1;
  transient_ramp(smoke);
  return 0;
}
