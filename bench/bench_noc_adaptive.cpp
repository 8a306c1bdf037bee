// The paper's future-work experiment: application traffic on the MWSR
// ONoC with the Optical Link Energy/Performance Manager selecting the
// scheme per message.  Compares static (uncoded-only, H(7,4)-only,
// H(71,64)-only) against the adaptive manager on a mixed real-time +
// multimedia workload, with and without laser gating [ref 9].
#include <iostream>

#include "photecc/ecc/registry.hpp"
#include "photecc/math/table.hpp"
#include "photecc/math/units.hpp"
#include "photecc/noc/network.hpp"

namespace {

using namespace photecc;

noc::MixedTraffic make_workload() {
  std::vector<noc::StreamingTraffic::Stream> streams;
  for (std::size_t s = 0; s < 4; ++s) {
    noc::StreamingTraffic::Stream stream;
    stream.source = s;
    stream.destination = (s + 6) % 12;
    stream.period_s = 2e-6;
    stream.frame_bits = 8192;
    stream.deadline_fraction = 0.25;
    stream.cls = noc::TrafficClass::kRealTime;
    streams.push_back(stream);
  }
  auto rt = std::make_shared<noc::StreamingTraffic>(streams);
  auto mm = std::make_shared<noc::UniformRandomTraffic>(
      12, 5e6, 65536, noc::TrafficClass::kMultimedia);
  auto be = std::make_shared<noc::UniformRandomTraffic>(
      12, 2e6, 4096, noc::TrafficClass::kBestEffort);
  return noc::MixedTraffic({rt, mm, be});
}

/// The paper's topology: 12 ONIs, one reader channel each.
noc::NetworkConfig paper_noc() {
  noc::NetworkConfig config;
  config.topology.tile_count = 12;
  config.topology.channel_count = 12;
  return config;
}

noc::NetworkConfig adaptive_config() {
  noc::NetworkConfig config = paper_noc();
  config.scheme_menu = ecc::paper_schemes();
  config.class_requirements[noc::TrafficClass::kRealTime] =
      noc::ClassRequirements{1e-9, core::Policy::kMinTime, 1.0,
                             std::nullopt};
  config.class_requirements[noc::TrafficClass::kMultimedia] =
      noc::ClassRequirements{1e-9, core::Policy::kMinPower, std::nullopt,
                             std::nullopt};
  config.class_requirements[noc::TrafficClass::kBestEffort] =
      noc::ClassRequirements{1e-9, core::Policy::kMinEnergy, std::nullopt,
                             std::nullopt};
  return config;
}

noc::NetworkConfig static_config(const char* code) {
  noc::NetworkConfig config = paper_noc();
  config.scheme_menu = {ecc::make_code(code)};
  config.default_requirements.target_ber = 1e-9;
  config.class_requirements.clear();
  return config;
}

void report_row(math::TextTable& table, const std::string& label,
                const noc::NetworkRunResult& result) {
  const auto& s = result.stats.aggregate;
  table.add_row({
      label,
      std::to_string(s.delivered),
      std::to_string(s.deadline_misses),
      math::format_fixed(s.mean_latency_s * 1e9, 1),
      math::format_fixed(s.p95_latency_s * 1e9, 1),
      math::format_fixed(
          math::as_pico(s.energy_per_bit_j(result.total_payload_bits)),
          2),
      math::format_fixed(s.laser_energy_j * 1e6, 2),
      math::format_fixed(s.idle_laser_energy_j * 1e6, 2),
  });
}

}  // namespace

int main() {
  const double horizon = 200e-6;
  const std::uint64_t seed = 2017;
  const auto workload = make_workload();

  std::cout << "=== NoC experiment: adaptive manager vs static schemes "
               "(12 ONIs, 16 lambdas, 200 us, mixed RT/MM/BE) ===\n\n";

  math::TextTable table({"configuration", "delivered", "deadline misses",
                         "mean lat [ns]", "p95 lat [ns]", "E/bit [pJ]",
                         "laser E [uJ]", "idle laser E [uJ]"});

  for (const bool gating : {true, false}) {
    for (const auto& [label, config] :
         std::vector<std::pair<std::string, noc::NetworkConfig>>{
             {"adaptive", adaptive_config()},
             {"static w/o ECC", static_config("w/o ECC")},
             {"static H(71,64)", static_config("H(71,64)")},
             {"static H(7,4)", static_config("H(7,4)")}}) {
      noc::NetworkConfig run_config = config;
      run_config.laser_gating = gating;
      const noc::NetworkSimulator sim(run_config);
      const auto result = sim.run(workload, horizon, seed);
      report_row(table,
                 label + (gating ? " (gated)" : " (always-on)"), result);
    }
  }
  table.render(std::cout);

  // Scheme usage of the adaptive run, to show the manager at work.
  const noc::NetworkSimulator sim(adaptive_config());
  const auto result = sim.run(workload, horizon, seed);
  std::cout << "\nAdaptive scheme usage: ";
  bool first = true;
  for (const auto& [scheme, count] : result.stats.aggregate.scheme_usage) {
    if (!first) std::cout << ", ";
    std::cout << scheme << " x" << count;
    first = false;
  }
  std::cout << "\n\nReadings: the adaptive manager sends real-time frames "
               "uncoded (CT 1) and bulk traffic coded (half the laser "
               "power); laser gating removes the idle burn that "
               "dominates the always-on rows at this utilisation.\n";
  return 0;
}
