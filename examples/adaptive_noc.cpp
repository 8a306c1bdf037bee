// Adaptive ONoC demo: runs a mixed real-time / multimedia / best-effort
// workload through the paper's MWSR NoC (one reader channel per ONI, on
// noc::NetworkSimulator) twice — once with the
// energy/performance manager choosing the scheme per message, once
// pinned to uncoded — and reports what adaptivity bought.
//
//   $ ./adaptive_noc [--horizon-us T] [--seed S] [--no-gating]
#include <cstring>
#include <iostream>

#include "photecc/ecc/registry.hpp"
#include "photecc/math/table.hpp"
#include "photecc/math/units.hpp"
#include "photecc/noc/network.hpp"

int main(int argc, char** argv) {
  using namespace photecc;

  double horizon = 100e-6;
  std::uint64_t seed = 7;
  bool gating = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--horizon-us" && i + 1 < argc) {
      horizon = std::strtod(argv[++i], nullptr) * 1e-6;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--no-gating") {
      gating = false;
    } else {
      std::cerr << "usage: adaptive_noc [--horizon-us T] [--seed S] "
                   "[--no-gating]\n";
      return 1;
    }
  }

  // Workload: four real-time streams with tight deadlines, plus bulk
  // multimedia frames and light best-effort noise.
  std::vector<noc::StreamingTraffic::Stream> streams;
  for (std::size_t s = 0; s < 4; ++s) {
    noc::StreamingTraffic::Stream stream;
    stream.source = s;
    stream.destination = 11 - s;
    stream.period_s = 2e-6;
    stream.frame_bits = 8192;
    stream.deadline_fraction = 0.3;
    stream.cls = noc::TrafficClass::kRealTime;
    streams.push_back(stream);
  }
  const noc::MixedTraffic workload(
      {std::make_shared<noc::StreamingTraffic>(streams),
       std::make_shared<noc::UniformRandomTraffic>(
           12, 5e6, 65536, noc::TrafficClass::kMultimedia),
       std::make_shared<noc::UniformRandomTraffic>(
           12, 2e6, 4096, noc::TrafficClass::kBestEffort)});

  noc::NetworkConfig adaptive;
  adaptive.topology.tile_count = 12;
  adaptive.topology.channel_count = 12;
  adaptive.laser_gating = gating;
  adaptive.scheme_menu = ecc::paper_schemes();
  adaptive.class_requirements[noc::TrafficClass::kRealTime] =
      noc::ClassRequirements{1e-9, core::Policy::kMinTime, 1.0,
                             std::nullopt};
  adaptive.class_requirements[noc::TrafficClass::kMultimedia] =
      noc::ClassRequirements{1e-9, core::Policy::kMinPower, std::nullopt,
                             std::nullopt};
  adaptive.class_requirements[noc::TrafficClass::kBestEffort] =
      noc::ClassRequirements{1e-9, core::Policy::kMinEnergy, std::nullopt,
                             std::nullopt};

  noc::NetworkConfig pinned = adaptive;
  pinned.scheme_menu = {ecc::make_code("w/o ECC")};
  pinned.class_requirements.clear();
  pinned.default_requirements.target_ber = 1e-9;

  const auto run_adaptive =
      noc::NetworkSimulator(adaptive).run(workload, horizon, seed);
  const auto run_pinned =
      noc::NetworkSimulator(pinned).run(workload, horizon, seed);

  math::TextTable table({"metric", "adaptive manager", "pinned w/o ECC"});
  const auto& a = run_adaptive.stats.aggregate;
  const auto& p = run_pinned.stats.aggregate;
  table.add_row({"messages delivered", std::to_string(a.delivered),
                 std::to_string(p.delivered)});
  table.add_row({"deadline misses", std::to_string(a.deadline_misses),
                 std::to_string(p.deadline_misses)});
  table.add_row({"mean latency [ns]",
                 math::format_fixed(a.mean_latency_s * 1e9, 1),
                 math::format_fixed(p.mean_latency_s * 1e9, 1)});
  table.add_row({"real-time mean latency [ns]",
                 math::format_fixed(
                     a.class_mean_latency_s.count(
                         noc::TrafficClass::kRealTime)
                         ? a.class_mean_latency_s.at(
                               noc::TrafficClass::kRealTime) * 1e9
                         : 0.0,
                     1),
                 math::format_fixed(
                     p.class_mean_latency_s.count(
                         noc::TrafficClass::kRealTime)
                         ? p.class_mean_latency_s.at(
                               noc::TrafficClass::kRealTime) * 1e9
                         : 0.0,
                     1)});
  table.add_row(
      {"energy / payload bit [pJ]",
       math::format_fixed(
           math::as_pico(
               a.energy_per_bit_j(run_adaptive.total_payload_bits)),
           2),
       math::format_fixed(
           math::as_pico(
               p.energy_per_bit_j(run_pinned.total_payload_bits)),
           2)});
  table.add_row({"laser energy [uJ]",
                 math::format_fixed(a.laser_energy_j * 1e6, 2),
                 math::format_fixed(p.laser_energy_j * 1e6, 2)});

  std::cout << "Adaptive MWSR ONoC, " << math::format_fixed(horizon * 1e6, 0)
            << " us horizon, laser gating "
            << (gating ? "on" : "off") << ":\n\n";
  table.render(std::cout);

  std::cout << "\nAdaptive scheme usage:";
  for (const auto& [scheme, count] : a.scheme_usage)
    std::cout << "  " << scheme << " x" << count;
  std::cout << "\n";
  return 0;
}
