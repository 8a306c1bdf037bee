// Pins the exact SpecError (field path and full message) for one
// single-fault spec per rejection rule of spec::validate / spec::lower:
// unknown names on every axis, every range check, every traffic
// kind/field rule, the hotspot bound with and without a network
// section, every network rule, time-varying environments under the
// static link evaluator, and empty / unknown objectives.  The expected
// pairs were recorded from the separate validate-then-lower
// implementation; the single checked walk must reproduce them
// byte-for-byte, from both entry points.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "photecc/spec/run.hpp"
#include "photecc/spec/spec.hpp"

namespace spec = photecc::spec;

namespace {

struct FaultCase {
  const char* name;
  void (*fault)(spec::ExperimentSpec&);
  const char* field;
  const char* what;
};

spec::TrafficEntry traffic(const char* kind, double rate,
                           std::uint64_t payload, std::size_t hotspot,
                           double fraction, const char* path) {
  return {kind, rate, payload, hotspot, fraction, path};
}

spec::EnvironmentEntry ramp() {
  spec::EnvironmentEntry entry;
  entry.kind = "ramp";
  entry.start_s = 2e-7;
  entry.end_s = 1.2e-6;
  entry.from_activity = 0.25;
  entry.to_activity = 1.0;
  return entry;
}

spec::NetworkEntry network(std::size_t tiles, std::size_t channels) {
  spec::NetworkEntry entry;
  entry.tile_count = tiles;
  entry.channel_count = channels;
  return entry;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const FaultCase kCases[] = {
    {"unknown evaluator",
     [](spec::ExperimentSpec& s) { s.evaluator = "magic"; },
     "evaluator",
     "evaluator: unknown evaluator 'magic' (known: auto, link, noc, network)"},
    {"link evaluator with traffic",
     [](spec::ExperimentSpec& s) {
       s.evaluator = "link";
       s.traffic = {spec::TrafficEntry{}};
     },
     "evaluator",
     "evaluator: evaluator 'link' cannot run a network section or the NoC "
     "axes (traffic, laser_gating, policies); use auto, noc or network"},
    {"link evaluator with laser gating",
     [](spec::ExperimentSpec& s) {
       s.evaluator = "link";
       s.laser_gating = {true};
     },
     "evaluator",
     "evaluator: evaluator 'link' cannot run a network section or the NoC "
     "axes (traffic, laser_gating, policies); use auto, noc or network"},
    {"link evaluator with policies",
     [](spec::ExperimentSpec& s) {
       s.evaluator = "link";
       s.policies = {"min-energy"};
     },
     "evaluator",
     "evaluator: evaluator 'link' cannot run a network section or the NoC "
     "axes (traffic, laser_gating, policies); use auto, noc or network"},
    {"link evaluator with network",
     [](spec::ExperimentSpec& s) {
       s.evaluator = "link";
       s.network = spec::NetworkEntry{};
     },
     "evaluator",
     "evaluator: evaluator 'link' cannot run a network section or the NoC "
     "axes (traffic, laser_gating, policies); use auto, noc or network"},
    {"unknown base link",
     [](spec::ExperimentSpec& s) { s.base_link = "warp-core"; },
     "base.link",
     "base.link: unknown link variant 'warp-core' (known: paper, paper-6cm, "
     "paper-6cm-12oni, short-2cm-4oni, 2 cm, 4 cm, 6 cm, 10 cm, 14 cm)"},
    {"negative horizon",
     [](spec::ExperimentSpec& s) { s.noc_horizon_s = -1.0; },
     "base.noc_horizon_s",
     "base.noc_horizon_s: must be a finite value > 0, got -1"},
    {"NaN horizon",
     [](spec::ExperimentSpec& s) { s.noc_horizon_s = kNaN; },
     "base.noc_horizon_s",
     "base.noc_horizon_s: must be a finite value > 0, got null"},
    {"unknown code",
     [](spec::ExperimentSpec& s) { s.codes = {"H(7,4)", "X(1,2)"}; },
     "axes.codes[1]",
     "axes.codes[1]: unknown code 'X(1,2)'"},
    {"malformed cooling code",
     [](spec::ExperimentSpec& s) { s.codes = {"COOL(H(7,4),0)"}; },
     "axes.codes[0]",
     "axes.codes[0]: unknown code 'COOL(H(7,4),0)'"},
    {"BER above 0.5",
     [](spec::ExperimentSpec& s) { s.ber_targets = {1e-9, 0.7}; },
     "axes.ber_targets[1]",
     "axes.ber_targets[1]: value 0.7 outside the BER range (0, 0.5)"},
    {"zero BER",
     [](spec::ExperimentSpec& s) { s.ber_targets = {0.0}; },
     "axes.ber_targets[0]",
     "axes.ber_targets[0]: value 0 outside the BER range (0, 0.5)"},
    {"NaN BER",
     [](spec::ExperimentSpec& s) { s.ber_targets = {kNaN}; },
     "axes.ber_targets[0]",
     "axes.ber_targets[0]: value null outside the BER range (0, 0.5)"},
    {"unknown link variant",
     [](spec::ExperimentSpec& s) { s.links = {"paper", "warp-core"}; },
     "axes.links[1]",
     "axes.links[1]: unknown link variant 'warp-core' (known: paper, "
     "paper-6cm, paper-6cm-12oni, short-2cm-4oni, 2 cm, 4 cm, 6 cm, 10 cm, "
     "14 cm)"},
    {"ONI count below 2",
     [](spec::ExperimentSpec& s) { s.oni_counts = {8, 1}; },
     "axes.oni_counts[1]",
     "axes.oni_counts[1]: an MWSR channel needs >= 2 ONIs (writers + the "
     "reader), got 1"},
    {"unknown traffic kind",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("burst", 2e8, 4096, 0, 0.5, "")};
     },
     "axes.traffic[0].kind",
     "axes.traffic[0].kind: unknown traffic kind 'burst' (known: uniform, "
     "hotspot, trace)"},
    {"trace without path",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("trace", 2e8, 4096, 0, 0.5, "")};
     },
     "axes.traffic[0].path",
     "axes.traffic[0].path: required for kind 'trace'"},
    {"trace with a rate",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("trace", 1e8, 4096, 0, 0.5, "x.trace")};
     },
     "axes.traffic[0]",
     "axes.traffic[0]: rate_msgs_per_s / payload_bits are not valid for kind "
     "'trace' (the trace file carries the schedule)"},
    {"trace with a payload",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("trace", 2e8, 64, 0, 0.5, "x.trace")};
     },
     "axes.traffic[0]",
     "axes.traffic[0]: rate_msgs_per_s / payload_bits are not valid for kind "
     "'trace' (the trace file carries the schedule)"},
    {"path on uniform",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("uniform", 2e8, 4096, 0, 0.5, "x.trace")};
     },
     "axes.traffic[0]",
     "axes.traffic[0]: path is only valid for kind 'trace', got kind "
     "'uniform'"},
    {"zero rate",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("uniform", 0.0, 4096, 0, 0.5, "")};
     },
     "axes.traffic[0].rate_msgs_per_s",
     "axes.traffic[0].rate_msgs_per_s: must be a finite value > 0, got 0"},
    {"infinite rate",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("hotspot", kInf, 4096, 0, 0.5, "")};
     },
     "axes.traffic[0].rate_msgs_per_s",
     "axes.traffic[0].rate_msgs_per_s: must be a finite value > 0, got null"},
    {"zero payload",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("uniform", 2e8, 0, 0, 0.5, "")};
     },
     "axes.traffic[0].payload_bits",
     "axes.traffic[0].payload_bits: must be > 0"},
    {"hotspot fields on uniform",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("uniform", 2e8, 4096, 3, 0.9, "")};
     },
     "axes.traffic[0]",
     "axes.traffic[0]: hotspot / hotspot_fraction are only valid for kind "
     "'hotspot', got kind 'uniform'"},
    {"hotspot fraction on trace",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("trace", 2e8, 4096, 0, 0.9, "x.trace")};
     },
     "axes.traffic[0]",
     "axes.traffic[0]: hotspot / hotspot_fraction are only valid for kind "
     "'hotspot', got kind 'trace'"},
    {"hotspot fraction above 1",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("hotspot", 1e8, 4096, 0, 1.5, "")};
     },
     "axes.traffic[0].hotspot_fraction",
     "axes.traffic[0].hotspot_fraction: value 1.5 outside [0, 1]"},
    {"hotspot beyond the base link",
     [](spec::ExperimentSpec& s) {
       s.traffic = {traffic("hotspot", 1e8, 4096, 12, 0.5, "")};
     },
     "axes.traffic[0].hotspot",
     "axes.traffic[0].hotspot: tile index 12 out of range for the smallest "
     "tile count 12 in this spec"},
    {"hotspot beyond the ONI axis",
     [](spec::ExperimentSpec& s) {
       s.oni_counts = {8, 4};
       s.traffic = {traffic("hotspot", 1e8, 4096, 4, 0.5, "")};
     },
     "axes.traffic[0].hotspot",
     "axes.traffic[0].hotspot: tile index 4 out of range for the smallest "
     "tile count 4 in this spec"},
    {"hotspot beyond the link axis",
     [](spec::ExperimentSpec& s) {
       s.links = {"paper", "short-2cm-4oni"};
       s.traffic = {traffic("hotspot", 1e8, 4096, 4, 0.5, "")};
     },
     "axes.traffic[0].hotspot",
     "axes.traffic[0].hotspot: tile index 4 out of range for the smallest "
     "tile count 4 in this spec"},
    {"hotspot beyond the network",
     [](spec::ExperimentSpec& s) {
       s.network = network(8, 2);
       s.traffic = {traffic("hotspot", 1e8, 4096, 8, 0.5, "")};
     },
     "axes.traffic[0].hotspot",
     "axes.traffic[0].hotspot: tile index 8 out of range for the smallest "
     "tile count 8 in this spec"},
    {"unknown policy",
     [](spec::ExperimentSpec& s) { s.policies = {"fastest"}; },
     "axes.policies[0]",
     "axes.policies[0]: unknown policy 'fastest' (known: min-power, "
     "min-energy, min-time)"},
    {"unknown modulation",
     [](spec::ExperimentSpec& s) { s.modulations = {"ook", "qam64"}; },
     "axes.modulations[1]",
     "axes.modulations[1]: unknown modulation 'qam64' (known: ook, pam4, "
     "pam8)"},
    {"unknown environment kind",
     [](spec::ExperimentSpec& s) {
       s.environments = {spec::EnvironmentEntry{}, {.kind = "plasma"}};
     },
     "axes.environments[1].kind",
     "axes.environments[1].kind: unknown environment kind 'plasma' (known: "
     "constant, step, ramp, phases, self-heating)"},
    {"environment activity above 1",
     [](spec::ExperimentSpec& s) { s.environments = {{.activity = 1.5}}; },
     "axes.environments[0]",
     "axes.environments[0]: EnvironmentTimeline: constant activity outside "
     "[0, 1]"},
    {"ramp ending before it starts",
     [](spec::ExperimentSpec& s) {
       auto e = ramp();
       e.end_s = 1e-7;
       s.evaluator = "noc";
       s.environments = {e};
     },
     "axes.environments[0]",
     "axes.environments[0]: EnvironmentTimeline: ramp end <= start"},
    {"empty phase schedule",
     [](spec::ExperimentSpec& s) {
       s.evaluator = "noc";
       s.environments = {{.kind = "phases"}};
     },
     "axes.environments[0]",
     "axes.environments[0]: EnvironmentTimeline: empty phase schedule"},
    {"time-varying environment under auto",
     [](spec::ExperimentSpec& s) {
       s.environments = {spec::EnvironmentEntry{}, ramp()};
     },
     "axes.environments[1].kind",
     "axes.environments[1].kind: time-varying environment 'ramp' needs the "
     "'noc' evaluator (the link evaluator solves at the t = 0 sample); use "
     "kind 'constant' or declare a NoC axis or evaluator"},
    {"time-varying environment under link",
     [](spec::ExperimentSpec& s) {
       s.evaluator = "link";
       s.environments = {ramp()};
     },
     "axes.environments[0].kind",
     "axes.environments[0].kind: time-varying environment 'ramp' needs the "
     "'noc' evaluator (the link evaluator solves at the t = 0 sample); use "
     "kind 'constant' or declare a NoC axis or evaluator"},
    {"unknown network kind",
     [](spec::ExperimentSpec& s) {
       s.network = network(16, 4);
       s.network->kind = "torus";
     },
     "network.kind",
     "network.kind: unknown network kind 'torus' (known: tiled)"},
    {"network with one tile",
     [](spec::ExperimentSpec& s) { s.network = network(1, 1); },
     "network.tile_count",
     "network.tile_count: a tiled network needs >= 2 tiles, got 1"},
    {"network without channels",
     [](spec::ExperimentSpec& s) { s.network = network(16, 0); },
     "network.channel_count",
     "network.channel_count: must be in [1, tile_count], got 0"},
    {"more channels than tiles",
     [](spec::ExperimentSpec& s) { s.network = network(4, 5); },
     "network.channel_count",
     "network.channel_count: must be in [1, tile_count], got 5"},
    {"unknown mapping",
     [](spec::ExperimentSpec& s) {
       s.network = network(16, 4);
       s.network->mapping = "diagonal";
     },
     "network.mapping",
     "network.mapping: unknown mapping 'diagonal' (known: interleaved, "
     "blocked)"},
    {"channel codes of the wrong count",
     [](spec::ExperimentSpec& s) {
       s.network = network(16, 4);
       s.network->channel_codes = {"H(7,4)"};
     },
     "network.channel_codes",
     "network.channel_codes: must name one code per channel (4), got 1"},
    {"unknown channel code",
     [](spec::ExperimentSpec& s) {
       s.network = network(16, 4);
       s.network->channel_codes = {"H(7,4)", "", "X(1,2)", ""};
     },
     "network.channel_codes[2]",
     "network.channel_codes[2]: unknown code 'X(1,2)'"},
    {"channel environments of the wrong count",
     [](spec::ExperimentSpec& s) {
       s.network = network(16, 4);
       s.network->channel_environments = {spec::EnvironmentEntry{}};
     },
     "network.channel_environments",
     "network.channel_environments: must give one timeline per channel (4), "
     "got 1"},
    {"unknown channel environment kind",
     [](spec::ExperimentSpec& s) {
       s.network = network(8, 2);
       s.network->channel_environments = {{}, {.kind = "plasma"}};
     },
     "network.channel_environments[1].kind",
     "network.channel_environments[1].kind: unknown environment kind "
     "'plasma' (known: constant, step, ramp, phases, self-heating)"},
    {"channel environment out of range",
     [](spec::ExperimentSpec& s) {
       s.network = network(8, 2);
       s.network->channel_environments = {ramp(), {.activity = -0.1}};
     },
     "network.channel_environments[1]",
     "network.channel_environments[1]: EnvironmentTimeline: constant "
     "activity outside [0, 1]"},
    {"empty objective",
     [](spec::ExperimentSpec& s) { s.objectives = {{"ct", true}, {"", true}}; },
     "objectives[1].metric",
     "objectives[1].metric: must not be empty"},
    {"unknown link objective",
     [](spec::ExperimentSpec& s) { s.objectives = {{"mean_latency_s", true}}; },
     "objectives[0].metric",
     "objectives[0].metric: unknown metric 'mean_latency_s' for this spec's "
     "evaluator (known: ct, p_channel_w, p_laser_w, p_mr_w, p_enc_dec_w, "
     "energy_per_bit_j, code_rate, op_laser_w, snr, p_interconnect_w, "
     "total_loss_db)"},
    {"unknown simulator objective",
     [](spec::ExperimentSpec& s) {
       s.evaluator = "noc";
       s.objectives = {{"ct", true}};
     },
     "objectives[0].metric",
     "objectives[0].metric: unknown metric 'ct' for this spec's evaluator "
     "(known: delivered, dropped, deadline_misses, mean_latency_s, "
     "p95_latency_s, max_latency_s, total_energy_j, laser_energy_j, "
     "idle_laser_energy_j, energy_per_bit_j, busy_time_s)"},
    {"unknown network objective",
     [](spec::ExperimentSpec& s) {
       s.network = network(8, 2);
       s.objectives = {{"ch2_delivered", true}};
     },
     "objectives[0].metric",
     "objectives[0].metric: unknown metric 'ch2_delivered' for this spec's "
     "evaluator (known: delivered, dropped, deadline_misses, mean_latency_s, "
     "p95_latency_s, max_latency_s, total_energy_j, laser_energy_j, "
     "idle_laser_energy_j, energy_per_bit_j, busy_time_s, ch0_delivered, "
     "ch0_dropped, ch0_dropped_thermal, ch0_mean_latency_s, "
     "ch0_p95_latency_s, ch0_total_energy_j, ch0_energy_per_bit_j, "
     "ch0_recalibrations, ch1_delivered, ch1_dropped, ch1_dropped_thermal, "
     "ch1_mean_latency_s, ch1_p95_latency_s, ch1_total_energy_j, "
     "ch1_energy_per_bit_j, ch1_recalibrations)"},
};

/// (field, what) of the SpecError `check` throws, or a marker pair.
template <typename Check>
std::pair<std::string, std::string> error_of(Check&& check) {
  try {
    check();
  } catch (const spec::SpecError& e) {
    return {e.field(), e.what()};
  } catch (const std::exception& e) {
    return {"(other exception)", e.what()};
  }
  return {"(no error)", ""};
}

}  // namespace

TEST(SpecErrorPin, ValidateThrowsTheRecordedError) {
  for (const FaultCase& c : kCases) {
    spec::ExperimentSpec experiment;
    c.fault(experiment);
    const auto [field, what] =
        error_of([&] { spec::validate(experiment); });
    EXPECT_EQ(field, c.field) << c.name;
    EXPECT_EQ(what, c.what) << c.name;
  }
}

TEST(SpecErrorPin, LowerThrowsTheRecordedError) {
  for (const FaultCase& c : kCases) {
    spec::ExperimentSpec experiment;
    c.fault(experiment);
    const auto [field, what] =
        error_of([&] { (void)spec::lower(experiment); });
    EXPECT_EQ(field, c.field) << c.name;
    EXPECT_EQ(what, c.what) << c.name;
  }
}

TEST(SpecErrorPin, EveryCaseIsASingleFaultOfAValidSpec) {
  // The default spec the faults are applied to is itself valid, so each
  // recorded error belongs to the one field the case changes.
  EXPECT_NO_THROW(spec::validate(spec::ExperimentSpec{}));
  EXPECT_GE(std::size(kCases), 35u);
}
