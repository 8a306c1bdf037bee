// Command-line driver of the photecc experiment stack — a thin shim
// over photecc::spec: every mode and flag is parsed *into* an
// ExperimentSpec, which is then validated, optionally printed
// (--dump-spec) and executed by spec::run on the explore engine.  The
// same experiment can therefore be launched from C++ (an ExperimentSpec
// aggregate), a JSON document (--config) or these flags, interchangeably.
//
//   explore_cli --fig6b            reproduce the paper's Fig. 6b sweep
//   explore_cli --noc              multi-axis NoC sweep (traffic x load x
//                                  gating x policy x ONI count)
//   explore_cli --config FILE     run an ExperimentSpec JSON document
//   explore_cli --preset NAME     run a registered spec preset (fig6b,
//                                  noc, modulation, modulation-smoke)
//   explore_cli --smoke            fast end-to-end self-check (CI): runs a
//                                  small grid sequentially and in parallel
//                                  and verifies byte-identical exports;
//                                  with --config, checks that config's grid
//   explore_cli --bench            sequential-vs-parallel wall time on a
//                                  600-cell grid, JSON to stdout
//   explore_cli --serve            sweep-service loop on stdin/stdout:
//                                  NDJSON ExperimentSpec requests in,
//                                  streamed result records out (see
//                                  photecc::serve; serve_cli is the
//                                  full-featured frontend)
//   explore_cli --list-presets     registered preset names
//   explore_cli --list-link-variants  registered link variants
//   explore_cli --list-evaluators  registered cell evaluators
//   explore_cli --list-traffic     registered traffic kinds
//   explore_cli --list-environments  registered environment kinds
//
// Common flags: --threads N (0 = hardware), --csv FILE, --json FILE,
// --modulation LIST (comma-separated signaling formats, e.g.
// "ook,pam4"; adds a modulation axis to the grid), --dump-spec (print
// the effective spec as canonical JSON and exit).
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "photecc/core/report.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/math/json.hpp"
#include "photecc/math/parallel.hpp"
#include "photecc/math/table.hpp"
#include "photecc/math/units.hpp"
#include "photecc/serve/service.hpp"
#include "photecc/spec/cli.hpp"
#include "photecc/spec/registries.hpp"
#include "photecc/spec/run.hpp"

namespace {

using namespace photecc;

struct Options {
  std::string mode;           ///< --fig6b / --noc / --smoke / --bench
  std::string config_path;    ///< --config FILE
  std::string preset;         ///< --preset NAME
  bool dump_spec = false;
  std::optional<std::size_t> threads;
  std::string csv_path;
  std::string json_path;
  /// Modulation axis names; empty = no axis (OOK-only, the pre-PAM
  /// grids, byte-identical to historical outputs).
  std::vector<std::string> modulations;
};

int usage(std::ostream& os, int code) {
  os << "usage: explore_cli --fig6b | --noc | --smoke | --bench | --serve\n"
        "                   | --config FILE [--smoke]\n"
        "                   | --preset NAME [--smoke]\n"
        "                   | --list-presets | --list-link-variants\n"
        "                   | --list-evaluators | --list-traffic\n"
        "                   | --list-environments\n"
        "                   [--threads N] [--csv FILE] [--json FILE]\n"
        "                   [--modulation ook,pam4,pam8] [--dump-spec]\n";
  return code;
}

/// The --list-* subcommands: print one registry's contents and exit.
int run_list(const std::string& flag) {
  if (flag == "--list-presets")
    std::cout << spec::render_name_list("presets",
                                        spec::preset_registry().names());
  else if (flag == "--list-link-variants")
    std::cout << spec::render_name_list("link variants",
                                        spec::link_registry().names());
  else if (flag == "--list-traffic")
    std::cout << spec::render_name_list("traffic kinds",
                                        spec::traffic_registry().names());
  else if (flag == "--list-environments")
    std::cout << spec::render_name_list("environment kinds",
                                        spec::environment_registry().names());
  else
    std::cout << spec::render_name_list("evaluators",
                                        spec::evaluator_registry().names());
  return 0;
}

/// The --bench grid: full code family x 6 BER targets x 5 waveguide
/// lengths (>= 500 cells).
spec::ExperimentSpec bench_spec() {
  std::vector<std::string> code_names;
  for (const auto& code : ecc::all_known_codes())
    code_names.push_back(code->name());
  return {.name = "bench-multiaxis",
          .codes = std::move(code_names),
          .ber_targets = {1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11},
          .links = {"2 cm", "4 cm", "6 cm", "10 cm", "14 cm"}};
}

/// The effective spec of a single-grid mode: preset / config document /
/// bench grid, with the flag overrides applied.  Validated here unless
/// it is a config document (spec::from_json has validated it) that no
/// override changed, so an invalid spec or override fails before
/// --dump-spec prints.
spec::ExperimentSpec effective_spec(const Options& options) {
  spec::ExperimentSpec spec;
  bool validated = false;
  if (!options.config_path.empty()) {
    std::ifstream is(options.config_path);
    if (!is)
      throw spec::SpecError("--config",
                            "cannot open '" + options.config_path + "'");
    std::ostringstream text;
    text << is.rdbuf();
    spec = spec::from_json(text.str());
    validated = true;
  } else if (!options.preset.empty()) {
    spec = spec::preset_registry().make(options.preset, "--preset");
  } else if (options.mode == "--fig6b") {
    spec = spec::preset_registry().make("fig6b", "--fig6b");
  } else if (options.mode == "--noc") {
    spec = spec::preset_registry().make("noc", "--noc");
  } else {  // --bench
    spec = bench_spec();
  }
  if (options.threads && spec.threads != *options.threads) {
    spec.threads = *options.threads;
    validated = false;
  }
  if (!options.modulations.empty() &&
      spec.modulations != options.modulations) {
    spec.modulations = options.modulations;
    validated = false;
  }
  if (!validated) spec::validate(spec);
  return spec;
}

void export_result(const explore::ExperimentResult& result,
                   const Options& options) {
  if (!options.csv_path.empty()) {
    std::ofstream os(options.csv_path);
    result.write_csv(os);
    std::cout << "wrote " << options.csv_path << "\n";
  }
  if (!options.json_path.empty()) {
    std::ofstream os(options.json_path);
    result.write_json(os);
    std::cout << "wrote " << options.json_path << "\n";
  }
}

// --- --fig6b -----------------------------------------------------------

int run_fig6b(const spec::ExperimentSpec& experiment,
              const Options& options) {
  const auto result = spec::run(experiment);

  std::cout << "=== Fig. 6b on the explore engine (" << result.cells.size()
            << " cells, " << result.threads_used << " threads, "
            << math::format_fixed(result.wall_time_s * 1e3, 1) << " ms) ===\n\n";
  core::print_table(std::cout,
                    "(CT, Pchannel) points; '*' = on the Pareto front:",
                    core::pareto_table(result.cells.to_tradeoff_sweep()));

  const auto objectives = spec::lower_objectives(experiment);
  std::cout << "Per-BER Pareto fronts:\n";
  for (const double ber : experiment.ber_targets) {
    spec::ExperimentSpec one_ber = experiment;
    one_ber.ber_targets = {ber};
    const auto slice = spec::run(one_ber);
    const auto front = slice.pareto_front(objectives);
    std::cout << "  BER " << math::format_sci(ber, 0) << ": ";
    for (std::size_t i = 0; i < front.size(); ++i) {
      if (i) std::cout << " -> ";
      // Tags non-OOK formats ("H(7,4) @pam4") so mixed-modulation
      // fronts stay unambiguous; plain scheme names for OOK.
      std::cout << core::scheme_display_name(slice.cells.scheme(front[i]));
    }
    std::cout << "\n";
  }
  export_result(result, options);
  return 0;
}

// --- --noc -------------------------------------------------------------

int run_noc(const spec::ExperimentSpec& experiment, const Options& options) {
  const auto result = spec::run(experiment);

  std::cout << "=== Multi-axis NoC sweep (" << result.cells.size()
            << " cells, " << result.threads_used << " threads, "
            << math::format_fixed(result.wall_time_s * 1e3, 1)
            << " ms) ===\n\n";
  // The modulation column appears only when the spec declares the
  // axis; without it the historical column set (and output) stays
  // unchanged.
  const bool with_modulation = !experiment.modulations.empty();
  std::vector<std::string> headers{"oni", "traffic", "gating", "policy"};
  if (with_modulation) headers.push_back("modulation");
  for (const char* metric_header :
       {"delivered", "mean lat [ns]", "E/bit [pJ]", "idle laser [nJ]"})
    headers.push_back(metric_header);
  math::TextTable table(headers);
  const explore::ResultTable& cells = result.cells;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto label = [&](const std::string& axis) {
      return cells.label(i, axis).value_or("-");
    };
    std::vector<std::string> row{
        label("oni_count"),
        label("traffic"),
        label("laser_gating"),
        label("policy"),
    };
    if (with_modulation) row.push_back(label("modulation"));
    row.push_back(math::format_fixed(*cells.metric(i, "delivered"), 0));
    row.push_back(
        math::format_fixed(*cells.metric(i, "mean_latency_s") * 1e9, 1));
    row.push_back(math::format_fixed(
        math::as_pico(*cells.metric(i, "energy_per_bit_j")), 2));
    row.push_back(math::format_fixed(
        *cells.metric(i, "idle_laser_energy_j") * 1e9, 2));
    table.add_row(row);
  }
  table.render(std::cout);

  const auto front = result.pareto_front(spec::lower_objectives(experiment));
  std::cout << "\nPareto front in (mean latency, energy/bit): "
            << front.size() << " of " << result.cells.size()
            << " cells.\n";
  export_result(result, options);
  return 0;
}

// --- --config (generic spec-driven run) --------------------------------

int run_config(const spec::ExperimentSpec& experiment,
               const Options& options) {
  const auto result = spec::run(experiment);
  std::cout << "=== "
            << (experiment.name.empty() ? std::string("experiment")
                                        : experiment.name)
            << " (" << result.cells.size() << " cells, "
            << result.threads_used << " threads, "
            << math::format_fixed(result.wall_time_s * 1e3, 1)
            << " ms) ===\n";
  std::size_t feasible = 0;
  for (std::size_t i = 0; i < result.cells.size(); ++i)
    feasible += result.cells.feasible(i);
  std::cout << "feasible: " << feasible << " of " << result.cells.size()
            << "\n";
  if (!experiment.objectives.empty()) {
    const auto front =
        result.pareto_front(spec::lower_objectives(experiment));
    std::cout << "Pareto front (";
    for (std::size_t i = 0; i < experiment.objectives.size(); ++i) {
      if (i) std::cout << ", ";
      std::cout << (experiment.objectives[i].minimize ? "min " : "max ")
                << experiment.objectives[i].metric;
    }
    std::cout << "): " << front.size() << " cells\n";
    const explore::ResultTable& cells = result.cells;
    for (const std::size_t i : front) {
      std::cout << "  #" << i;
      for (std::size_t a = 0; a < cells.schema().axes.size(); ++a)
        std::cout << " " << cells.schema().axes[a].name << "="
                  << cells.label(i, a);
      for (const auto& objective : experiment.objectives)
        std::cout << " " << objective.metric << "="
                  << math::json::number(
                         cells.metric(i, objective.metric).value_or(0.0));
      std::cout << "\n";
    }
  }
  export_result(result, options);
  return 0;
}

/// 1-vs-N byte-identity self-check of one spec (the --config --smoke
/// path ctest runs on examples/specs/*.json).
int run_config_smoke(const spec::ExperimentSpec& experiment) {
  spec::ExperimentSpec sequential_spec = experiment;
  sequential_spec.threads = 1;
  spec::ExperimentSpec parallel_spec = experiment;
  if (parallel_spec.threads <= 1) parallel_spec.threads = 4;
  const auto sequential = spec::run(sequential_spec);
  const auto parallel = spec::run(parallel_spec);
  if (sequential.csv() != parallel.csv() ||
      sequential.json() != parallel.json()) {
    std::cerr << "smoke FAILED: sequential and parallel exports differ\n";
    return 1;
  }
  std::cout << "smoke OK: " << sequential.cells.size()
            << "-cell spec grid byte-identical at 1 vs "
            << parallel_spec.threads << " threads\n";
  return 0;
}

// --- --smoke -----------------------------------------------------------

int run_smoke(const Options& options) {
  // Link grid: every evaluator metric exercised, sequential vs parallel.
  const spec::ExperimentSpec link_spec{
      .codes = explore::paper_scheme_names(), .ber_targets = {1e-8, 1e-10}};
  // NoC grid: seeded simulation, gating on/off.
  const spec::ExperimentSpec noc_spec{.noc_horizon_s = 5e-7,
                                      .traffic = {{.rate_msgs_per_s = 2e8}},
                                      .laser_gating = {true, false}};
  // Modulation grid: the OOK-vs-PAM4 sweep of the multilevel layer.
  const spec::ExperimentSpec modulation_spec{
      .codes = explore::paper_scheme_names(),
      .ber_targets = {1e-8, 1e-10},
      .modulations = {"ook", "pam4"}};

  const std::size_t parallel_threads =
      options.threads.value_or(0) ? *options.threads : 4;
  explore::ExperimentResult link_result;
  for (const auto* experiment : {&link_spec, &noc_spec, &modulation_spec}) {
    spec::ExperimentSpec sequential_spec = *experiment;
    sequential_spec.threads = 1;
    spec::ExperimentSpec parallel_spec = *experiment;
    parallel_spec.threads = parallel_threads;
    auto a = spec::run(sequential_spec);
    const auto b = spec::run(parallel_spec);
    if (a.csv() != b.csv() || a.json() != b.json()) {
      std::cerr << "smoke FAILED: sequential and parallel exports differ\n";
      return 1;
    }
    if (experiment == &link_spec) link_result = std::move(a);
  }
  const auto front = link_result.pareto_front(explore::fig6b_objectives());
  if (front.empty()) {
    std::cerr << "smoke FAILED: empty Fig. 6b Pareto front\n";
    return 1;
  }
  std::cout << "smoke OK: " << spec::lower(link_spec).size()
            << "-cell link grid, " << spec::lower(noc_spec).size()
            << "-cell NoC grid and " << spec::lower(modulation_spec).size()
            << "-cell modulation grid byte-identical at 1 vs "
            << parallel_threads << " threads; front size " << front.size()
            << "\n";
  export_result(link_result, options);
  return 0;
}

// --- --bench -----------------------------------------------------------

int run_bench(const spec::ExperimentSpec& experiment,
              const Options& options) {
  spec::ExperimentSpec sequential_spec = experiment;
  sequential_spec.threads = 1;
  spec::ExperimentSpec parallel_spec = experiment;
  if (parallel_spec.threads == 0)
    parallel_spec.threads = math::default_thread_count();

  const auto sequential = spec::run(sequential_spec);
  const auto parallel = spec::run(parallel_spec);
  const bool identical = sequential.csv() == parallel.csv() &&
                         sequential.json() == parallel.json();
  const double speedup = parallel.wall_time_s > 0.0
                             ? sequential.wall_time_s / parallel.wall_time_s
                             : 0.0;

  std::cout << "{\n"
            << "  \"benchmark\": \"explore_fig6b_multiaxis_sweep\",\n"
            << "  \"cells\": " << sequential.cells.size() << ",\n"
            << "  \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ",\n"
            << "  \"sequential_s\": " << sequential.wall_time_s << ",\n"
            << "  \"parallel_threads\": " << parallel_spec.threads << ",\n"
            << "  \"parallel_s\": " << parallel.wall_time_s << ",\n"
            << "  \"speedup\": " << speedup << ",\n"
            << "  \"identical_output\": " << (identical ? "true" : "false");
  // Lowered-plan observability counters (set whenever the sweep took
  // the plan hot path): root solves vs warm reuses, solver iterations,
  // lower/execute split and per-cell throughput.
  if (sequential.stats)
    std::cout << ",\n  \"sequential_plan\": " << sequential.stats->json();
  if (parallel.stats)
    std::cout << ",\n  \"parallel_plan\": " << parallel.stats->json();
  std::cout << "\n}\n";
  export_result(parallel, options);
  return identical ? 0 : 1;
}

int dispatch(const Options& options) {
  if (!options.config_path.empty() || !options.preset.empty()) {
    const spec::ExperimentSpec experiment = effective_spec(options);
    if (options.dump_spec) {
      std::cout << experiment.to_json();
      return 0;
    }
    if (options.mode == "--smoke") return run_config_smoke(experiment);
    return run_config(experiment, options);
  }
  if (options.mode == "--smoke") return run_smoke(options);
  if (options.mode == "--serve") {
    // The daemon mode: specs arrive as requests, not flags, so the
    // only flag honoured is the thread override (operational — it can
    // never change a sweep response's bytes).
    serve::Service service({.threads = options.threads.value_or(0)});
    service.run(std::cin, std::cout);
    return 0;
  }
  if (options.mode.empty()) return usage(std::cerr, 2);

  const spec::ExperimentSpec experiment = effective_spec(options);
  if (options.dump_spec) {
    std::cout << experiment.to_json();
    return 0;
  }
  if (options.mode == "--fig6b") return run_fig6b(experiment, options);
  if (options.mode == "--noc") return run_noc(experiment, options);
  return run_bench(experiment, options);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--fig6b" || arg == "--noc" || arg == "--smoke" ||
          arg == "--bench" || arg == "--serve") {
        options.mode = arg;
      } else if (arg == "--list-presets" || arg == "--list-link-variants" ||
                 arg == "--list-evaluators" || arg == "--list-traffic" ||
                 arg == "--list-environments") {
        return run_list(arg);
      } else if (arg == "--config" && i + 1 < argc) {
        options.config_path = argv[++i];
      } else if (arg == "--preset" && i + 1 < argc) {
        options.preset = argv[++i];
      } else if (arg == "--dump-spec") {
        options.dump_spec = true;
      } else if (arg == "--threads" && i + 1 < argc) {
        options.threads = spec::parse_size("--threads", argv[++i]);
      } else if (arg == "--csv" && i + 1 < argc) {
        options.csv_path = argv[++i];
      } else if (arg == "--json" && i + 1 < argc) {
        options.json_path = argv[++i];
      } else if (arg == "--modulation" && i + 1 < argc) {
        options.modulations =
            spec::parse_modulation_names("--modulation", argv[++i]);
      } else if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return usage(std::cerr, 2);
      }
    }
    if (!options.config_path.empty() && !options.preset.empty()) {
      std::cerr << "--config cannot be combined with --preset\n";
      return usage(std::cerr, 2);
    }
    if ((!options.config_path.empty() || !options.preset.empty()) &&
        !options.mode.empty() && options.mode != "--smoke") {
      std::cerr << "--config/--preset cannot be combined with "
                << options.mode << "\n";
      return usage(std::cerr, 2);
    }
    if (options.dump_spec && options.config_path.empty() &&
        options.preset.empty() &&
        (options.mode.empty() || options.mode == "--smoke" ||
         options.mode == "--serve")) {
      std::cerr << "--dump-spec needs a single-grid mode (--fig6b, --noc, "
                   "--bench or --config)\n";
      return usage(std::cerr, 2);
    }
    return dispatch(options);
  } catch (const spec::SpecError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const math::json::ParseError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    // Backstop for anything validation did not anticipate: still a
    // diagnostic and a clean exit, never std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
