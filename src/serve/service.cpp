#include "photecc/serve/service.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/plan.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/spec/error.hpp"
#include "photecc/spec/run.hpp"

namespace photecc::serve {

namespace json = math::json;

namespace {

/// Names of the declared axes in canonical grid order — the label keys
/// the cells of this sweep will carry.
std::vector<std::string> axis_names(const spec::ExperimentSpec& experiment) {
  std::vector<std::string> axes;
  if (!experiment.codes.empty()) axes.emplace_back("code");
  if (!experiment.ber_targets.empty()) axes.emplace_back("target_ber");
  if (!experiment.links.empty()) axes.emplace_back("link");
  if (!experiment.oni_counts.empty()) axes.emplace_back("oni_count");
  if (!experiment.traffic.empty()) axes.emplace_back("traffic");
  if (!experiment.laser_gating.empty()) axes.emplace_back("laser_gating");
  if (!experiment.policies.empty()) axes.emplace_back("policy");
  if (!experiment.modulations.empty()) axes.emplace_back("modulation");
  if (!experiment.environments.empty()) axes.emplace_back("environment");
  return axes;
}

std::string string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json::escape(values[i]);
  }
  out += ']';
  return out;
}

/// Metric names in export column order: the first-seen-order union over
/// all cells (the same order ExperimentResult::write_csv derives).
std::vector<std::string> metric_union(
    const std::vector<explore::CellResult>& cells) {
  std::vector<std::string> names;
  for (const explore::CellResult& cell : cells)
    for (const auto& [name, value] : cell.metrics) {
      (void)value;
      if (std::find(names.begin(), names.end(), name) == names.end())
        names.push_back(name);
    }
  return names;
}

std::string header_body(const spec::ExperimentSpec& experiment,
                        std::uint64_t hash, std::size_t cells,
                        std::size_t block_size,
                        const std::vector<std::string>& metrics) {
  std::string body = ",\"spec_hash\":\"" + math::hex64(hash) + '"';
  if (!experiment.name.empty())
    body += ",\"name\":" + json::escape(experiment.name);
  body += ",\"cells\":" + std::to_string(cells);
  body += ",\"block_size\":" + std::to_string(block_size);
  body += ",\"axes\":" + string_array(axis_names(experiment));
  body += ",\"metrics\":" + string_array(metrics);
  return body;
}

std::string cells_body(std::size_t begin, std::size_t end,
                       const std::vector<explore::CellResult>& cells) {
  std::ostringstream os;
  os << ",\"begin\":" << begin << ",\"end\":" << end << ",\"cells\":[";
  for (std::size_t i = begin; i < end; ++i) {
    if (i != begin) os << ',';
    explore::write_cell_json(os, cells[i]);
  }
  os << ']';
  return os.str();
}

/// The done record carries only the DETERMINISTIC slice of the run's
/// SweepStats (lowering and solver counts are functions of the grid;
/// times and thread counts are not and stay off the wire).
std::string done_body(const std::vector<explore::CellResult>& cells,
                      const explore::SweepStats& stats) {
  std::size_t feasible = 0;
  for (const explore::CellResult& cell : cells) feasible += cell.feasible;
  std::string body = ",\"cells\":" + std::to_string(cells.size());
  body += ",\"feasible\":" + std::to_string(feasible);
  body += ",\"lowered\":{\"channels_lowered\":" +
          std::to_string(stats.channels_lowered);
  body += ",\"root_solves\":" + std::to_string(stats.root_solves);
  body += ",\"solver_iterations\":" + std::to_string(stats.solver_iterations);
  body += ",\"warm_reuses\":" + std::to_string(stats.warm_reuses);
  body += '}';
  return body;
}

void emit(std::ostream& out, const std::string& line) {
  out << line << '\n';
  out.flush();
}

}  // namespace

std::string ServeStats::json(const PlanCache& cache) const {
  std::string out = "{\"requests\":" + std::to_string(requests);
  out += ",\"sweeps\":" + std::to_string(sweeps);
  out += ",\"errors\":" + std::to_string(errors);
  out += ",\"cache_hits\":" + std::to_string(cache_hits);
  out += ",\"cache_misses\":" + std::to_string(cache_misses);
  out += ",\"plans_lowered\":" + std::to_string(plans_lowered);
  out += ",\"cells_streamed\":" + std::to_string(cells_streamed);
  out += ",\"cache\":{\"entries\":" + std::to_string(cache.entries());
  out += ",\"bytes\":" + std::to_string(cache.size_bytes());
  out += ",\"budget_bytes\":" + std::to_string(cache.budget_bytes());
  out += ",\"evictions\":" + std::to_string(cache.evictions());
  out += "},\"sweep\":" + sweep.json();
  out += '}';
  return out;
}

Service::Service(ServiceOptions options)
    : options_(options), cache_(options.cache_budget_bytes) {}

std::size_t Service::exec_threads(
    const spec::ExperimentSpec& experiment) const {
  return options_.threads ? options_.threads : experiment.threads;
}

bool Service::handle_line(const std::string& line, std::ostream& out) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return true;
  ++stats_.requests;

  if (line.size() > options_.max_request_bytes) {
    emit_error(out, "", "limit",
               "", "request line of " + std::to_string(line.size()) +
                       " bytes exceeds max_request_bytes (" +
                       std::to_string(options_.max_request_bytes) + ")");
    return true;
  }

  Request request;
  try {
    request = parse_request(line);
  } catch (const json::ParseError& e) {
    emit_error(out, "", "parse", "", e.what());
    return true;
  } catch (const spec::SpecError& e) {
    emit_error(out, "", "request", e.field(), e.what());
    return true;
  }

  switch (request.kind) {
    case Request::Kind::kSweep:
      try {
        handle_sweep(request, out);
      } catch (const spec::SpecError& e) {
        emit_error(out, request.id, "spec", e.field(), e.what());
      } catch (const std::exception& e) {
        emit_error(out, request.id, "internal", "", e.what());
      }
      return true;
    case Request::Kind::kStats:
      emit(out, record("stats", request.id,
                       ",\"serve\":" + stats_.json(cache_)));
      return true;
    case Request::Kind::kShutdown:
      emit(out, record("bye", request.id, ""));
      return false;
  }
  return true;  // unreachable
}

bool Service::run(std::istream& in, std::ostream& out) {
  // The size limit is enforced while reading, so a client that never
  // sends a newline cannot grow the buffer past max_request_bytes: an
  // over-long line gets one "limit" error as soon as it crosses the
  // limit, and the rest of it, up to the next newline, is discarded.
  using traits = std::char_traits<char>;
  std::streambuf& source = *in.rdbuf();
  std::string line;
  for (;;) {
    line.clear();
    bool over_limit = false;
    traits::int_type c;
    while (!traits::eq_int_type(c = source.sbumpc(), traits::eof()) &&
           c != '\n') {
      if (line.size() < options_.max_request_bytes) {
        line.push_back(traits::to_char_type(c));
      } else if (!over_limit) {
        over_limit = true;
        ++stats_.requests;
        emit_error(out, "", "limit", "",
                   "request line exceeds max_request_bytes (" +
                       std::to_string(options_.max_request_bytes) + ")");
      }
    }
    if (!over_limit && !handle_line(line, out)) return true;
    if (traits::eq_int_type(c, traits::eof())) return false;
  }
}

void Service::handle_sweep(const Request& request, std::ostream& out) {
  const spec::ExperimentSpec experiment =
      spec::from_json_value(*request.spec_document);
  const std::string canonical = experiment.to_json();
  const std::uint64_t hash = math::fnv1a64(canonical);

  if (const CachedSweep* cached = cache_.find(hash, canonical)) {
    ++stats_.sweeps;
    ++stats_.cache_hits;
    stats_.cells_streamed += cached->cells;
    stats_.sweep.merge(cached->stats.as_replay());
    for (const auto& [kind, body] : cached->records)
      emit(out, record(kind, request.id, body));
    return;
  }
  ++stats_.cache_misses;

  CachedSweep entry;
  const auto deliver = [&](const std::string& kind, std::string body) {
    emit(out, record(kind, request.id, body));
    entry.records.emplace_back(kind, std::move(body));
  };

  const explore::ScenarioGrid grid = spec::lower(experiment);
  const auto evaluator = spec::cell_evaluator(experiment, grid);
  explore::ExperimentResult result;
  if (!evaluator) {
    // Link hot path: lower once, stream blocks as they complete.  The
    // header can go out before any cell computes because the link
    // evaluator's metric columns are statically known.
    const explore::LoweredPlan plan(grid, {options_.block_size});
    ++stats_.plans_lowered;
    deliver("header",
            header_body(experiment, hash, plan.size(), options_.block_size,
                        explore::link_cell_metric_names()));
    result = plan.execute(
        exec_threads(experiment),
        [&](std::size_t begin, std::size_t end,
            const std::vector<explore::CellResult>& cells) {
          deliver("cells", cells_body(begin, end, cells));
        });
  } else {
    // Per-cell evaluators have no streaming execute (and their metric
    // columns are only known from the cells), so the sweep runs to
    // completion first and the records are framed afterwards — same
    // record shapes, just not incremental.
    result = explore::SweepRunner{{exec_threads(experiment)}}.run(
        grid, *evaluator);
    deliver("header",
            header_body(experiment, hash, result.cells.size(),
                        options_.block_size, metric_union(result.cells)));
    const std::size_t block = std::max<std::size_t>(1, options_.block_size);
    for (std::size_t begin = 0; begin < result.cells.size(); begin += block)
      deliver("cells",
              cells_body(begin,
                         std::min(result.cells.size(), begin + block),
                         result.cells));
  }

  explore::SweepStats run_stats;
  if (result.stats) run_stats = *result.stats;
  run_stats.cells = result.cells.size();
  deliver("done", done_body(result.cells, run_stats));

  ++stats_.sweeps;
  stats_.cells_streamed += result.cells.size();
  stats_.sweep.merge(run_stats);
  entry.cells = result.cells.size();
  entry.stats = run_stats;
  cache_.insert(hash, canonical, std::move(entry));
}

void Service::emit_error(std::ostream& out, const std::string& id,
                         const std::string& stage, const std::string& field,
                         const std::string& message) {
  ++stats_.errors;
  std::string body = ",\"stage\":" + json::escape(stage);
  if (!field.empty()) body += ",\"field\":" + json::escape(field);
  body += ",\"message\":" + json::escape(message);
  emit(out, record("error", id, body));
}

}  // namespace photecc::serve
