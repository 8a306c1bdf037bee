#include "photecc/serve/service.hpp"

#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/spec/error.hpp"
#include "photecc/spec/run.hpp"

namespace photecc::serve {

namespace json = math::json;

namespace {

std::string string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json::escape(values[i]);
  }
  out += ']';
  return out;
}

std::string header_body(const spec::ExperimentSpec& experiment,
                        std::uint64_t hash, std::size_t cells,
                        std::size_t block_size,
                        const explore::ResultSchema& schema) {
  std::vector<std::string> axes;
  for (const explore::AxisLabels& axis : schema.axes)
    axes.push_back(axis.name);
  std::string body = ",\"spec_hash\":\"" + math::hex64(hash) + '"';
  if (!experiment.name.empty())
    body += ",\"name\":" + json::escape(experiment.name);
  body += ",\"cells\":" + std::to_string(cells);
  body += ",\"block_size\":" + std::to_string(block_size);
  body += ",\"axes\":" + string_array(axes);
  body += ",\"metrics\":" + string_array(schema.metrics);
  return body;
}

std::string cells_body(std::size_t begin, std::size_t end,
                       const explore::ResultTable& cells) {
  std::string body = ",\"begin\":" + std::to_string(begin) +
                     ",\"end\":" + std::to_string(end) + ",\"cells\":[";
  for (std::size_t i = begin; i < end; ++i) {
    if (i != begin) body += ',';
    cells.append_cell_json(body, i);
  }
  body += ']';
  body.shrink_to_fit();  // cached verbatim: keep no growth slack
  return body;
}

/// The done record carries only the DETERMINISTIC slice of the run's
/// SweepStats (lowering and solver counts are functions of the grid;
/// times and thread counts are not and stay off the wire).
std::string done_body(const explore::ResultTable& cells,
                      const explore::SweepStats& stats) {
  std::size_t feasible = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) feasible += cells.feasible(i);
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

  // One path for every grid: the header comes from the grid's schema
  // before any cell is evaluated, then the cell blocks stream in order
  // as they complete.
  const explore::ScenarioGrid grid = spec::lower(experiment);
  deliver("header", header_body(experiment, hash, grid.size(),
                                options_.block_size,
                                explore::result_schema(grid)));
  const explore::ExperimentResult result =
      explore::SweepRunner{{exec_threads(experiment)}}.run(
          grid, options_.block_size,
          [&](std::size_t begin, std::size_t end,
              const explore::ResultTable& cells) {
            deliver("cells", cells_body(begin, end, cells));
          });
  if (result.stats) ++stats_.plans_lowered;

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
