#include "photecc/explore/result.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "photecc/math/json.hpp"

namespace photecc::explore {

namespace {

/// Shortest round-trip double formatting (std::to_chars): deterministic
/// across runs and thread counts, precise enough to reparse exactly.
/// The JSON form writes non-finite values as null (math::json::number);
/// the CSV form keeps to_chars' "inf" / "nan".
void append_double(std::string& out, double value, bool json) {
  if (json && !std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec == std::errc{})
    out.append(buffer, ptr);
  else
    out += json ? "null" : "nan";
}

/// RFC-4180 minimal quoting.
std::string csv_field(const std::string& raw) {
  if (raw.find_first_of(",\"\n") == std::string::npos) return raw;
  std::string quoted = "\"";
  for (const char c : raw) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::optional<std::size_t> ResultSchema::metric_column(
    std::string_view name) const {
  for (std::size_t k = 0; k < metrics.size(); ++k)
    if (metrics[k] == name) return k;
  return std::nullopt;
}

ResultTable::ResultTable(ResultSchema schema, std::size_t rows,
                         bool with_schemes)
    : schema_(std::move(schema)),
      values_(rows * schema_.metrics.size(), 0.0),
      feasible_(rows, 0) {
  if (with_schemes) schemes_.resize(rows);
  std::size_t stride = 1;
  for (const AxisLabels& axis : schema_.axes) {
    strides_.push_back(stride);
    stride *= std::max<std::size_t>(1, axis.labels.size());
    const std::string key = math::json::escape(axis.name) + ':';
    std::vector<std::string>& json = json_labels_.emplace_back();
    std::vector<std::string>& csv = csv_labels_.emplace_back();
    for (const std::string& label : axis.labels) {
      json.push_back(key + math::json::escape(label));
      csv.push_back(csv_field(label));
    }
  }
  for (const std::string& name : schema_.metrics)
    json_metric_keys_.push_back(math::json::escape(name) + ':');
}

std::optional<std::string> ResultTable::label(std::size_t row,
                                              std::string_view axis) const {
  for (std::size_t a = 0; a < schema_.axes.size(); ++a)
    if (schema_.axes[a].name == axis) return label(row, a);
  return std::nullopt;
}

std::optional<double> ResultTable::metric(std::size_t row,
                                          std::string_view name) const {
  const auto column = schema_.metric_column(name);
  if (!column) return std::nullopt;
  return metric_row(row)[*column];
}

void ResultTable::append_cell_json(std::string& out, std::size_t row) const {
  out += "{\"index\":";
  out += std::to_string(row);
  out += ",\"labels\":{";
  for (std::size_t a = 0; a < json_labels_.size(); ++a) {
    if (a) out += ',';
    out += json_labels_[a][label_index(row, a)];
  }
  out += feasible(row) ? "},\"feasible\":true,\"metrics\":{"
                       : "},\"feasible\":false,\"metrics\":{";
  const std::span<const double> values = metric_row(row);
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k) out += ',';
    out += json_metric_keys_[k];
    append_double(out, values[k], true);
  }
  out += "}}";
}

void ResultTable::write_csv(std::ostream& os) const {
  std::string line = "index";
  for (const AxisLabels& axis : schema_.axes) {
    line += ',';
    line += csv_field(axis.name);
  }
  line += ",feasible";
  for (const std::string& name : schema_.metrics) {
    line += ',';
    line += csv_field(name);
  }
  line += '\n';
  os << line;

  for (std::size_t row = 0; row < size(); ++row) {
    line = std::to_string(row);
    for (std::size_t a = 0; a < csv_labels_.size(); ++a) {
      line += ',';
      line += csv_labels_[a][label_index(row, a)];
    }
    line += feasible(row) ? ",1" : ",0";
    for (const double value : metric_row(row)) {
      line += ',';
      append_double(line, value, false);
    }
    line += '\n';
    os << line;
  }
}

void ResultTable::write_json(std::ostream& os) const {
  os << "{\"cells\":[";
  std::string cell;
  for (std::size_t row = 0; row < size(); ++row) {
    cell = row ? ",\n  " : "\n  ";
    append_cell_json(cell, row);
    os << cell;
  }
  os << "\n]}\n";
}

std::vector<std::size_t> ResultTable::pareto_front(
    const std::vector<Objective>& objectives) const {
  std::vector<std::size_t> columns;
  for (const Objective& objective : objectives) {
    const auto column = schema_.metric_column(objective.metric);
    if (!column) return {};
    columns.push_back(*column);
  }

  // Each candidate's objective vector, normalised to minimisation so
  // the dominance test below is uniform; cells that cannot be on the
  // front (infeasible, or a non-finite objective) are left out.
  const std::size_t m = columns.size();
  std::vector<std::size_t> candidates;
  std::vector<double> values;
  for (std::size_t row = 0; row < size(); ++row) {
    if (!feasible(row)) continue;
    bool finite = true;
    for (std::size_t k = 0; k < m && finite; ++k)
      finite = std::isfinite(metric_row(row)[columns[k]]);
    if (!finite) continue;
    candidates.push_back(row);
    for (std::size_t k = 0; k < m; ++k) {
      const double v = metric_row(row)[columns[k]];
      values.push_back(objectives[k].minimize ? v : -v);
    }
  }
  const auto at = [&](std::size_t c) { return values.data() + c * m; };
  // b dominates a: no worse on every objective, strictly better on one.
  const auto dominates = [m](const double* b, const double* a) {
    bool strictly_better = false;
    for (std::size_t k = 0; k < m; ++k) {
      if (b[k] > a[k]) return false;
      if (b[k] < a[k]) strictly_better = true;
    }
    return strictly_better;
  };

  std::vector<std::size_t> front;  // positions in `candidates`
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < candidates.size() && !dominated; ++j)
      dominated = j != i && dominates(at(j), at(i));
    if (!dominated) front.push_back(i);
  }
  std::sort(front.begin(), front.end(), [&](std::size_t lhs, std::size_t rhs) {
    for (std::size_t k = 0; k < m; ++k)
      if (at(lhs)[k] != at(rhs)[k]) return at(lhs)[k] < at(rhs)[k];
    return lhs < rhs;
  });
  for (std::size_t& c : front) c = candidates[c];
  return front;
}

core::TradeoffSweep ResultTable::to_tradeoff_sweep() const {
  core::TradeoffSweep sweep;
  sweep.points = schemes_;
  return sweep;
}

std::string ExperimentResult::csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

std::string ExperimentResult::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

double SweepStats::warm_hit_rate() const {
  return cells ? static_cast<double>(warm_reuses) /
                     static_cast<double>(cells)
               : 0.0;
}

double SweepStats::cells_per_second() const {
  return execute_time_s > 0.0
             ? static_cast<double>(cells) / execute_time_s
             : 0.0;
}

void SweepStats::merge(const SweepStats& other) {
  cells += other.cells;
  channels_lowered += other.channels_lowered;
  root_solves += other.root_solves;
  solver_iterations += other.solver_iterations;
  warm_reuses += other.warm_reuses;
  lower_time_s += other.lower_time_s;
  execute_time_s += other.execute_time_s;
}

SweepStats SweepStats::as_replay() const {
  SweepStats replay;
  replay.cells = cells;
  return replay;
}

std::string SweepStats::json() const {
  std::ostringstream os;
  os << "{\"cells\":" << cells
     << ",\"channels_lowered\":" << channels_lowered
     << ",\"root_solves\":" << root_solves
     << ",\"solver_iterations\":" << solver_iterations
     << ",\"warm_reuses\":" << warm_reuses
     << ",\"warm_hit_rate\":" << math::json::number(warm_hit_rate())
     << ",\"lower_time_s\":" << math::json::number(lower_time_s)
     << ",\"execute_time_s\":" << math::json::number(execute_time_s)
     << ",\"cells_per_second\":" << math::json::number(cells_per_second())
     << "}";
  return os.str();
}

}  // namespace photecc::explore
