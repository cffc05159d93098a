#include "stream/csv.h"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace genmig {
namespace {

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(current);
  return fields;
}

Result<Value> ParseField(const std::string& text, ValueType type,
                         size_t line_no) {
  const char* begin = text.c_str();
  char* end = nullptr;
  switch (type) {
    case ValueType::kInt64: {
      const long long v = std::strtoll(begin, &end, 10);
      if (end == begin || *end != '\0') {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": '" + text + "' is not an INT");
      }
      return Value(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      const double v = std::strtod(begin, &end);
      if (end == begin || *end != '\0') {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": '" + text + "' is not a DOUBLE");
      }
      return Value(v);
    }
    case ValueType::kString:
      return Value(text);
  }
  return Status::Internal("unknown column type");
}

/// Shared line parser; `ordered` enforces the physical-stream monotonicity
/// (ParseCsv), otherwise lateness is tracked instead (ParseCsvTrace).
Result<std::vector<TimedTuple>> ParseCsvImpl(const std::string& text,
                                             const Schema& schema,
                                             bool ordered,
                                             int64_t* max_lateness) {
  std::vector<TimedTuple> out;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  int64_t max_t = std::numeric_limits<int64_t>::min();
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = SplitLine(line);
    if (fields.size() != schema.size() + 1) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(schema.size() + 1) + " fields, got " +
          std::to_string(fields.size()));
    }
    Result<Value> ts = ParseField(fields[0], ValueType::kInt64, line_no);
    if (!ts.ok()) return ts.status();
    const int64_t t = ts.value().AsInt64();
    if (t < max_t) {
      if (ordered) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": timestamps must be non-decreasing");
      }
      if (max_lateness != nullptr && max_t - t > *max_lateness) {
        *max_lateness = max_t - t;
      }
    }
    if (t > max_t) max_t = t;
    std::vector<Value> values;
    values.reserve(schema.size());
    for (size_t c = 0; c < schema.size(); ++c) {
      Result<Value> v =
          ParseField(fields[c + 1], schema.column(c).type, line_no);
      if (!v.ok()) return v.status();
      values.push_back(std::move(v).ValueOrDie());
    }
    out.push_back({Tuple(std::move(values)), t});
  }
  return out;
}

}  // namespace

Result<std::vector<TimedTuple>> ParseCsv(const std::string& text,
                                         const Schema& schema) {
  return ParseCsvImpl(text, schema, /*ordered=*/true, nullptr);
}

Result<CsvTrace> ParseCsvTrace(const std::string& text, const Schema& schema) {
  CsvTrace trace;
  Result<std::vector<TimedTuple>> rows =
      ParseCsvImpl(text, schema, /*ordered=*/false, &trace.max_lateness);
  if (!rows.ok()) return rows.status();
  trace.arrivals = std::move(rows).ValueOrDie();
  return trace;
}

Result<CsvTrace> ReadCsvTraceFile(const std::string& path,
                                  const Schema& schema) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsvTrace(buffer.str(), schema);
}

Result<std::vector<TimedTuple>> ReadCsvFile(const std::string& path,
                                            const Schema& schema) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsv(buffer.str(), schema);
}

std::string StreamToCsv(const MaterializedStream& stream) {
  std::string out;
  for (const StreamElement& e : stream) {
    out += e.interval.start.ToString();
    out += ",";
    out += e.interval.end.ToString();
    for (const Value& v : e.tuple) {
      out += ",";
      out += v.is_string() ? v.AsString() : v.ToString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace genmig
