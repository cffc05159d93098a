// csv_replay: a small command-line driver — replay CSV streams through a
// CQL query and print the result stream as CSV, optionally re-optimizing
// (and GenMig-migrating) mid-replay.
//
//   csv_replay <query> <stream>=<file>[:<schema>] ...
//
//   schema: comma-separated column specs `name[:int|double|string]`
//           (default int). Example:
//
//   ./build/examples/csv_replay
//     "SELECT DISTINCT a.x FROM a [RANGE 100], b [RANGE 100] WHERE a.x = b.x"
//     a=/tmp/a.csv:x b=/tmp/b.csv:x
//
// Without arguments, runs a self-contained demo on generated CSV data.

#include <cstdio>
#include <fstream>

#include "engine/dsms.h"
#include "stream/csv.h"
#include "stream/generator.h"

using namespace genmig;  // NOLINT: example brevity.

int Main(int argc, const char** argv);

namespace {

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Column> cols;
  std::string current;
  auto flush = [&]() -> Status {
    if (current.empty()) {
      return Status::InvalidArgument("empty column spec");
    }
    Column c;
    const size_t colon = current.find(':');
    c.name = current.substr(0, colon);
    std::string type =
        colon == std::string::npos ? "int" : current.substr(colon + 1);
    if (type == "int") {
      c.type = ValueType::kInt64;
    } else if (type == "double") {
      c.type = ValueType::kDouble;
    } else if (type == "string") {
      c.type = ValueType::kString;
    } else {
      return Status::InvalidArgument("unknown column type '" + type + "'");
    }
    cols.push_back(std::move(c));
    current.clear();
    return Status::OK();
  };
  for (char ch : spec) {
    if (ch == ',') {
      Status s = flush();
      if (!s.ok()) return s;
    } else {
      current.push_back(ch);
    }
  }
  Status s = flush();
  if (!s.ok()) return s;
  return Schema(std::move(cols));
}

int RunDemo() {
  std::printf("# no arguments: generating demo CSV data under /tmp\n");
  for (const char* name : {"a", "b"}) {
    std::ofstream out(std::string("/tmp/genmig_demo_") + name + ".csv");
    const uint64_t seed = name[0] == 'a' ? 1 : 2;
    for (const TimedTuple& tt : GenerateKeyedStream(200, 7, 5, seed)) {
      out << tt.t << "," << tt.tuple.field(0).AsInt64() << "\n";
    }
  }
  const char* argv[] = {
      "csv_replay",
      "SELECT DISTINCT a.x FROM a [RANGE 100], b [RANGE 100] "
      "WHERE a.x = b.x",
      "a=/tmp/genmig_demo_a.csv:x", "b=/tmp/genmig_demo_b.csv:x"};
  return Main(4, argv);
}

}  // namespace

int Main(int argc, const char** argv) {
  if (argc < 3) return RunDemo();

  Dsms::Options options;
  options.calibration_period = 500;  // Re-cost twice a second.
  Dsms dsms(options);

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const size_t colon = arg.find(':', eq == std::string::npos ? 0 : eq);
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad stream spec '%s'\n", arg.c_str());
      return 1;
    }
    const std::string name = arg.substr(0, eq);
    const std::string file = arg.substr(
        eq + 1, colon == std::string::npos ? std::string::npos
                                           : colon - eq - 1);
    Schema schema = Schema::OfInts({"x"});
    if (colon != std::string::npos) {
      Result<Schema> parsed = ParseSchemaSpec(arg.substr(colon + 1));
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      schema = parsed.value();
    }
    Result<std::vector<TimedTuple>> rows = ReadCsvFile(file, schema);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   rows.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "# %s: %zu elements from %s\n", name.c_str(),
                 rows.value().size(), file.c_str());
    dsms.RegisterRawStream(name, schema, rows.value());
  }

  Result<Dsms::QueryId> query = dsms.InstallQuery(argv[1]);
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "# plan:\n%s",
               dsms.Info(query.value()).plan->ToString().c_str());

  dsms.RunToCompletion();
  const Dsms::QueryInfo info = dsms.Info(query.value());
  std::fprintf(stderr, "# %zu results, %d migration(s)\n",
               info.result_count, info.migrations_completed);
  std::fputs(StreamToCsv(dsms.Results(query.value())).c_str(), stdout);
  return 0;
}

int main(int argc, const char** argv) { return Main(argc, argv); }
