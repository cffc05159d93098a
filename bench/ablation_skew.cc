// Ablation (Section 4.4): "The size of the heap and hash maps inside the
// coalesce operator is predominantly determined by the application time
// skew between the input streams. Heartbeats [11] and sophisticated
// scheduling strategies can be used to minimize application time skew and
// thus the memory allocation of the coalesce operator."
//
// We migrate a 2-way join under GenMig while stream S1 is DELIVERED `lag`
// elements behind S0 (its timestamps are timely — pure scheduling/latency
// skew) and record the migration machinery's peak state (coalesce heap +
// pending maps). With heartbeats, the lagging source announces the start
// timestamp of its next pending element after every delivery, which lets
// the coalesce release its buffers despite the lag.
//
// Keys are drawn from a Zipf(skew) distribution so the join state reflects
// realistic key skew: hot keys fatten the hash buckets the migration has to
// carry. Sections A and B sweep the time-skew axes at a fixed key skew;
// section C sweeps the key-skew axis itself. Every row lands in
// BENCH_ablation_skew.json with its zipf_skew parameter recorded.

#include <cstdio>
#include <memory>
#include <string>

#include "migration/controller.h"
#include "obs/export.h"
#include "ops/source.h"
#include "plan/compile.h"
#include "stream/generator.h"
#include "toolchain.h"

using namespace genmig;           // NOLINT
using namespace genmig::logical;  // NOLINT

namespace {

constexpr Duration kW = 2000;
constexpr size_t kMigrateAtIndex = 1000;
constexpr int64_t kNumKeys = 20;
constexpr double kDefaultSkew = 0.8;  // Key skew for the time-skew sweeps.

LogicalPtr ThePlan() {
  return EquiJoin(Window(SourceNode("S0", Schema::OfInts({"x"})), kW),
                  Window(SourceNode("S1", Schema::OfInts({"x"})), kW), 0, 0);
}

struct Outcome {
  size_t peak_state_units = 0;
  size_t peak_state_bytes = 0;
};

/// Accumulates BENCH_ablation_skew.json rows.
std::string g_rows;

void RecordRow(const char* scenario, int64_t axis_value, double zipf_skew,
               bool heartbeats, const Outcome& o) {
  char row[256];
  std::snprintf(row, sizeof(row),
                "    {\"scenario\": \"%s\", \"value\": %lld, "
                "\"zipf_skew\": %.2f, \"heartbeats\": %s, "
                "\"peak_merge_elems\": %zu, \"peak_merge_bytes\": %zu}",
                scenario, static_cast<long long>(axis_value), zipf_skew,
                heartbeats ? "true" : "false", o.peak_state_units,
                o.peak_state_bytes);
  if (!g_rows.empty()) g_rows += ",\n";
  g_rows += row;
}

Outcome RunWithLag(size_t lag, bool heartbeats, double skew = kDefaultSkew) {
  const auto s0 =
      ToPhysicalStream(GenerateZipfStream(3000, 5, kNumKeys, skew, 61));
  const auto s1 =
      ToPhysicalStream(GenerateZipfStream(3000, 5, kNumKeys, skew, 62));

  MigrationController controller("ctrl",
                                 CompilePlan(*StripWindows(ThePlan())));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);
  Source src0("s0");
  Source src1("s1");
  StatelessChain w0("w0", StatelessChain::Window(kW));
  StatelessChain w1("w1", StatelessChain::Window(kW));
  src0.ConnectTo(0, &w0, 0);
  src1.ConnectTo(0, &w1, 0);
  w0.ConnectTo(0, &controller, 0);
  w1.ConnectTo(0, &controller, 1);

  Outcome o;
  auto sample = [&]() {
    if (!controller.migration_in_progress()) return;
    const size_t units = controller.StateUnits() -
                         controller.active_box().StateUnits() -
                         controller.new_box().StateUnits();
    const size_t bytes = controller.StateBytes() -
                         controller.active_box().StateBytes() -
                         controller.new_box().StateBytes();
    o.peak_state_units = std::max(o.peak_state_units, units);
    o.peak_state_bytes = std::max(o.peak_state_bytes, bytes);
  };

  // Deliver S0 `lag` elements ahead of S1.
  for (size_t i = 0; i < s0.size() + lag; ++i) {
    if (i == kMigrateAtIndex) {
      MigrationController::GenMigOptions opts;
      opts.window = kW;
      controller.StartGenMig(CompilePlan(*StripWindows(ThePlan())), opts);
    }
    if (i < s0.size()) src0.Inject(s0[i]);
    if (i >= lag) src1.Inject(s1[i - lag]);
    if (heartbeats && i >= lag && i + 1 - lag < s1.size()) {
      // The lagging source announces its next pending element's timestamp.
      src1.InjectHeartbeat(s1[i + 1 - lag].interval.start);
    }
    sample();
  }
  src0.Close();
  src1.Close();
  return o;
}

}  // namespace

/// Scenario B: S1 is sparse (one element every `gap` time units) but
/// punctual. Between its rare elements its watermark stalls — unless it
/// emits heartbeats announcing the timestamp of its next element.
Outcome RunSparse(int64_t gap, bool heartbeats, double skew = kDefaultSkew) {
  const auto s0 =
      ToPhysicalStream(GenerateZipfStream(3000, 5, kNumKeys, skew, 61));
  const auto s1 = ToPhysicalStream(GenerateZipfStream(
      static_cast<size_t>(3000 * 5 / gap + 2), gap, kNumKeys, skew, 62));

  MigrationController controller("ctrl",
                                 CompilePlan(*StripWindows(ThePlan())));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);
  Source src0("s0");
  Source src1("s1");
  StatelessChain w0("w0", StatelessChain::Window(kW));
  StatelessChain w1("w1", StatelessChain::Window(kW));
  src0.ConnectTo(0, &w0, 0);
  src1.ConnectTo(0, &w1, 0);
  w0.ConnectTo(0, &controller, 0);
  w1.ConnectTo(0, &controller, 1);

  Outcome o;
  size_t j = 0;  // Next s1 element.
  for (size_t i = 0; i < s0.size(); ++i) {
    if (i == kMigrateAtIndex) {
      MigrationController::GenMigOptions opts;
      opts.window = kW;
      controller.StartGenMig(CompilePlan(*StripWindows(ThePlan())), opts);
    }
    src0.Inject(s0[i]);
    while (j < s1.size() &&
           s1[j].interval.start <= s0[i].interval.start) {
      src1.Inject(s1[j++]);
    }
    if (heartbeats && j < s1.size()) {
      src1.InjectHeartbeat(s1[j].interval.start);
    }
    if (controller.migration_in_progress()) {
      const size_t units = controller.StateUnits() -
                           controller.active_box().StateUnits() -
                           controller.new_box().StateUnits();
      const size_t bytes = controller.StateBytes() -
                           controller.active_box().StateBytes() -
                           controller.new_box().StateBytes();
      o.peak_state_units = std::max(o.peak_state_units, units);
      o.peak_state_bytes = std::max(o.peak_state_bytes, bytes);
    }
  }
  src0.Close();
  src1.Close();
  return o;
}

int main() {
  std::printf("Ablation: coalesce state vs input skew (Sec 4.4)\n");
  std::printf("keys ~ Zipf(%.2f) over %lld keys unless swept below\n\n",
              kDefaultSkew, static_cast<long long>(kNumKeys));
  std::printf("A) S1 delivered `lag` elements (x5 time units) behind S0 "
              "(delivery skew):\n");
  std::printf("%10s | %14s %14s\n", "lag_elems", "merge_elems",
              "merge_bytes");
  for (size_t lag : {0u, 20u, 80u, 200u}) {
    const Outcome plain = RunWithLag(lag, /*heartbeats=*/false);
    RecordRow("lag", static_cast<int64_t>(lag), kDefaultSkew, false, plain);
    std::printf("%10zu | %14zu %14zu\n", lag, plain.peak_state_units,
                plain.peak_state_bytes);
  }
  std::printf("\nB) S1 sparse (one element per `gap` units, punctual), with "
              "and without heartbeats:\n");
  std::printf("%10s | %14s %14s | %16s %16s\n", "gap", "merge_elems",
              "merge_bytes", "hb_merge_elems", "hb_merge_bytes");
  for (int64_t gap : {5, 50, 200, 1000}) {
    const Outcome plain = RunSparse(gap, /*heartbeats=*/false);
    const Outcome hb = RunSparse(gap, /*heartbeats=*/true);
    RecordRow("sparse", gap, kDefaultSkew, false, plain);
    RecordRow("sparse", gap, kDefaultSkew, true, hb);
    std::printf("%10lld | %14zu %14zu | %16zu %16zu\n",
                static_cast<long long>(gap), plain.peak_state_units,
                plain.peak_state_bytes, hb.peak_state_units,
                hb.peak_state_bytes);
  }
  // A fixed delivery lag keeps merge state alive through the migration so
  // the key-skew axis has something to fatten; with lag 0 every row is 0.
  std::printf("\nC) key skew (Zipf exponent, S1 lagging 80 elements): hot "
              "keys fatten the join state the migration carries:\n");
  std::printf("%10s | %14s %14s\n", "zipf_skew", "merge_elems",
              "merge_bytes");
  for (double skew : {0.0, 0.6, 1.0, 1.4}) {
    const Outcome o = RunWithLag(/*lag=*/80, /*heartbeats=*/false, skew);
    RecordRow("key_skew", /*axis_value=*/80, skew, false, o);
    std::printf("%10.2f | %14zu %14zu\n", skew, o.peak_state_units,
                o.peak_state_bytes);
  }
  std::printf("\npaper claim: the coalesce footprint is driven by the "
              "application-time skew between the inputs; heartbeats [11] "
              "minimize it for sparse-but-punctual streams (B), while "
              "genuine delivery lag (A) must be handled by scheduling.\n");

  const std::string json = "{\n  \"bench\": \"ablation_skew\",\n"
                           "  \"num_keys\": " + std::to_string(kNumKeys) +
                           ",\n  \"rows\": [\n" + g_rows + "\n  ]\n}\n";
  const char* json_path = "BENCH_ablation_skew.json";
  if (obs::WriteFile(json_path, bench::WithToolchain(json))) {
    std::printf("results written to %s\n", json_path);
  } else {
    std::printf("failed to write %s\n", json_path);
  }
  return 0;
}
