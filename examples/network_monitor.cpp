// Network monitoring scenario: the full dynamic-query-optimization loop the
// paper motivates in Section 1.
//
// A 3-way join correlates packets from three network taps over sliding
// windows. The plan installed at subscription time is fine for the expected
// data distributions — but the traffic mix drifts: the flow-id cardinality
// at the 'edge' and 'core' taps collapses (e.g. a flood from few flows), so
// the installed bottom join edge |x| core suddenly produces a huge
// intermediate stream. The statistics taps notice, the optimizer re-costs
// the plan, finds a join order that joins the still-selective 'dmz' tap
// first, and the controller migrates to it with GenMig while the query keeps
// running.
//
//   ./build/examples/network_monitor

#include <cstdio>

#include "migration/controller.h"
#include "migration/trigger_policy.h"
#include "opt/rules.h"
#include "opt/stats_tap.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "stream/generator.h"

using namespace genmig;           // NOLINT: example brevity.
using namespace genmig::logical;  // NOLINT

namespace {

constexpr Duration kWindow = 5000;  // 5-second windows.

LogicalPtr Tap(const std::string& name) {
  return Window(SourceNode(name, Schema::OfInts({"flow"})), kWindow);
}

/// Tap traffic whose key cardinality changes at `drift_time`.
MaterializedStream DriftingTap(size_t count, int64_t period,
                               int64_t keys_before, int64_t keys_after,
                               int64_t drift_time, uint64_t seed) {
  MaterializedStream out;
  std::mt19937_64 rng(seed);
  int64_t t = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t keys = t < drift_time ? keys_before : keys_after;
    out.emplace_back(
        Tuple::OfInts({static_cast<int64_t>(rng() % static_cast<uint64_t>(
                           keys))}),
        TimeInterval(Timestamp(t), Timestamp(t + 1)));
    t += period;
  }
  return out;
}

/// The cheapest of `plan` and its rule rewrites under `stats`.
LogicalPtr Cheapest(const LogicalPtr& plan, const StatsCatalog& stats) {
  double cost = 0.0;
  LogicalPtr best = rules::BestCandidate(plan, stats, nullptr, &cost);
  return best != nullptr && cost < EstimateCost(*plan, stats) ? best : plan;
}

}  // namespace

int main() {
  std::printf("=== network monitor: drift-triggered live re-optimization "
              "===\n\n");

  // Query: correlate flows seen at all three taps.
  LogicalPtr query =
      EquiJoin(EquiJoin(Tap("edge"), Tap("core"), 0, 0), Tap("dmz"), 0, 0);

  // Initial statistics: every tap sees ~1000 distinct flows, so all join
  // orders cost the same and the installed left-deep order is kept.
  StatsCatalog initial;
  initial.SetSource("edge", 0.1, 1000.0);
  initial.SetSource("core", 0.1, 1000.0);
  initial.SetSource("dmz", 0.1, 1000.0);
  LogicalPtr running = Cheapest(query, initial);
  std::printf("installed plan (cost %.1f):\n%s\n",
              EstimateCost(*running, initial), running->ToString().c_str());

  // Wire up: sources -> windows -> StatsTaps (one window of statistics
  // each) -> controller(running plan) -> sink.
  const auto source_names = CollectSourceNames(*running);
  MigrationController controller(
      "ctrl", CompilePlan(*StripWindows(running)));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);

  Executor exec;
  std::vector<std::unique_ptr<StatelessChain>> windows;
  std::vector<std::unique_ptr<StatsTap>> taps;
  const int64_t kDrift = 30000;
  std::map<std::string, MaterializedStream> traffic = {
      // After the drift, edge and core collapse to ~50 flows (flood) while
      // dmz stays wide: the bottom join edge |x| core becomes the most
      // expensive pair, so dmz should be joined first.
      {"edge", DriftingTap(6000, 10, 1000, 50, kDrift, 11)},
      {"core", DriftingTap(6000, 10, 1000, 50, kDrift, 12)},
      {"dmz", DriftingTap(6000, 10, 1000, 1000, kDrift, 13)},
  };
  for (size_t i = 0; i < source_names.size(); ++i) {
    const std::string& name = source_names[i];
    const int feed = exec.AddFeed(name, traffic.at(name));
    windows.push_back(std::make_unique<StatelessChain>(
        "w_" + name, StatelessChain::Window(kWindow)));
    taps.push_back(std::make_unique<StatsTap>("tap_" + name, kWindow));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, taps.back().get(), 0);
    taps.back()->ConnectTo(0, &controller, static_cast<int>(i));
  }

  // Run past the drift, then read the key cardinalities the taps measured
  // over the last window of traffic.
  exec.RunUntil(Timestamp(kDrift + kWindow));
  std::printf("t=%.0fs: %zu results so far; traffic drifted, re-profiling "
              "...\n",
              (kDrift + kWindow) / 1000.0, sink.count());

  StatsCatalog drifted;
  for (size_t i = 0; i < source_names.size(); ++i) {
    const SourceStats stats = taps[i]->Snapshot();
    drifted.SetSource(source_names[i], stats);
    std::printf("  %-5s distinct flows in last window: %.0f\n",
                source_names[i].c_str(), stats.DistinctOf(0));
  }

  LogicalPtr candidate = Cheapest(running, drifted);
  const double running_cost = EstimateCost(*running, drifted);
  const double candidate_cost = EstimateCost(*candidate, drifted);
  std::printf("\nre-optimized plan (cost %.1f -> %.1f):\n%s\n", running_cost,
              candidate_cost, candidate->ToString().c_str());

  // The engine's migrate-or-not threshold: running / best >= 1 + margin.
  if (running_cost / candidate_cost >= CostRatioPolicy().fire_threshold()) {
    Box new_box = CompilePlan(*StripWindows(candidate));
    new_box.ReorderInputs(source_names);
    MigrationController::GenMigOptions opts;
    opts.window = kWindow;
    controller.StartGenMig(std::move(new_box), opts);
    std::printf("=> migration started (GenMig, T_split=%s)\n",
                controller.t_split().ToString().c_str());
  } else {
    std::printf("=> improvement below threshold, keeping the plan\n");
  }

  exec.RunToCompletion();
  std::printf("\nfinished: %d migration(s), %zu total results\n",
              controller.migrations_completed(), sink.count());
  return 0;
}
