// Shard-parallel scaling: the Figure 6 saturated workload (inputs processed
// as fast as possible, nested-loops joins) swept over shard counts
// {1, 2, 4, 8}, with a coordinated GenMig (left-deep -> right-deep
// re-association) broadcast mid-run.
//
// The speedup source on this workload is algorithmic, not core count: a
// nested-loops join probes its whole opposite window state per arriving
// element, so hash-partitioning the inputs across N plan replicas cuts each
// probe to ~1/N of the state and the total join work to ~1/N — which is why
// the sweep shows super-1x scaling even on a single-core box.
//
// Emits BENCH_parallel.json: throughput (input elements/s) and sink
// end-to-end p50/p99 per shard count, plus the 4-vs-1 speedup. Output
// streams are cross-checked per shard count against the 1-shard run under
// snapshot normal form (GenMig's coalesce may fragment validity intervals
// differently per shard count; Theorem 1 only promises equal snapshots).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "par/coordinator.h"
#include "plan/logical.h"
#include "ref/checker.h"
#include "stream/generator.h"
#include "toolchain.h"

using namespace genmig;  // NOLINT

namespace {

struct Workload {
  size_t elements_per_stream = 12000;
  int64_t period = 1;
  Duration window = 1200;
  int64_t num_keys = 400;
  int64_t migrate_at = 6000;
  uint64_t seed = 171;
};

// An always-true comparison forces CompilePlan onto NestedLoopsJoin (an
// equi-join with no predicate compiles to the hash join, whose per-element
// cost does not scale with window state).
ExprPtr AlwaysTrue() {
  return Expr::Compare(Expr::CmpOp::kGe, Expr::Column(0),
                       Expr::Const(Value(int64_t{0})));
}

LogicalPtr NljOnFirst(LogicalPtr left, LogicalPtr right) {
  auto join = std::make_shared<LogicalNode>(
      *logical::EquiJoin(std::move(left), std::move(right), 0, 0));
  join->predicate = AlwaysTrue();
  return join;
}

struct Plans {
  LogicalPtr old_plan;  // ((A |x| B) |x| C) |x| D, left-deep.
  LogicalPtr new_plan;  // A |x| (B |x| (C |x| D)), right-deep.
};

Plans MakePlans(const Workload& w) {
  std::vector<LogicalPtr> leaves;
  for (const char* name : {"A", "B", "C", "D"}) {
    leaves.push_back(logical::Window(
        logical::SourceNode(name, Schema::OfInts({"k"})), w.window));
  }
  Plans plans;
  plans.old_plan =
      NljOnFirst(NljOnFirst(NljOnFirst(leaves[0], leaves[1]), leaves[2]),
                 leaves[3]);
  plans.new_plan = NljOnFirst(
      leaves[0], NljOnFirst(leaves[1], NljOnFirst(leaves[2], leaves[3])));
  return plans;
}

par::InputMap MakeInputs(const Workload& w) {
  par::InputMap inputs;
  uint64_t seed = w.seed;
  for (const char* name : {"A", "B", "C", "D"}) {
    inputs[name] = ToPhysicalStream(GenerateKeyedStream(
        w.elements_per_stream, w.period, w.num_keys, seed++));
  }
  return inputs;
}

struct RunResult {
  int shards = 0;
  double wall_seconds = 0.0;
  uint64_t elements_in = 0;
  size_t outputs = 0;
  double throughput_eps = 0.0;
  double e2e_p50_ns = 0.0;
  double e2e_p99_ns = 0.0;
  int migrations_completed = 0;
  std::string t_split;
  MaterializedStream normal_form;
};

RunResult RunOnce(const Workload& w, const Plans& plans,
                  const par::InputMap& inputs, int shards) {
  obs::MetricsRegistry registry;
  par::Coordinator::Options options;
  options.shards = shards;
  options.registry = &registry;
  CollectorSink sink("sink");
  sink.AttachMetrics(&registry);  // Its e2e slot times source-to-sink.
  par::Coordinator coordinator(plans.old_plan, &sink, options);
  GENMIG_CHECK(coordinator.spec().ok);
  const Status scheduled =
      coordinator.ScheduleGenMig(plans.new_plan, Timestamp(w.migrate_at));
  GENMIG_CHECK(scheduled.ok());

  const auto t0 = std::chrono::steady_clock::now();
  const Status ran = coordinator.Run(inputs);
  const auto t1 = std::chrono::steady_clock::now();
  GENMIG_CHECK(ran.ok());

  RunResult r;
  r.shards = shards;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.elements_in = coordinator.elements_routed();
  r.outputs = sink.count();
  r.throughput_eps =
      static_cast<double>(r.elements_in) / r.wall_seconds;
  r.migrations_completed = coordinator.migrations_completed();
  r.t_split = coordinator.t_split().ToString();
#ifndef GENMIG_NO_METRICS
  r.e2e_p50_ns = sink.metrics()->e2e_ns.ApproxQuantile(0.5);
  r.e2e_p99_ns = sink.metrics()->e2e_ns.ApproxQuantile(0.99);
#endif
  r.normal_form = ref::SnapshotNormalForm(sink.collected());
  return r;
}

}  // namespace

int main() {
  const Workload w;
  const Plans plans = MakePlans(w);
  const par::InputMap inputs = MakeInputs(w);

  std::printf("Parallel scaling: saturated 4-way NLJ, shards x {1,2,4,8}\n");
  std::printf("setup: 4 streams x %zu el @ period %lld, w=%lld, %lld keys, "
              "GenMig left-deep -> right-deep broadcast at t=%lld\n\n",
              w.elements_per_stream, static_cast<long long>(w.period),
              static_cast<long long>(w.window),
              static_cast<long long>(w.num_keys),
              static_cast<long long>(w.migrate_at));

  std::vector<RunResult> runs;
  for (int shards : {1, 2, 4, 8}) {
    runs.push_back(RunOnce(w, plans, inputs, shards));
  }

  std::printf("%7s %12s %14s %12s %10s %12s %12s %8s\n", "shards", "outputs",
              "throughput_eps", "wall_sec", "speedup", "e2e_p50_us",
              "e2e_p99_us", "migs");
  const RunResult& base = runs.front();
  for (const RunResult& r : runs) {
    std::printf("%7d %12zu %14.0f %12.3f %9.2fx %12.1f %12.1f %8d\n",
                r.shards, r.outputs, r.throughput_eps, r.wall_seconds,
                base.wall_seconds / r.wall_seconds, r.e2e_p50_ns / 1000.0,
                r.e2e_p99_ns / 1000.0, r.migrations_completed);
  }

  // Correctness: every shard count must produce the 1-shard snapshots.
  bool all_equal = true;
  for (const RunResult& r : runs) {
    if (r.normal_form != base.normal_form) {
      all_equal = false;
      std::printf("\nMISMATCH: shards=%d snapshot normal form differs from "
                  "shards=1\n", r.shards);
    }
  }
  if (all_equal) {
    std::printf("\nsnapshot normal form identical across all shard counts "
                "(%zu canonical elements)\n", base.normal_form.size());
  }

  double speedup4 = 0.0;
  for (const RunResult& r : runs) {
    if (r.shards == 4) speedup4 = base.wall_seconds / r.wall_seconds;
  }
  std::printf("4-shard speedup over 1 shard: %.2fx (target >= 2x)\n",
              speedup4);

  std::string json = "{\n  \"bench\": \"parallel_scale\",\n  \"toolchain\": " +
                     bench::ToolchainJson() + ",\n  \"workload\": {";
  json += "\"streams\": 4, \"elements_per_stream\": " +
          std::to_string(w.elements_per_stream) +
          ", \"period\": " + std::to_string(w.period) +
          ", \"window\": " + std::to_string(w.window) +
          ", \"num_keys\": " + std::to_string(w.num_keys) +
          ", \"migrate_at\": " + std::to_string(w.migrate_at) + "},\n";
  json += "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"shards\": %d, \"wall_seconds\": %.6f, \"elements_in\": %llu, "
        "\"throughput_eps\": %.1f, \"outputs\": %zu, "
        "\"sink_e2e_p50_ns\": %.1f, \"sink_e2e_p99_ns\": %.1f, "
        "\"migrations_completed\": %d, \"t_split\": \"%s\", "
        "\"normal_form_matches_1shard\": %s}%s\n",
        r.shards, r.wall_seconds,
        static_cast<unsigned long long>(r.elements_in), r.throughput_eps,
        r.outputs, r.e2e_p50_ns, r.e2e_p99_ns, r.migrations_completed,
        r.t_split.c_str(),
        r.normal_form == base.normal_form ? "true" : "false",
        i + 1 < runs.size() ? "," : "");
    json += row;
  }
  json += "  ],\n  \"speedup_4_vs_1\": " + std::to_string(speedup4) + "\n}\n";

  const char* json_path = "BENCH_parallel.json";
  if (obs::WriteFile(json_path, json)) {
    std::printf("results written to %s\n", json_path);
  } else {
    std::printf("failed to write %s\n", json_path);
    return 1;
  }
  return all_equal && speedup4 >= 1.0 ? 0 : 1;
}
