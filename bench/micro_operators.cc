// Micro-benchmarks (google-benchmark) of the physical operators, including
// the migration-specific Split and Coalesce: the paper argues that split,
// union and selection "have constant costs per element" and that the
// reference-point optimization saves the coalesce costs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>

#include "ops/aggregate.h"
#include "ops/coalesce.h"
#include "ops/dedup.h"
#include "ops/join.h"
#include "ops/refpoint_merge.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/split.h"
#include "ops/stateless.h"
#include "plan/compile.h"
#include "plan/logical.h"
#include "stream/batch.h"
#include "stream/generator.h"
#include "toolchain.h"

namespace genmig {
namespace {

MaterializedStream KeyedWindowed(size_t n, int64_t keys, Duration w,
                                 uint64_t seed) {
  MaterializedStream out;
  for (const TimedTuple& tt : GenerateKeyedStream(n, 1, keys, seed)) {
    out.emplace_back(tt.tuple,
                     TimeInterval(Timestamp(tt.t), Timestamp(tt.t + w + 1)));
  }
  return out;
}

/// Pre-chunks a stream into TupleBatches. Batched benchmarks inject these
/// prebuilt chunks so the timed region measures operator execution, not
/// batch envelope construction (a streaming source would hand over batches
/// it filled during ingestion).
std::vector<TupleBatch> Chunks(const MaterializedStream& s, size_t rows) {
  std::vector<TupleBatch> out;
  for (size_t i = 0; i < s.size(); i += rows) {
    out.push_back(TupleBatch::FromStream(s, i, std::min(rows, s.size() - i)));
  }
  return out;
}

void BM_SymmetricHashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto left = KeyedWindowed(n, 64, 100, 1);
  const auto right = KeyedWindowed(n, 64, 100, 2);
  for (auto _ : state) {
    SymmetricHashJoin join("j", 0, 0);
    Source l("l");
    Source r("r");
    CollectorSink sink("k");
    l.ConnectTo(0, &join, 0);
    r.ConnectTo(0, &join, 1);
    join.ConnectTo(0, &sink, 0);
    for (size_t i = 0; i < n; ++i) {
      l.Inject(left[i]);
      r.Inject(right[i]);
    }
    l.Close();
    r.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 2 * n));
}
BENCHMARK(BM_SymmetricHashJoin)->Arg(2000);

void BM_NestedLoopsJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto left = KeyedWindowed(n, 64, 50, 1);
  const auto right = KeyedWindowed(n, 64, 50, 2);
  for (auto _ : state) {
    NestedLoopsJoin join("j", [](const Tuple& a, const Tuple& b) {
      return a.field(0) == b.field(0);
    });
    Source l("l");
    Source r("r");
    CollectorSink sink("k");
    l.ConnectTo(0, &join, 0);
    r.ConnectTo(0, &join, 1);
    join.ConnectTo(0, &sink, 0);
    for (size_t i = 0; i < n; ++i) {
      l.Inject(left[i]);
      r.Inject(right[i]);
    }
    l.Close();
    r.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 2 * n));
}
BENCHMARK(BM_NestedLoopsJoin)->Arg(1000);

/// Vectorized twin of BM_SymmetricHashJoin: the identical workload injected
/// as TupleBatches of kDefaultRows. The probe loop reads the key column
/// array directly and the per-element Push bookkeeping (virtual dispatch,
/// ordering check, metrics clock pair, watermark cascade, ordered-buffer
/// flush) is amortized over the batch. The CI perf gate
/// (BENCH_hotpath.json, tools/check_perf.py) holds the batched/scalar
/// throughput ratio at >= 4x.
void BM_SymmetricHashJoinBatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto left = KeyedWindowed(n, 64, 100, 1);
  const auto right = KeyedWindowed(n, 64, 100, 2);
  auto lchunks = Chunks(left, TupleBatch::kDefaultRows);
  auto rchunks = Chunks(right, TupleBatch::kDefaultRows);
  for (auto _ : state) {
    SymmetricHashJoin join("j", 0, 0);
    Source l("l");
    Source r("r");
    CollectorSink sink("k");
    l.ConnectTo(0, &join, 0);
    r.ConnectTo(0, &join, 1);
    join.ConnectTo(0, &sink, 0);
    for (size_t i = 0; i < lchunks.size(); ++i) {
      l.InjectBatch(lchunks[i]);
      r.InjectBatch(rchunks[i]);
    }
    l.Close();
    r.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 2 * n));
}
BENCHMARK(BM_SymmetricHashJoinBatched)->Arg(2000);

/// Probe-side throughput pair: high key cardinality makes matches rare, so
/// the measurement isolates what batching amortizes — per-push bookkeeping,
/// hash probes and state insertion — from the (identical in both paths)
/// per-result join output machinery. CountingSink keeps result-stream
/// materialization out of the measurement. The CI perf gate
/// (BENCH_hotpath.json, tools/check_perf.py) holds batched/scalar >= 1x:
/// with expiry through the ExpiryIndex both paths do the same state work,
/// and batching saves only the per-push bookkeeping.
void BM_JoinProbeScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto left = KeyedWindowed(n, static_cast<int64_t>(n) * 50, 100, 1);
  const auto right = KeyedWindowed(n, static_cast<int64_t>(n) * 50, 100, 2);
  for (auto _ : state) {
    SymmetricHashJoin join("j", 0, 0);
    Source l("l");
    Source r("r");
    CountingSink sink("k");
    l.ConnectTo(0, &join, 0);
    r.ConnectTo(0, &join, 1);
    join.ConnectTo(0, &sink, 0);
    for (size_t i = 0; i < n; ++i) {
      l.Inject(left[i]);
      r.Inject(right[i]);
    }
    l.Close();
    r.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 2 * n));
}
BENCHMARK(BM_JoinProbeScalar)->Arg(2000);

void BM_JoinProbeBatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto left = KeyedWindowed(n, static_cast<int64_t>(n) * 50, 100, 1);
  const auto right = KeyedWindowed(n, static_cast<int64_t>(n) * 50, 100, 2);
  auto lchunks = Chunks(left, TupleBatch::kDefaultRows);
  auto rchunks = Chunks(right, TupleBatch::kDefaultRows);
  for (auto _ : state) {
    SymmetricHashJoin join("j", 0, 0);
    Source l("l");
    Source r("r");
    CountingSink sink("k");
    l.ConnectTo(0, &join, 0);
    r.ConnectTo(0, &join, 1);
    join.ConnectTo(0, &sink, 0);
    for (size_t i = 0; i < lchunks.size(); ++i) {
      l.InjectBatch(lchunks[i]);
      r.InjectBatch(rchunks[i]);
    }
    l.Close();
    r.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 2 * n));
}
BENCHMARK(BM_JoinProbeBatched)->Arg(2000);

// Two-column (key, payload) raw stream: the chain's projection permutes
// the columns, so the workload needs arity 2.
MaterializedStream ChainInput(size_t n) {
  MaterializedStream out;
  int64_t i = 0;
  for (const TimedTuple& tt : GenerateKeyedStream(n, 1, 64, 9)) {
    out.emplace_back(
        Tuple::OfInts({tt.tuple.field(0).AsInt64(), 100 + (i++ % 7)}),
        TimeInterval(Timestamp(tt.t), Timestamp(tt.t + 1)));
  }
  return out;
}

bool ChainPredicate(const Tuple& t) { return t.field(0).AsInt64() % 4 != 0; }

void ChainBatchPredicate(const TupleBatch& b, std::vector<uint8_t>* keep) {
  keep->resize(b.size());
  const std::vector<Value>& col = b.column(0);
  for (size_t i = 0; i < b.size(); ++i) {
    (*keep)[i] = col[i].AsInt64() % 4 != 0 ? 1 : 0;
  }
}

/// Scalar baseline of the stateless chain: three operators (selection ->
/// projection -> time window, each a one-stage StatelessChain), one element
/// at a time.
void BM_StatelessChainScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto input = ChainInput(n);
  for (auto _ : state) {
    StatelessChain f("f", StatelessChain::Select(ChainPredicate));
    StatelessChain m("m", StatelessChain::Project({1, 0}));
    StatelessChain w("w", StatelessChain::Window(50));
    Source src("s");
    CountingSink sink("k");
    src.ConnectTo(0, &f, 0);
    f.ConnectTo(0, &m, 0);
    m.ConnectTo(0, &w, 0);
    w.ConnectTo(0, &sink, 0);
    for (const StreamElement& e : input) src.Inject(e);
    src.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_StatelessChainScalar)->Arg(20000);

/// The same chain as one three-stage StatelessChain with a columnar
/// predicate, fed TupleBatches: one loop with a branch-free selection
/// bitmap, whole-column projection and a summed window extension. The CI
/// perf gate holds fused-batched/scalar at >= 3x.
void BM_StatelessChainFusedBatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto input = ChainInput(n);
  auto chunks = Chunks(input, TupleBatch::kDefaultRows);
  for (auto _ : state) {
    StatelessChain fu("fu", {
        StatelessChain::Select(ChainPredicate, ChainBatchPredicate),
        StatelessChain::Project({1, 0}),
        StatelessChain::Window(50),
    });
    Source src("s");
    CountingSink sink("k");
    src.ConnectTo(0, &fu, 0);
    fu.ConnectTo(0, &sink, 0);
    for (TupleBatch& b : chunks) src.InjectBatch(b);
    src.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_StatelessChainFusedBatched)->Arg(20000);

// --- Expr-predicate fused chain ---------------------------------------------

/// The stateless-chain workload as a logical plan, with the predicate
/// restricted to what Expr can express (no % operator): keeps keys >= 16
/// (48/64) and payloads != 102 (6/7), ~64% combined selectivity over
/// ChainInput. The compiler makes Window(50) the chain's first stage.
LogicalPtr ExprChainPlan() {
  using namespace logical;  // NOLINT
  auto src = SourceNode("S", Schema::OfInts({"k", "p"}));
  auto pred = Expr::And(
      Expr::Compare(Expr::CmpOp::kGe, Expr::Column(0),
                    Expr::Const(Value(int64_t{16}))),
      Expr::Compare(Expr::CmpOp::kNe, Expr::Column(1),
                    Expr::Const(Value(int64_t{102}))));
  return Project(Select(Window(src, 50), pred), {1, 0});
}

/// The plan compiler's path for the same chain: Expr predicates evaluated
/// column-wise, one StatelessChain, batched through the box.
void BM_StatelessChainExprFusedBatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto input = ChainInput(n);
  auto chunks = Chunks(input, TupleBatch::kDefaultRows);
  const LogicalPtr plan = ExprChainPlan();
  for (auto _ : state) {
    Box box = CompilePlan(*plan);
    Source src("s");
    CountingSink sink("k");
    src.ConnectTo(0, box.input(0), 0);
    box.output()->ConnectTo(0, &sink, 0);
    for (TupleBatch& b : chunks) src.InjectBatch(b);
    src.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_StatelessChainExprFusedBatched)->Arg(20000);

void BM_DuplicateElimination(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto input = KeyedWindowed(n, 16, 200, 3);
  for (auto _ : state) {
    DuplicateElimination dedup("d");
    Source src("s");
    CollectorSink sink("k");
    src.ConnectTo(0, &dedup, 0);
    dedup.ConnectTo(0, &sink, 0);
    for (const StreamElement& e : input) src.Inject(e);
    src.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_DuplicateElimination)->Arg(10000);

void BM_Aggregate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto input = KeyedWindowed(n, 16, 50, 4);
  for (auto _ : state) {
    AggregateOp agg("a", {0}, {{AggKind::kCount, 0}});
    Source src("s");
    CollectorSink sink("k");
    src.ConnectTo(0, &agg, 0);
    agg.ConnectTo(0, &sink, 0);
    for (const StreamElement& e : input) src.Inject(e);
    src.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Aggregate)->Arg(5000);

void BM_Split(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto input = KeyedWindowed(n, 16, 100, 5);
  const Timestamp t_split(static_cast<int64_t>(n) / 2, 1);
  for (auto _ : state) {
    Split split("s", t_split, Split::Mode::kClip);
    Source src("src");
    CollectorSink old_sink("o");
    CollectorSink new_sink("n");
    src.ConnectTo(0, &split, 0);
    split.ConnectTo(Split::kOldPort, &old_sink, 0);
    split.ConnectTo(Split::kNewPort, &new_sink, 0);
    for (const StreamElement& e : input) src.Inject(e);
    src.Close();
    benchmark::DoNotOptimize(old_sink.count() + new_sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Split)->Arg(20000);

/// Coalesce vs reference-point merge on identical split outputs — the CPU
/// saving Optimization 1 claims.
template <typename MergeOp>
void RunMergeBench(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int64_t split_at = static_cast<int64_t>(n) / 2;
  const Timestamp t_split(split_at, 1);
  MaterializedStream old_side;
  MaterializedStream new_side;
  for (const StreamElement& e : KeyedWindowed(n, 16, 60, 6)) {
    if (e.interval.start < t_split) {
      StreamElement o = e;
      if (t_split < o.interval.end) {
        // Mimic Split: old part clipped (Coalesce) — for RefPointMerge the
        // full interval is equally fine since start < T_split.
        if (std::is_same_v<MergeOp, Coalesce>) o.interval.end = t_split;
        StreamElement ne = e;
        ne.interval.start = t_split;
        new_side.push_back(ne);
      }
      old_side.push_back(o);
    } else {
      new_side.push_back(e);
    }
  }
  for (auto _ : state) {
    MergeOp merge("m", t_split);
    Source o("o");
    Source nw("n");
    CollectorSink sink("k");
    o.ConnectTo(0, &merge, 0);
    nw.ConnectTo(0, &merge, 1);
    merge.ConnectTo(0, &sink, 0);
    size_t i = 0;
    size_t j = 0;
    while (i < old_side.size() || j < new_side.size()) {
      const bool take_old =
          j >= new_side.size() ||
          (i < old_side.size() &&
           old_side[i].interval.start <= new_side[j].interval.start);
      if (take_old) {
        o.Inject(old_side[i++]);
      } else {
        nw.Inject(new_side[j++]);
      }
    }
    o.Close();
    nw.Close();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * (old_side.size() + new_side.size())));
}

void BM_Coalesce(benchmark::State& state) { RunMergeBench<Coalesce>(state); }
void BM_RefPointMerge(benchmark::State& state) {
  RunMergeBench<RefPointMerge>(state);
}
BENCHMARK(BM_Coalesce)->Arg(20000);
BENCHMARK(BM_RefPointMerge)->Arg(20000);

}  // namespace
}  // namespace genmig

// BENCHMARK_MAIN with build provenance: the toolchain block lands in the
// "context" object of --benchmark_out JSON (BENCH_nightly.json), so hotpath
// numbers are traceable to the compiler and flags that produced them.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("toolchain_compiler_id",
                              genmig::bench::ToolchainCompilerId());
  benchmark::AddCustomContext("toolchain_compiler_version",
                              genmig::bench::ToolchainCompilerVersion());
  benchmark::AddCustomContext("toolchain_cxx_flags",
                              genmig::bench::ToolchainFlags());
  benchmark::AddCustomContext("toolchain_build_type",
                              genmig::bench::ToolchainBuildType());
  benchmark::AddCustomContext(
      "toolchain_no_metrics",
      genmig::bench::ToolchainNoMetrics() ? "true" : "false");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
