// End-to-end tests of the shard-parallel executor: byte-identical output vs
// the single-threaded reference oracle across shard counts, with and without
// a coordinated mid-stream GenMig.
//
// Raw merged streams are compared for run-to-run determinism; cross-shard-
// count and vs-oracle comparisons go through ref::SnapshotNormalForm, the
// canonical representation under snapshot equivalence (GenMig's coalesce may
// fragment validity intervals differently per shard count — Theorem 1 only
// promises equal snapshots).

#include "par/coordinator.h"

#include <gtest/gtest.h>

#include <random>

#include "../test_util.h"
#include "ref/checker.h"
#include "ref/eval.h"
#include "stream/disorder.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.
using testutil::El;

Schema OneCol() { return Schema::OfInts({"x"}); }

par::InputMap RandomFeeds(uint64_t seed, int n, int64_t keys,
                          std::vector<std::string> names) {
  std::mt19937_64 rng(seed);
  par::InputMap inputs;
  std::vector<int64_t> t(names.size(), 0);
  for (int i = 0; i < n; ++i) {
    for (size_t s = 0; s < names.size(); ++s) {
      t[s] += static_cast<int64_t>(rng() % 5);
      inputs[names[s]].push_back(
          El(static_cast<int64_t>(rng() % keys), t[s], t[s] + 1));
    }
  }
  return inputs;
}

MaterializedStream RunSharded(
    const LogicalPtr& plan, const par::InputMap& inputs, int shards,
    size_t batch_size = par::Coordinator::Options().batch_size) {
  par::Coordinator::Options options;
  options.shards = shards;
  options.queue_capacity = 64;  // Small: exercises backpressure.
  options.batch_size = batch_size;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  const Status s = coordinator.Run(inputs);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return sink.collected();
}

void ExpectMatchesOracleAcrossShardCounts(const LogicalPtr& plan,
                                          const par::InputMap& inputs) {
  const MaterializedStream oracle =
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*plan, inputs));
  for (int shards : {1, 2, 4}) {
    const MaterializedStream out = RunSharded(plan, inputs, shards);
    EXPECT_TRUE(IsOrderedByStart(out)) << "shards=" << shards;
    EXPECT_EQ(ref::SnapshotNormalForm(out), oracle) << "shards=" << shards;
    // Determinism: an identical run produces the identical byte sequence.
    EXPECT_EQ(RunSharded(plan, inputs, shards), out) << "shards=" << shards;
  }
}

TEST(CoordinatorTest, EquiJoinMatchesOracleAcrossShardCounts) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 20),
                       Window(SourceNode("B", OneCol()), 20), 0, 0);
  ExpectMatchesOracleAcrossShardCounts(plan,
                                       RandomFeeds(11, 60, 4, {"A", "B"}));
}

TEST(CoordinatorTest, DedupOverJoinMatchesOracleAcrossShardCounts) {
  auto plan = Dedup(EquiJoin(Window(SourceNode("A", OneCol()), 15),
                             Window(SourceNode("B", OneCol()), 15), 0, 0));
  ExpectMatchesOracleAcrossShardCounts(plan,
                                       RandomFeeds(12, 50, 3, {"A", "B"}));
}

TEST(CoordinatorTest, SelectOverWindowMatchesOracleAcrossShardCounts) {
  auto plan = Select(Window(SourceNode("A", OneCol()), 10),
                     Expr::Compare(Expr::CmpOp::kGt, Expr::Column(0),
                                   Expr::Const(Value(int64_t{1}))));
  ExpectMatchesOracleAcrossShardCounts(plan, RandomFeeds(13, 80, 5, {"A"}));
}

TEST(CoordinatorTest, HeartbeatThinningDoesNotChangeOutput) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 20),
                       Window(SourceNode("B", OneCol()), 20), 0, 0);
  const par::InputMap inputs = RandomFeeds(14, 60, 4, {"A", "B"});
  // The batch size is the heartbeat thinning period: one-row batches send
  // a heartbeat per suppressed row, eight-row batches one per eight.
  EXPECT_EQ(RunSharded(plan, inputs, 4, /*batch_size=*/1),
            RunSharded(plan, inputs, 4, /*batch_size=*/8));
}

TEST(CoordinatorTest, RouterShipsRowsInBatches) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  // Lockstep streams: every instant carries one A row and one B row.
  std::mt19937_64 rng(21);
  par::InputMap inputs;
  for (int64_t t = 0; t < 4000; ++t) {
    for (const char* name : {"A", "B"}) {
      inputs[name].push_back(El(static_cast<int64_t>(rng() % 50), t, t + 1));
    }
  }
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 100),
                       Window(SourceNode("B", OneCol()), 100), 0, 0);
  obs::MetricsRegistry registry;
  par::Coordinator::Options options;  // Default batch size.
  options.shards = 2;
  options.registry = &registry;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  const Status s = coordinator.Run(std::move(inputs));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(sink.count(), 0u);
  // A shard pushes each router message into its window chain whole, so the
  // chain's rows per batch reads the router's batch factor.
  for (const char* name : {"s0/w0_A", "s0/w1_B", "s1/w0_A", "s1/w1_B"}) {
    const obs::OperatorMetrics* m = registry.FindByName(name);
    ASSERT_NE(m, nullptr) << name;
    ASSERT_GT(m->batches_in, 0u) << name;
    EXPECT_GE(m->elements_in / m->batches_in, 64u)
        << name << ": " << m->elements_in << " rows in " << m->batches_in
        << " batches";
  }
}

TEST(CoordinatorTest, RouterShipsQuietPortsWithinAnAgeLimit) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  // B carries a row every instant, A one every 40: A's accumulators hold
  // about 100 rows per shard over the whole run and never fill a batch.
  std::mt19937_64 rng(22);
  par::InputMap inputs;
  for (int64_t t = 0; t < 8000; ++t) {
    if (t % 40 == 0) {
      inputs["A"].push_back(El(static_cast<int64_t>(rng() % 50), t, t + 1));
    }
    inputs["B"].push_back(El(static_cast<int64_t>(rng() % 50), t, t + 1));
  }
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 100),
                       Window(SourceNode("B", OneCol()), 100), 0, 0);
  obs::MetricsRegistry registry;
  par::Coordinator::Options options;  // Default batch size.
  options.shards = 2;
  options.registry = &registry;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  const Status s = coordinator.Run(std::move(inputs));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(sink.count(), 0u);
  // 8200 routed rows are 8 periods of batch_size * ports * shards = 1024
  // rows; A's rows reach every shard within a period instead of at the
  // end of input.
  for (const char* name : {"s0/w0_A", "s1/w0_A"}) {
    const obs::OperatorMetrics* m = registry.FindByName(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_GE(m->batches_in, 6u) << name;
  }
  // The age limit cuts only the quiet port's batches short.
  for (const char* name : {"s0/w1_B", "s1/w1_B"}) {
    const obs::OperatorMetrics* m = registry.FindByName(name);
    ASSERT_NE(m, nullptr) << name;
    ASSERT_GT(m->batches_in, 0u) << name;
    EXPECT_GE(m->elements_in / m->batches_in, 128u)
        << name << ": " << m->elements_in << " rows in " << m->batches_in
        << " batches";
  }
}

TEST(CoordinatorTest, CoordinatedMigrationMatchesOracleAcrossShardCounts) {
  // Migrate a 3-way join to its re-associated equivalent mid-stream. Both
  // shapes produce the same bag, so the post-migration output must still
  // match the (migration-free) oracle.
  auto wa = Window(SourceNode("A", OneCol()), 12);
  auto wb = Window(SourceNode("B", OneCol()), 12);
  auto wc = Window(SourceNode("C", OneCol()), 12);
  auto old_plan = EquiJoin(EquiJoin(wa, wb, 0, 0), wc, 0, 0);
  auto new_plan = EquiJoin(wa, EquiJoin(wb, wc, 0, 0), 0, 0);
  const par::InputMap inputs = RandomFeeds(15, 50, 3, {"A", "B", "C"});
  const MaterializedStream oracle =
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*old_plan, inputs));
  const Timestamp at(40);

  for (int shards : {1, 2, 4}) {
    par::Coordinator::Options options;
    options.shards = shards;
    options.queue_capacity = 64;
    CollectorSink sink("sink");
    par::Coordinator coordinator(old_plan, &sink, options);
    ASSERT_TRUE(coordinator.ScheduleGenMig(new_plan, at).ok());
    ASSERT_TRUE(coordinator.Run(inputs).ok());
    coordinator.Wait();
    const MaterializedStream& out = sink.collected();
    EXPECT_EQ(coordinator.migrations_completed(), 1) << "shards=" << shards;
    EXPECT_GE(coordinator.t_split(), at) << "shards=" << shards;
    EXPECT_TRUE(IsOrderedByStart(out)) << "shards=" << shards;
    EXPECT_EQ(ref::SnapshotNormalForm(out), oracle) << "shards=" << shards;
  }
}

TEST(CoordinatorTest, EveryShardSplitsAtTheBroadcastInstant) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 10),
                       Window(SourceNode("B", OneCol()), 10), 0, 0);
  const par::InputMap inputs = RandomFeeds(16, 40, 4, {"A", "B"});
  par::Coordinator::Options options;
  options.shards = 4;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  ASSERT_TRUE(coordinator.ScheduleGenMig(plan, Timestamp(20)).ok());
  ASSERT_TRUE(coordinator.Run(inputs).ok());
  ASSERT_EQ(coordinator.migrations_completed(), 1);
  // The broadcast split is the split every replica actually used.
  EXPECT_GT(coordinator.t_split(), Timestamp(20));
}

TEST(CoordinatorTest, MigrationScheduledPastEndOfDataStillCompletes) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 10),
                       Window(SourceNode("B", OneCol()), 10), 0, 0);
  const par::InputMap inputs = RandomFeeds(17, 20, 3, {"A", "B"});
  const MaterializedStream oracle =
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*plan, inputs));
  par::Coordinator::Options options;
  options.shards = 2;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  ASSERT_TRUE(
      coordinator.ScheduleGenMig(plan, Timestamp(1'000'000)).ok());
  ASSERT_TRUE(coordinator.Run(inputs).ok());
  const MaterializedStream& out = sink.collected();
  EXPECT_EQ(coordinator.migrations_completed(), 1);
  EXPECT_EQ(ref::SnapshotNormalForm(out), oracle);
}

TEST(CoordinatorTest, NonPartitionablePlanFailsToStart) {
  auto plan = Union(Window(SourceNode("A", OneCol()), 10),
                    Window(SourceNode("B", OneCol()), 10));
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, {});
  EXPECT_FALSE(coordinator.spec().ok);
  const Status s = coordinator.Run(RandomFeeds(18, 5, 2, {"A", "B"}));
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition);
}

TEST(CoordinatorTest, MissingInputStreamIsNotFound) {
  auto plan = Window(SourceNode("A", OneCol()), 10);
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, {});
  const Status s = coordinator.Run(RandomFeeds(19, 5, 2, {"B"}));
  EXPECT_EQ(s.code(), Status::Code::kNotFound);
}

TEST(CoordinatorTest, ScheduleGenMigRejectsDifferentPartitioning) {
  Schema two = Schema::OfInts({"x", "y"});
  auto old_plan = EquiJoin(Window(SourceNode("A", two), 10),
                           Window(SourceNode("B", OneCol()), 10), 0, 0);
  // Joining on A's other column re-partitions A — in-flight state cannot be
  // re-routed, so this must be rejected up front.
  auto new_plan = EquiJoin(Window(SourceNode("A", two), 10),
                           Window(SourceNode("B", OneCol()), 10), 1, 0);
  CollectorSink sink("sink");
  par::Coordinator coordinator(old_plan, &sink, {});
  const Status s = coordinator.ScheduleGenMig(new_plan, Timestamp(5));
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(CoordinatorTest, MetricsAndTraceLanesArePopulated) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 10),
                       Window(SourceNode("B", OneCol()), 10), 0, 0);
  const par::InputMap inputs = RandomFeeds(20, 30, 3, {"A", "B"});
  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  obs::MigrationTracer tracer(&journal);
  par::Coordinator::Options options;
  options.shards = 2;
  options.registry = &registry;
  options.tracer = &tracer;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  ASSERT_TRUE(coordinator.ScheduleGenMig(plan, Timestamp(15)).ok());
  ASSERT_TRUE(coordinator.Run(inputs).ok());
#ifndef GENMIG_NO_METRICS
  // Per-shard prefixed operator slots plus the merge slot exist.
  EXPECT_NE(registry.FindByName("s0/ctrl"), nullptr);
  EXPECT_NE(registry.FindByName("s1/ctrl"), nullptr);
  EXPECT_NE(registry.FindByName("par/merge"), nullptr);
  // Both shards ran one migration, each on its own trace lane.
  ASSERT_EQ(tracer.migration_count(), 2);
  EXPECT_NE(tracer.LaneOf(0), tracer.LaneOf(1));
#endif
}

// --- Disordered streams, reordered before routing ----------------------------
//
// Run() feeds the coordinator through an executor of ordered feeds, so a
// disordered stream is reordered first (Reorder: the same DisorderBuffer
// decisions a Dsms executor's disordered feed makes).

// The split a broadcast at `at` must force: the router fires once it routed
// the first start >= `at`, i.e. the smallest such start over all streams.
// Routing walks the streams in global temporal order, so that start is both
// max_routed and the smallest start any stream can still deliver (the
// disorder horizon), and T_split clears it by w + 1.
Timestamp ExpectedSplit(const par::InputMap& inputs, Timestamp at,
                        Duration window) {
  Timestamp first = Timestamp::MaxInstant();
  for (const auto& [name, stream] : inputs) {
    for (const StreamElement& e : stream) {
      if (at <= e.interval.start && e.interval.start < first) {
        first = e.interval.start;
      }
    }
  }
  return Timestamp(first.t + window + 1, 1);
}

TEST(DisorderCoordinatorTest, ForcedTSplitNeverBelowDisorderHorizon) {
  // Sharded GenMig over reordered disordered inputs: the broadcast must pick
  // a T_split above the disorder horizon plus the window (late elements
  // still unrouted at broadcast time belong to the old plan's side), and the
  // output must stay snapshot-equivalent to the in-order, migration-free
  // oracle.
  const Schema one = OneCol();
  auto wa = Window(SourceNode("A", one), 12);
  auto wb = Window(SourceNode("B", one), 12);
  auto old_plan = EquiJoin(wa, wb, 0, 0);
  auto new_plan = EquiJoin(wb, wa, 0, 0);

  std::mt19937_64 rng(91);
  par::InputMap ordered;
  int64_t ta = 0;
  int64_t tb = 0;
  for (int i = 0; i < 120; ++i) {
    ta += static_cast<int64_t>(rng() % 4);
    tb += static_cast<int64_t>(rng() % 4);
    ordered["A"].push_back(El(static_cast<int64_t>(rng() % 4), ta, ta + 1));
    ordered["B"].push_back(El(static_cast<int64_t>(rng() % 4), tb, tb + 1));
  }
  const MaterializedStream oracle = ref::SnapshotNormalForm(
      ref::EvalPlanToStream(*old_plan, ordered));

  par::InputMap reordered;
  for (const auto& [name, stream] : ordered) {
    const DisorderedArrivals d =
        ApplyBoundedShuffle(stream, 15, name == "A" ? 92 : 93);
    DisorderBuffer::Options opt;
    opt.delta = d.max_lateness;  // Lossless: exact-oracle comparison below.
    reordered[name] = Reorder(d.arrivals, opt);
    EXPECT_EQ(reordered[name].size(), stream.size()) << "drops in " << name;
  }
  const Timestamp at(60);

  for (int shards : {1, 2, 4}) {
    par::Coordinator::Options options;
    options.shards = shards;
    options.queue_capacity = 64;
    CollectorSink sink("sink");
    par::Coordinator coordinator(old_plan, &sink, options);
    ASSERT_TRUE(coordinator.spec().ok) << coordinator.spec().reason;
    ASSERT_TRUE(coordinator.ScheduleGenMig(new_plan, at).ok());
    const Status ran = coordinator.Run(reordered);
    ASSERT_TRUE(ran.ok()) << ran.ToString();
    EXPECT_EQ(coordinator.migrations_completed(), 1) << "shards=" << shards;
    EXPECT_EQ(coordinator.t_split(), ExpectedSplit(reordered, at, 12))
        << "shards=" << shards;
    EXPECT_EQ(ref::SnapshotNormalForm(sink.collected()), oracle)
        << "shards=" << shards;
  }
}

TEST(DisorderCoordinatorTest, OrderedInputsKeepLegacyBroadcastBehavior) {
  // The broadcast forces T_split = max_routed + w + 1 at the first routed
  // start at or past the scheduled instant.
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 10),
                       Window(SourceNode("B", OneCol()), 10), 0, 0);
  std::mt19937_64 rng(95);
  par::InputMap inputs;
  int64_t t = 0;
  for (int i = 0; i < 80; ++i) {
    t += static_cast<int64_t>(rng() % 3);
    inputs["A"].push_back(El(static_cast<int64_t>(rng() % 3), t, t + 1));
    inputs["B"].push_back(El(static_cast<int64_t>(rng() % 3), t, t + 1));
  }
  par::Coordinator::Options options;
  options.shards = 2;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  ASSERT_TRUE(coordinator.ScheduleGenMig(plan, Timestamp(40)).ok());
  const Status ran = coordinator.Run(inputs);
  ASSERT_TRUE(ran.ok()) << ran.ToString();
  EXPECT_EQ(coordinator.migrations_completed(), 1);
  EXPECT_EQ(coordinator.t_split(), ExpectedSplit(inputs, Timestamp(40), 10));
}

}  // namespace
}  // namespace genmig
