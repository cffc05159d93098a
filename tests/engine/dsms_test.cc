#include "engine/dsms.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <fstream>
#include <random>
#include <string>

#include "../test_util.h"
#include "ref/checker.h"
#include "ref/eval.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using testutil::El;

/// A stream whose key cardinality collapses at `drift`.
MaterializedStream Drifting(size_t count, int64_t period, int64_t before,
                            int64_t after, int64_t drift, uint64_t seed) {
  MaterializedStream out;
  std::mt19937_64 rng(seed);
  int64_t t = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t keys = t < drift ? before : after;
    out.push_back(El(static_cast<int64_t>(
                         rng() % static_cast<uint64_t>(keys)),
                     t, t + 1));
    t += period;
  }
  return out;
}

TEST(DsmsTest, InstallRunAndCollect) {
  Dsms dsms;
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(100, 5, 4, 1)));
  auto id = dsms.InstallQuery("SELECT DISTINCT x FROM S [RANGE 50]");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();
  EXPECT_GT(dsms.Results(id.value()).size(), 0u);
  EXPECT_TRUE(ref::CheckNoDuplicateSnapshots(dsms.Results(id.value())).ok());
}

TEST(DsmsTest, UnknownStreamRejected) {
  Dsms dsms;
  EXPECT_FALSE(dsms.InstallQuery("SELECT * FROM Nope [RANGE 5]").ok());
}

TEST(DsmsTest, MultipleQueriesShareAStream) {
  Dsms dsms;
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(200, 5, 4, 2)));
  auto q1 = dsms.InstallQuery("SELECT * FROM S [RANGE 40]");
  auto q2 = dsms.InstallQuery(
      "SELECT x, COUNT(*) FROM S [RANGE 40] GROUP BY x");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  dsms.RunToCompletion();
  EXPECT_EQ(dsms.Results(q1.value()).size(), 200u);  // Pass-through.
  EXPECT_GT(dsms.Results(q2.value()).size(), 0u);
}

TEST(DsmsTest, QueryInstalledMidStreamSeesOnlyTheFuture) {
  Dsms dsms;
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(100, 10, 4, 3)));
  auto q1 = dsms.InstallQuery("SELECT * FROM S [RANGE 10]");
  ASSERT_TRUE(q1.ok());
  dsms.RunUntil(Timestamp(500));
  auto q2 = dsms.InstallQuery("SELECT * FROM S [RANGE 10]");
  ASSERT_TRUE(q2.ok());
  dsms.RunToCompletion();
  EXPECT_EQ(dsms.Results(q1.value()).size(), 100u);
  EXPECT_EQ(dsms.Results(q2.value()).size(), 50u);  // Installed at t=500.

  // A sharded query installed at the same instant reads the same future:
  // its router is one more operator on the feed's source.
  Dsms::Options opt;
  opt.shards = 2;
  Dsms sharded(opt);
  sharded.RegisterStream("S", Schema::OfInts({"x"}),
                         ToPhysicalStream(GenerateKeyedStream(100, 10, 4, 3)));
  auto p1 = sharded.InstallQuery("SELECT * FROM S [RANGE 10]");
  ASSERT_TRUE(p1.ok());
  sharded.RunUntil(Timestamp(500));
  auto p2 = sharded.InstallQuery("SELECT * FROM S [RANGE 10]");
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(sharded.Info(p2.value()).parallel);
  sharded.RunToCompletion();
  EXPECT_EQ(ref::SnapshotNormalForm(sharded.Results(p1.value())),
            ref::SnapshotNormalForm(dsms.Results(q1.value())));
  EXPECT_EQ(ref::SnapshotNormalForm(sharded.Results(p2.value())),
            ref::SnapshotNormalForm(dsms.Results(q2.value())));
}

TEST(DsmsTest, StatsTapsFeedTheCatalog) {
  Dsms::Options options;
  options.stats_horizon = 1000;
  Dsms dsms(options);
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(500, 10, 7, 4)));
  auto id = dsms.InstallQuery("SELECT * FROM S [RANGE 100]");
  ASSERT_TRUE(id.ok());
  dsms.RunUntil(Timestamp(3000));
  const StatsCatalog stats = dsms.CurrentStats();
  ASSERT_TRUE(stats.Has("S"));
  EXPECT_NEAR(stats.Get("S").rate, 0.1, 0.02);          // 1 per 10 units.
  EXPECT_NEAR(stats.Get("S").DistinctOf(0), 7.0, 1.0);  // 7 keys.
}

TEST(DsmsTest, ReoptimizeNowMigratesAfterDrift) {
  Dsms::Options options;
  options.stats_horizon = 2000;
  Dsms dsms(options);
  const int64_t kDrift = 10000;
  dsms.RegisterStream("A", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 20, kDrift, 11));
  dsms.RegisterStream("B", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 20, kDrift, 12));
  dsms.RegisterStream("C", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 500, kDrift, 13));
  auto id = dsms.InstallQuery(
      "SELECT A.x, B.x, C.x FROM A [RANGE 2000], B [RANGE 2000], "
      "C [RANGE 2000] WHERE A.x = B.x AND B.x = C.x");
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Before the drift the plan is fine: no migration.
  dsms.RunUntil(Timestamp(8000));
  EXPECT_EQ(dsms.ReoptimizeNow(), 0);

  // After the drift A|x|B becomes the expensive pair.
  dsms.RunUntil(Timestamp(kDrift + 4000));
  EXPECT_EQ(dsms.ReoptimizeNow(), 1);
  EXPECT_TRUE(dsms.Info(id.value()).migration_in_progress);
  dsms.RunToCompletion();
  EXPECT_EQ(dsms.Info(id.value()).migrations_completed, 1);
  EXPECT_TRUE(IsOrderedByStart(dsms.Results(id.value())));
  EXPECT_GT(dsms.Results(id.value()).size(), 0u);
}

TEST(DsmsTest, ReoptimizeNowHonoursCostMargin) {
  // ReoptimizeNowMigratesAfterDrift's workload: after the drift the best
  // rewrite is cheaper, but not 11x cheaper, so a margin of 10 keeps the
  // running plan.
  Dsms::Options options;
  options.stats_horizon = 2000;
  options.cost_margin = 10;
  Dsms dsms(options);
  const int64_t kDrift = 10000;
  dsms.RegisterStream("A", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 20, kDrift, 11));
  dsms.RegisterStream("B", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 20, kDrift, 12));
  dsms.RegisterStream("C", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 500, kDrift, 13));
  auto id = dsms.InstallQuery(
      "SELECT A.x, B.x, C.x FROM A [RANGE 2000], B [RANGE 2000], "
      "C [RANGE 2000] WHERE A.x = B.x AND B.x = C.x");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunUntil(Timestamp(kDrift + 4000));
  EXPECT_EQ(dsms.ReoptimizeNow(), 0);
  EXPECT_FALSE(dsms.Info(id.value()).migration_in_progress);
}

TEST(DsmsTest, AutoReoptimizationTriggersByItself) {
  Dsms::Options options;
  options.stats_horizon = 2000;
  options.calibration_period = 1000;
  Dsms dsms(options);
  const int64_t kDrift = 10000;
  dsms.RegisterStream("A", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 20, kDrift, 21));
  dsms.RegisterStream("B", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 20, kDrift, 22));
  dsms.RegisterStream("C", Schema::OfInts({"x"}),
                      Drifting(4000, 10, 500, 500, kDrift, 23));
  auto id = dsms.InstallQuery(
      "SELECT A.x FROM A [RANGE 2000], B [RANGE 2000], C [RANGE 2000] "
      "WHERE A.x = B.x AND B.x = C.x");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();
  EXPECT_GE(dsms.Info(id.value()).migrations_completed, 1);
}

TEST(DsmsTest, SubquerySharingReusesWindowedSources) {
  Dsms dsms;
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(100, 5, 4, 41)));
  dsms.RegisterStream("T", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(100, 5, 4, 42)));
  // Same (stream, window) across queries: shared.
  ASSERT_TRUE(dsms.InstallQuery("SELECT * FROM S [RANGE 50]").ok());
  ASSERT_TRUE(dsms.InstallQuery("SELECT DISTINCT x FROM S [RANGE 50]").ok());
  EXPECT_EQ(dsms.shared_subplan_count(), 1u);
  // Different window on the same stream: a new subplan.
  ASSERT_TRUE(dsms.InstallQuery("SELECT * FROM S [RANGE 80]").ok());
  EXPECT_EQ(dsms.shared_subplan_count(), 2u);
  // Join re-using both existing subplans plus one new stream.
  ASSERT_TRUE(dsms.InstallQuery(
                      "SELECT S.x FROM S [RANGE 50], T [RANGE 50] "
                      "WHERE S.x = T.x")
                  .ok());
  EXPECT_EQ(dsms.shared_subplan_count(), 3u);
  dsms.RunToCompletion();
  for (int q = 0; q < 4; ++q) {
    EXPECT_GT(dsms.Results(q).size(), 0u) << "query " << q;
  }
}

TEST(DsmsTest, CountWindowQueryMigratesWithOpt2) {
  Dsms::Options options;
  options.stats_horizon = 500;
  Dsms dsms(options);
  dsms.RegisterStream("S0", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(600, 2, 3, 43)));
  dsms.RegisterStream("S1", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(600, 2, 3, 44)));
  auto id = dsms.InstallQuery(
      "SELECT DISTINCT S0.x FROM S0 [ROWS 100], S1 [ROWS 100] "
      "WHERE S0.x = S1.x");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunUntil(Timestamp(500));
  // Dedup pushdown pays off for 3 hot keys; count windows force Opt 2.
  EXPECT_EQ(dsms.ReoptimizeNow(), 1);
  dsms.RunToCompletion();
  EXPECT_EQ(dsms.Info(id.value()).migrations_completed, 1);
  EXPECT_TRUE(
      ref::CheckNoDuplicateSnapshots(dsms.Results(id.value())).ok());
}

TEST(DsmsTest, TimelineSamplingFillsRingAndStats) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  Dsms::Options options;
  options.timeline_period = 100;
  options.journal_capacity = 32;
  Dsms dsms(options);
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(2000, 2, 4, 51)));
  auto id = dsms.InstallQuery("SELECT * FROM S [RANGE 50]");
  ASSERT_TRUE(id.ok());
  dsms.RunToCompletion();

  // ~4000 time units at one sample per 100 units, ring capped at 32.
  const std::vector<obs::MetricSample> tl = dsms.timeline();
  EXPECT_EQ(tl.size(), 32u);
  EXPECT_GT(dsms.journal().total_appended(), 32u);
  for (size_t i = 1; i < tl.size(); ++i) {
    EXPECT_GE(tl.at(i).app_time.t, tl.at(i - 1).app_time.t);
    EXPECT_GE(tl.at(i).elements_out, tl.at(i - 1).elements_out);
  }
  EXPECT_GT(tl.back().elements_in, 0u);

  const Dsms::RuntimeStats stats = dsms.Stats();
  EXPECT_GT(stats.elements_in, 0u);
  EXPECT_GT(stats.elements_out, 0u);
  EXPECT_EQ(stats.timeline_samples, tl.size());
  EXPECT_EQ(stats.migrations, 0);
  // Sources stamp 1-in-64 injections; 2000 elements reach the sink, so the
  // run-wide e2e histogram saw stamped traffic.
  EXPECT_GT(stats.sink_latency_count, 0u);
  EXPECT_GT(stats.sink_p99_ns, 0.0);

  // The engine's trace export parses as a chrome trace envelope.
  const std::string trace = dsms.ExportChromeTraceJson();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"queue_depth\""), std::string::npos);
}

TEST(DsmsTest, TimelineDisabledByDefault) {
  Dsms dsms;
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(100, 5, 4, 52)));
  ASSERT_TRUE(dsms.InstallQuery("SELECT * FROM S [RANGE 50]").ok());
  dsms.RunToCompletion();
  EXPECT_TRUE(dsms.timeline().empty());
}

TEST(DsmsTest, InfoReportsCostAndState) {
  Dsms dsms;
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(300, 5, 4, 31)));
  auto id = dsms.InstallQuery("SELECT DISTINCT x FROM S [RANGE 200]");
  ASSERT_TRUE(id.ok());
  dsms.RunUntil(Timestamp(800));
  const Dsms::QueryInfo info = dsms.Info(id.value());
  EXPECT_GT(info.estimated_cost, 0.0);
  EXPECT_GT(info.state_bytes, 0u);
  EXPECT_EQ(info.migrations_completed, 0);
  EXPECT_NE(info.plan, nullptr);
}

// --- Sharded (parallel) execution -------------------------------------------

MaterializedStream KeyedFeed(uint64_t seed, size_t n, int64_t keys,
                             int64_t period) {
  std::mt19937_64 rng(seed);
  MaterializedStream out;
  int64_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<int64_t>(rng() % static_cast<uint64_t>(period));
    out.push_back(El(static_cast<int64_t>(rng() % static_cast<uint64_t>(keys)),
                     t, t + 1));
  }
  return out;
}

TEST(DsmsParallelTest, ShardedQueryMatchesSingleThreadedResults) {
  const MaterializedStream feed = KeyedFeed(1, 150, 4, 4);
  const std::string cql = "SELECT DISTINCT x FROM S [RANGE 50]";

  Dsms single;
  single.RegisterStream("S", Schema::OfInts({"x"}), feed);
  auto sid = single.InstallQuery(cql);
  ASSERT_TRUE(sid.ok());
  single.RunToCompletion();

  Dsms::Options opt;
  opt.shards = 4;
  Dsms sharded(opt);
  sharded.RegisterStream("S", Schema::OfInts({"x"}), feed);
  auto pid = sharded.InstallQuery(cql);
  ASSERT_TRUE(pid.ok());
  sharded.RunToCompletion();

  const Dsms::QueryInfo info = sharded.Info(pid.value());
  EXPECT_TRUE(info.parallel);
  EXPECT_EQ(info.shards, 4);
  EXPECT_FALSE(single.Info(sid.value()).parallel);
  // Snapshot-identical output (interval fragmentation may differ).
  EXPECT_EQ(ref::SnapshotNormalForm(sharded.Results(pid.value())),
            ref::SnapshotNormalForm(single.Results(sid.value())));
}

TEST(DsmsParallelTest, ShardedQueryBatchesWhateverTheExecutorBatchSize) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  // executor.batch_size governs only the single-threaded executor: at 0 the
  // shard router still ships its rows in batches.
  Dsms::Options opt;
  opt.shards = 2;
  opt.executor.batch_size = 0;
  Dsms dsms(opt);
  dsms.RegisterRawStream("A", Schema::OfInts({"k"}),
                         GenerateKeyedStream(4000, 1, 50, 8));
  dsms.RegisterRawStream("B", Schema::OfInts({"k"}),
                         GenerateKeyedStream(4000, 1, 50, 9));
  auto id = dsms.InstallQuery(
      "SELECT A.k FROM A [RANGE 100], B [RANGE 100] WHERE A.k = B.k");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(dsms.Info(id.value()).parallel);
  dsms.RunToCompletion();
  EXPECT_GT(dsms.Results(id.value()).size(), 0u);

  int windows = 0;
  for (const obs::OperatorMetrics& m : dsms.metrics().operators()) {
    // The shard replicas' window chains: "s<k>/w<port>_<stream>".
    if (m.name.size() < 4 || m.name[0] != 's' ||
        m.name.find("/w") == std::string::npos) {
      continue;
    }
    ++windows;
    ASSERT_GT(m.batches_in, 0u) << m.name;
    EXPECT_GE(m.elements_in / m.batches_in, 64u)
        << m.name << ": " << m.elements_in << " rows in " << m.batches_in
        << " batches";
  }
  EXPECT_EQ(windows, 4);
}

TEST(DsmsParallelTest, NonPartitionableQueryFallsBackToSingleThread) {
  Dsms::Options opt;
  opt.shards = 4;
  Dsms dsms(opt);
  dsms.RegisterStream("S", Schema::OfInts({"x"}), KeyedFeed(2, 100, 4, 4));
  // Grouped aggregation is not partitionable -> single-threaded engine.
  auto id = dsms.InstallQuery(
      "SELECT x, COUNT(*) FROM S [RANGE 40] GROUP BY x");
  ASSERT_TRUE(id.ok());
  dsms.RunToCompletion();
  EXPECT_FALSE(dsms.Info(id.value()).parallel);
  EXPECT_GT(dsms.Results(id.value()).size(), 0u);
}

TEST(DsmsParallelTest, ScheduleMigrationBroadcastsOneSplitToAllShards) {
  using namespace logical;  // NOLINT
  auto wa = Window(SourceNode("A", Schema::OfInts({"x"})), 30);
  auto wb = Window(SourceNode("B", Schema::OfInts({"y"})), 30);
  auto wc = Window(SourceNode("C", Schema::OfInts({"z"})), 30);
  auto old_plan = EquiJoin(EquiJoin(wa, wb, 0, 0), wc, 0, 0);
  auto new_plan = EquiJoin(wa, EquiJoin(wb, wc, 0, 0), 0, 0);

  Dsms::Options opt;
  opt.shards = 2;
  Dsms dsms(opt);
  par::InputMap inputs;
  for (const char* name : {"A", "B", "C"}) {
    inputs[name] = KeyedFeed(static_cast<uint64_t>(name[0]), 60, 3, 3);
    dsms.RegisterStream(name, Schema::OfInts({"k"}), inputs[name]);
  }
  auto id = dsms.InstallPlan(old_plan);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(dsms.Info(id.value()).parallel);
  ASSERT_TRUE(
      dsms.ScheduleMigration(id.value(), new_plan, Timestamp(60)).ok());
  dsms.RunToCompletion();
  EXPECT_EQ(dsms.Info(id.value()).migrations_completed, 1);
  // Still snapshot-equivalent to the migration-free oracle.
  EXPECT_EQ(
      ref::SnapshotNormalForm(dsms.Results(id.value())),
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*old_plan, inputs)));
}

TEST(DsmsParallelTest, DisorderedStreamIsCountedAndJournaledOnce) {
  // A sharded query reads the disordered stream from the engine's own
  // reordering stage, as with shards = 1: the stream's counters and
  // adaptation events are that stage's.
  const MaterializedStream ordered =
      ToPhysicalStream(GenerateKeyedStream(3000, 5, 7, 21));
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered, 30, 22);
  DisorderBuffer::Options disorder;
  disorder.delta = 200;
  disorder.adaptive = true;
  disorder.min_delta = 1;
  disorder.max_delta = 512;

  struct Run {
    Dsms::DisorderInfo info;
    size_t adapt_events = 0;
    MaterializedStream results;
  };
  auto run = [&](int shards) {
    Dsms::Options opt;
    opt.shards = shards;
    Dsms dsms(opt);
    dsms.RegisterDisorderedStream("T", Schema::OfInts({"x"}),
                                  shuffled.arrivals, disorder);
    auto id = dsms.InstallQuery("SELECT * FROM T [RANGE 50] WHERE T.x = T.x");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(dsms.Info(id.value()).parallel, shards > 1);
    dsms.RunToCompletion();
    Run r;
    r.info = dsms.DisorderStats("T");
    r.adapt_events =
        dsms.journal().SnapshotKind(obs::JournalEvent::Kind::kDisorderAdapt)
            .size();
    r.results = dsms.Results(id.value());
    return r;
  };
  const Run single = run(1);
  const Run sharded = run(2);
  ASSERT_GT(single.adapt_events, 0u);
  EXPECT_EQ(sharded.info.stats.arrived, shuffled.arrivals.size());
  EXPECT_EQ(sharded.info.stats.arrived, single.info.stats.arrived);
  EXPECT_EQ(sharded.info.stats.dropped_late, single.info.stats.dropped_late);
  EXPECT_EQ(sharded.info.stats.adaptations, single.info.stats.adaptations);
  EXPECT_EQ(sharded.adapt_events, single.adapt_events);
  // Both read the same stage's drops.
  EXPECT_EQ(ref::SnapshotNormalForm(sharded.results),
            ref::SnapshotNormalForm(single.results));
}

TEST(DsmsParallelTest, StepUntilFalseMatchesRunToCompletion) {
  // One step loop for every query: stepping a sharded engine until Step()
  // returns false, or running it until a time past its last row, finishes
  // its queries as RunToCompletion() does.
  auto setup = [](Dsms* dsms) {
    dsms->RegisterStream("A", Schema::OfInts({"x"}), KeyedFeed(51, 300, 4, 3));
    dsms->RegisterStream("B", Schema::OfInts({"x"}), KeyedFeed(52, 300, 4, 3));
    auto id = dsms->InstallQuery(
        "SELECT A.x, B.x FROM A [RANGE 20], B [RANGE 20] WHERE A.x = B.x");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(dsms->Info(id.value()).parallel);
    return id.ok() ? id.value() : 0;
  };
  Dsms::Options opt;
  opt.shards = 2;
  Dsms completed(opt);
  const Dsms::QueryId cid = setup(&completed);
  completed.RunToCompletion();
  ASSERT_GT(completed.Results(cid).size(), 0u);

  Dsms stepped(opt);
  const Dsms::QueryId sid = setup(&stepped);
  size_t steps = 0;
  while (stepped.Step()) ++steps;
  EXPECT_GE(steps, 600u);
  EXPECT_EQ(stepped.Results(sid), completed.Results(cid));
  EXPECT_EQ(stepped.Info(sid).result_count, completed.Results(cid).size());

  // RunUntil past the last row finishes the engine as well.
  Dsms until(opt);
  const Dsms::QueryId uid = setup(&until);
  until.RunUntil(Timestamp(500));
  until.RunUntil(Timestamp::MaxInstant());
  EXPECT_EQ(until.Results(uid), completed.Results(cid));
}

TEST(DsmsParallelTest, ScheduleMigrationAfterTheQueryFinishedIsRejected) {
  Dsms::Options opt;
  opt.shards = 2;
  Dsms dsms(opt);
  dsms.RegisterStream("S", Schema::OfInts({"x"}), KeyedFeed(53, 40, 3, 3));
  auto id = dsms.InstallQuery("SELECT * FROM S [RANGE 10]");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(dsms.Info(id.value()).parallel);
  dsms.RunToCompletion();
  using namespace logical;  // NOLINT
  const Status s = dsms.ScheduleMigration(
      id.value(), Window(SourceNode("S", Schema::OfInts({"x"})), 10),
      Timestamp(5));
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
}

TEST(DsmsParallelTest, ScheduleMigrationPastItsInstantFiresAtTheNextRow) {
  using namespace logical;  // NOLINT
  auto wa = Window(SourceNode("A", Schema::OfInts({"x"})), 30);
  auto wb = Window(SourceNode("B", Schema::OfInts({"y"})), 30);
  auto wc = Window(SourceNode("C", Schema::OfInts({"z"})), 30);
  auto old_plan = EquiJoin(EquiJoin(wa, wb, 0, 0), wc, 0, 0);
  auto new_plan = EquiJoin(wa, EquiJoin(wb, wc, 0, 0), 0, 0);

  Dsms::Options opt;
  opt.shards = 2;
  Dsms dsms(opt);
  par::InputMap inputs;
  for (const char* name : {"A", "B", "C"}) {
    inputs[name] = KeyedFeed(static_cast<uint64_t>(name[0]), 150, 3, 3);
    dsms.RegisterStream(name, Schema::OfInts({"k"}), inputs[name]);
  }
  auto id = dsms.InstallPlan(old_plan);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(dsms.Info(id.value()).parallel);
  dsms.RunUntil(Timestamp(100));
  ASSERT_GT(dsms.current_time(), Timestamp(60));
  // Routing passed 60 already: the broadcast goes out with the next row, at
  // or after 100, and splits past it.
  ASSERT_TRUE(
      dsms.ScheduleMigration(id.value(), new_plan, Timestamp(60)).ok());
  dsms.RunToCompletion();
  EXPECT_EQ(dsms.Info(id.value()).migrations_completed, 1);
  EXPECT_EQ(
      ref::SnapshotNormalForm(dsms.Results(id.value())),
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*old_plan, inputs)));
}

TEST(DsmsParallelTest, ScheduleMigrationOnSingleThreadedQueryIsRejected) {
  Dsms dsms;  // shards = 1.
  dsms.RegisterStream("S", Schema::OfInts({"x"}), KeyedFeed(3, 20, 3, 4));
  auto id = dsms.InstallQuery("SELECT * FROM S [RANGE 10]");
  ASSERT_TRUE(id.ok());
  using namespace logical;  // NOLINT
  const Status s = dsms.ScheduleMigration(
      id.value(), Window(SourceNode("S", Schema::OfInts({"x"})), 10),
      Timestamp(5));
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition);
}

/// The "results" value of the first query record in a /status document.
size_t StatusResults(const std::string& json) {
  const std::string key = "\"results\": ";
  const size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << json;
  return at == std::string::npos
             ? 0
             : std::stoul(json.substr(at + key.size()));
}

TEST(DsmsParallelTest, ResultsInfoAndStatusReadTheOneSink) {
  std::string dir = testing::TempDir() + "/genmig_dsms_sink_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  Dsms::Options opt;
  opt.shards = 2;
  opt.checkpoint_dir = dir;
  opt.checkpoint_period = 30;
  auto setup = [](Dsms* dsms) {
    dsms->RegisterStream("A", Schema::OfInts({"x"}), KeyedFeed(41, 120, 4, 3));
    dsms->RegisterStream("B", Schema::OfInts({"x"}), KeyedFeed(42, 120, 4, 3));
    auto id = dsms->InstallQuery(
        "SELECT A.x, B.x FROM A [RANGE 20], B [RANGE 20] WHERE A.x = B.x");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? id.value() : 0;
  };
  auto expect_one_count = [](Dsms& dsms, Dsms::QueryId id) {
    const size_t n = dsms.Results(id).size();
    EXPECT_EQ(dsms.Info(id).result_count, n);
    EXPECT_EQ(StatusResults(dsms.StatusJson()), n);
  };

  MaterializedStream uninterrupted;
  {
    Dsms dsms(opt);
    const Dsms::QueryId id = setup(&dsms);
    ASSERT_TRUE(dsms.Info(id).parallel);
    dsms.RunToCompletion();
    ASSERT_GT(dsms.Results(id).size(), 0u);
    expect_one_count(dsms, id);
    uninterrupted = dsms.Results(id);
  }
  Dsms restored(opt);
  const Dsms::QueryId id = setup(&restored);
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The restored sink already holds the cut's merged prefix.
  EXPECT_GT(restored.Results(id).size(), 0u);
  expect_one_count(restored, id);
  restored.RunToCompletion();
  expect_one_count(restored, id);
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(uninterrupted));
}

TEST(DsmsParallelTest, ShardedSinkRecordsTheEndToEndLatency) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  Dsms::Options opt;
  opt.shards = 2;
  Dsms dsms(opt);
  dsms.RegisterStream("S", Schema::OfInts({"x"}), KeyedFeed(43, 2000, 8, 3));
  auto id = dsms.InstallQuery("SELECT * FROM S [RANGE 50] WHERE S.x > 1");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(dsms.Info(id.value()).parallel);
  dsms.RunToCompletion();
  ASSERT_GT(dsms.Results(id.value()).size(), 0u);
  // The router stamps sampled rows; the query's sink times them, not the
  // merge.
  EXPECT_GT(dsms.Stats().sink_latency_count, 0u);
  const obs::OperatorMetrics* merge = dsms.metrics().FindByName("par/merge");
  ASSERT_NE(merge, nullptr);
  EXPECT_GT(merge->elements_out, 0u);
  EXPECT_EQ(merge->e2e_ns.count(), 0u);
}

TEST(DsmsTest, TimelineSpillsToJournalFile) {
  const std::string path = testing::TempDir() + "dsms_timeline.jsonl";
  Dsms::Options opt;
  opt.timeline_period = 20;
  opt.journal_capacity = 4;  // Tiny ring: the spill keeps the history.
  opt.journal_spill_path = path;
  Dsms dsms(opt);
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(400, 5, 4, 7)));
  auto id = dsms.InstallQuery("SELECT * FROM S [RANGE 50]");
  ASSERT_TRUE(id.ok());
  dsms.RunToCompletion();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t samples = 0;
  while (std::getline(in, line)) {
    obs::JournalEvent ev;
    ASSERT_TRUE(obs::EventJournal::FromJsonl(line, &ev)) << line;
    samples += ev.kind == obs::JournalEvent::Kind::kSample;
  }
  // More samples than the ring could hold.
  EXPECT_GT(samples, opt.journal_capacity);
  EXPECT_EQ(dsms.timeline().size(), opt.journal_capacity);
}

}  // namespace
}  // namespace genmig
