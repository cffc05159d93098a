// Checkpoint -> fresh engine -> Restore -> resume (ISSUE 10): the resumed
// run's output must be byte-identical in snapshot normal form to an
// uninterrupted oracle run — scalar, mid-migration, and sharded.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <random>
#include <string>

#include "../test_util.h"
#include "ckpt/store.h"
#include "engine/dsms.h"
#include "obs/journal.h"
#include "par/coordinator.h"
#include "ref/checker.h"
#include "ref/eval.h"
#include "stream/disorder.h"
#include "stream/generator.h"
#include "stream/state_codec.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.
using testutil::El;

std::string TempDir() {
  std::string tmpl = ::testing::TempDir() + "ckpt_restore_XXXXXX";
  char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

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

// --- Scalar engine ---------------------------------------------------------

void SetupScalar(Dsms* dsms, Dsms::QueryId* id) {
  dsms->RegisterStream(
      "S", OneCol(), ToPhysicalStream(GenerateKeyedStream(300, 5, 4, 7)));
  auto installed = dsms->InstallQuery("SELECT DISTINCT x FROM S [RANGE 50]");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  *id = installed.value();
}

TEST(RestoreTest, ScalarCheckpointRestoreResumesByteIdentical) {
  MaterializedStream oracle;
  {
    Dsms dsms;
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupScalar(&dsms, &id));
    dsms.RunToCompletion();
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 0u);

  Dsms::Options options;
  options.checkpoint_dir = TempDir();
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupScalar(&dsms, &id));
    dsms.RunUntil(Timestamp(700));
    ASSERT_TRUE(dsms.Checkpoint().ok());
    EXPECT_EQ(dsms.CheckpointStats().seq, 1u);
    // The engine dies here: everything past the checkpoint is lost.
  }
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupScalar(&restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  // Deterministic single-threaded resume: raw bytes, not just snapshots.
  EXPECT_EQ(restored.Results(id), oracle);
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

TEST(RestoreTest, PeriodicCheckpointsRestoreTheTail) {
  MaterializedStream oracle;
  {
    Dsms dsms;
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupScalar(&dsms, &id));
    dsms.RunToCompletion();
    oracle = dsms.Results(id);
  }

  Dsms::Options options;
  options.checkpoint_dir = TempDir();
  options.checkpoint_period = 100;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupScalar(&dsms, &id));
    dsms.RunUntil(Timestamp(900));  // Several periods: async commits land.
  }  // Dies mid-stream; the store joins its worker on destruction.
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupScalar(&restored, &id));
  ASSERT_TRUE(restored.Restore().ok());
  EXPECT_GE(restored.CheckpointStats().seq, 1u);
  restored.RunToCompletion();
  EXPECT_EQ(restored.Results(id), oracle);
}

TEST(RestoreTest, EmptyDirectoryIsNotFound) {
  Dsms::Options options;
  options.checkpoint_dir = TempDir();
  Dsms dsms(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupScalar(&dsms, &id));
  EXPECT_EQ(dsms.Restore().code(), Status::Code::kNotFound);
}

TEST(RestoreTest, CheckpointingOffIsFailedPrecondition) {
  Dsms dsms;
  EXPECT_EQ(dsms.Checkpoint().code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(dsms.Restore().code(), Status::Code::kFailedPrecondition);
}

TEST(RestoreTest, StreamSetMismatchIsDataLoss) {
  Dsms::Options options;
  options.checkpoint_dir = TempDir();
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupScalar(&dsms, &id));
    dsms.RunUntil(Timestamp(300));
    ASSERT_TRUE(dsms.Checkpoint().ok());
  }
  // The restored engine registers a differently-named stream: the feed blob
  // lookup must fail with a typed error, not crash.
  Dsms restored(options);
  restored.RegisterStream(
      "T", OneCol(), ToPhysicalStream(GenerateKeyedStream(300, 5, 4, 7)));
  auto id = restored.InstallQuery("SELECT DISTINCT x FROM T [RANGE 50]");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(restored.Restore().code(), Status::Code::kDataLoss);
}

TEST(RestoreTest, ExtraQueryIsDataLoss) {
  Dsms::Options options;
  options.checkpoint_dir = TempDir();
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupScalar(&dsms, &id));
    dsms.RunUntil(Timestamp(300));
    ASSERT_TRUE(dsms.Checkpoint().ok());
  }
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupScalar(&restored, &id));
  auto extra = restored.InstallQuery("SELECT * FROM S [RANGE 10]");
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(restored.Restore().code(), Status::Code::kDataLoss);
}

// --- Checkpoint cut inside a live GenMig ----------------------------------

/// A stream whose key cardinality collapses at `drift` (drives the
/// re-optimizer into an actual migration, as in dsms_test.cc).
MaterializedStream Drifting(size_t count, int64_t period, int64_t before,
                            int64_t after, int64_t drift, uint64_t seed) {
  MaterializedStream out;
  std::mt19937_64 rng(seed);
  int64_t t = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t keys = t < drift ? before : after;
    out.push_back(
        El(static_cast<int64_t>(rng() % static_cast<uint64_t>(keys)), t,
           t + 1));
    t += period;
  }
  return out;
}

void SetupDrifting(Dsms* dsms, Dsms::QueryId* id) {
  const int64_t kDrift = 10000;
  dsms->RegisterStream("A", OneCol(), Drifting(4000, 10, 500, 20, kDrift, 11));
  dsms->RegisterStream("B", OneCol(), Drifting(4000, 10, 500, 20, kDrift, 12));
  dsms->RegisterStream("C", OneCol(), Drifting(4000, 10, 500, 500, kDrift, 13));
  auto installed = dsms->InstallQuery(
      "SELECT A.x, B.x, C.x FROM A [RANGE 2000], B [RANGE 2000], "
      "C [RANGE 2000] WHERE A.x = B.x AND B.x = C.x");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  *id = installed.value();
}

TEST(RestoreTest, CheckpointInsideGenMigParallelPhaseRestores) {
  Dsms::Options options;
  options.stats_horizon = 2000;

  MaterializedStream oracle;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupDrifting(&dsms, &id));
    dsms.RunUntil(Timestamp(14000));
    ASSERT_EQ(dsms.ReoptimizeNow(), 1);
    dsms.RunToCompletion();
    ASSERT_EQ(dsms.Info(id).migrations_completed, 1);
    oracle = dsms.Results(id);
  }

  options.checkpoint_dir = TempDir();
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupDrifting(&dsms, &id));
    dsms.RunUntil(Timestamp(14000));
    ASSERT_EQ(dsms.ReoptimizeNow(), 1);
    // kWaitingTimestamps resolves within a few steps; the parallel phase
    // (both boxes live) is checkpointable and lasts until T_split.
    Status s = dsms.Checkpoint();
    int guard = 0;
    while (!s.ok() && guard++ < 1000 && dsms.Step()) s = dsms.Checkpoint();
    ASSERT_TRUE(s.ok()) << s.ToString();
    // The cut really is inside the migration.
    ASSERT_TRUE(dsms.Info(id).migration_in_progress);
  }
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupDrifting(&restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(restored.Info(id).migration_in_progress);
  restored.RunToCompletion();
  EXPECT_EQ(restored.Info(id).migrations_completed, 1);
  EXPECT_TRUE(IsOrderedByStart(restored.Results(id)));
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

// --- Sharded executor ------------------------------------------------------

// A coordinator routed by an executor of its own, as a Dsms routes it: the
// executor's feed positions and the coordinator's marker cut together are
// one checkpoint, taken at the same position.
struct RoutedCoordinator {
  Executor exec;
  CollectorSink sink{"sink"};
  par::Coordinator coordinator;
  std::map<std::string, int> feeds;

  RoutedCoordinator(const LogicalPtr& plan, const par::InputMap& inputs,
                    par::Coordinator::Options options)
      : coordinator(plan, &sink, options) {
    for (const auto& [name, stream] : inputs) {
      feeds[name] = exec.AddFeed(name, stream);
    }
    const Status s = coordinator.Connect(&exec, feeds);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  /// The cut at the executor's position, with its feed positions under
  /// "feed/<name>"; empty when a shard sat in a transient migration phase.
  std::map<std::string, std::string> Cut() {
    std::shared_ptr<par::CkptCapture> capture = coordinator.BeginCut();
    std::map<std::string, std::string> cut;
    for (const auto& [name, feed] : feeds) {
      StateEnc enc;
      exec.CkptExportFeed(feed, &enc);
      cut["feed/" + name] = enc.Take();
    }
    capture->Wait();
    if (capture->failed) return {};
    for (ckpt::Blob& blob : capture->blobs) cut[blob.key] = blob.bytes;
    return cut;
  }

  /// Cut(), stepping on while a shard is in a transient migration phase.
  std::map<std::string, std::string> CutWhenReady() {
    std::map<std::string, std::string> cut = Cut();
    for (int guard = 0; cut.empty() && guard < 1000 && exec.Step(); ++guard) {
      cut = Cut();
    }
    EXPECT_FALSE(cut.empty());
    return cut;
  }

  Status Restore(const std::map<std::string, std::string>& cut) {
    for (const auto& [name, feed] : feeds) {
      StateDec dec(cut.at("feed/" + name));
      if (!exec.CkptImportFeed(feed, &dec)) {
        return Status::DataLoss("feed " + name);
      }
    }
    return coordinator.Restore(cut);
  }

  /// Runs the executor to the end and waits for the merged output.
  const MaterializedStream& Finish() {
    exec.RunToCompletion();
    coordinator.Wait();
    return sink.collected();
  }
};

TEST(RestoreTest, ShardedCoordinatorResumesFromMarkerCut) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 20),
                       Window(SourceNode("B", OneCol()), 20), 0, 0);
  const par::InputMap inputs = RandomFeeds(31, 80, 4, {"A", "B"});
  const MaterializedStream oracle =
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*plan, inputs));

  par::Coordinator::Options options;
  options.shards = 2;
  options.queue_capacity = 64;

  std::map<std::string, std::string> cut;
  MaterializedStream first;
  {
    RoutedCoordinator run(plan, inputs, options);
    run.exec.RunUntil(Timestamp(90));
    cut = run.CutWhenReady();
    first = run.Finish();
  }

  RoutedCoordinator restored(plan, inputs, options);
  const Status rs = restored.Restore(cut);
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  // The checkpoint cut is mid-stream: the restored router starts with part
  // of the input already accounted for and only routes the tail.
  EXPECT_GT(restored.coordinator.elements_routed(), 0u);
  EXPECT_LT(restored.coordinator.elements_routed(), 160u);
  const MaterializedStream& out = restored.Finish();
  EXPECT_TRUE(IsOrderedByStart(out));
  EXPECT_EQ(ref::SnapshotNormalForm(out), oracle);
  // Deterministic merge: the resumed run reproduces the exact byte sequence.
  EXPECT_EQ(out, first);
}

TEST(RestoreTest, ShardedCutBytesAreReproducible) {
  // The merge releases before it captures, so which rows a cut lists as
  // released and which as held back depends only on the pre-marker
  // messages, not on when the merge thread last ran.
  auto wa = Window(SourceNode("A", OneCol()), 12);
  auto wb = Window(SourceNode("B", OneCol()), 12);
  auto wc = Window(SourceNode("C", OneCol()), 12);
  auto plan = EquiJoin(EquiJoin(wa, wb, 0, 0), wc, 0, 0);
  const par::InputMap inputs = RandomFeeds(38, 300, 3, {"A", "B", "C"});

  auto merge_blob = [&plan, &inputs] {
    par::Coordinator::Options options;
    options.shards = 3;
    options.queue_capacity = 8;
    RoutedCoordinator run(plan, inputs, options);
    run.exec.RunUntil(Timestamp(200));
    const std::map<std::string, std::string> cut = run.CutWhenReady();
    run.Finish();
    return cut.count("merge") != 0 ? cut.at("merge") : std::string();
  };
  const std::string first = merge_blob();
  ASSERT_FALSE(first.empty());
  for (int run = 1; run < 20; ++run) {
    EXPECT_EQ(merge_blob(), first) << "run " << run;
  }
}

TEST(RestoreTest, ShardedRestoreWithBroadcastMigration) {
  auto wa = Window(SourceNode("A", OneCol()), 12);
  auto wb = Window(SourceNode("B", OneCol()), 12);
  auto wc = Window(SourceNode("C", OneCol()), 12);
  auto old_plan = EquiJoin(EquiJoin(wa, wb, 0, 0), wc, 0, 0);
  auto new_plan = EquiJoin(wa, EquiJoin(wb, wc, 0, 0), 0, 0);
  const par::InputMap inputs = RandomFeeds(32, 60, 3, {"A", "B", "C"});
  const MaterializedStream oracle =
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*old_plan, inputs));

  par::Coordinator::Options options;
  options.shards = 2;
  options.queue_capacity = 64;
  const Timestamp at(40);

  // Whether the cut falls before the broadcast, inside the migration or
  // after it, the restored coordinator re-declares the same schedule and
  // the resumed run must still match the migration-free oracle.
  for (int64_t t : {25, 50, 75, 100}) {
    std::map<std::string, std::string> cut;
    {
      RoutedCoordinator run(old_plan, inputs, options);
      ASSERT_TRUE(run.coordinator.ScheduleGenMig(new_plan, at).ok());
      run.exec.RunUntil(Timestamp(t));
      cut = run.CutWhenReady();
      run.Finish();
      ASSERT_EQ(run.coordinator.migrations_completed(), 1) << "cut at " << t;
    }
    RoutedCoordinator restored(old_plan, inputs, options);
    ASSERT_TRUE(restored.coordinator.ScheduleGenMig(new_plan, at).ok());
    const Status rs = restored.Restore(cut);
    ASSERT_TRUE(rs.ok()) << rs.ToString();
    const MaterializedStream& out = restored.Finish();
    EXPECT_EQ(restored.coordinator.migrations_completed(), 1)
        << "cut at " << t;
    EXPECT_EQ(ref::SnapshotNormalForm(out), oracle) << "cut at " << t;
  }
}

TEST(RestoreTest, ShardedScheduleMismatchIsDataLoss) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 20),
                       Window(SourceNode("B", OneCol()), 20), 0, 0);
  const par::InputMap inputs = RandomFeeds(33, 60, 4, {"A", "B"});
  par::Coordinator::Options options;
  options.shards = 2;
  std::map<std::string, std::string> cut;
  {
    RoutedCoordinator run(plan, inputs, options);
    ASSERT_TRUE(run.coordinator.ScheduleGenMig(plan, Timestamp(10000)).ok());
    run.exec.RunUntil(Timestamp(60));
    cut = run.CutWhenReady();
    run.Finish();
  }
  // Restoring without re-declaring the scheduled migration is a topology
  // mismatch, reported as DataLoss rather than silently dropping it.
  RoutedCoordinator restored(plan, inputs, options);
  EXPECT_EQ(restored.Restore(cut).code(), Status::Code::kDataLoss);
}

TEST(RestoreTest, DsmsShardedQueryRestoresThroughItsCoordinator) {
  const par::InputMap feeds = RandomFeeds(34, 80, 4, {"A", "B"});
  const char* kCql =
      "SELECT A.x, B.x FROM A [RANGE 20], B [RANGE 20] WHERE A.x = B.x";

  Dsms::Options options;
  options.shards = 2;
  auto setup = [&feeds, kCql](Dsms* dsms, Dsms::QueryId* id) {
    for (const auto& [name, data] : feeds) {
      dsms->RegisterStream(name, OneCol(), data);
    }
    auto installed = dsms->InstallQuery(kCql);
    ASSERT_TRUE(installed.ok()) << installed.status().ToString();
    *id = installed.value();
  };

  MaterializedStream oracle;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(setup(&dsms, &id));
    ASSERT_TRUE(dsms.Info(id).parallel);
    dsms.RunToCompletion();
    oracle = dsms.Results(id);
  }

  options.checkpoint_dir = TempDir();
  options.checkpoint_period = 30;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(setup(&dsms, &id));
    // The coordinator's cuts commit into the engine store during the run.
    dsms.RunToCompletion();
  }
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(setup(&restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

TEST(RestoreTest, DsmsShardedDisorderedQueryRestores) {
  // The router reads the executor's reordered stream, whose buffer state
  // and position the engine's own feed blob carries.
  const par::InputMap feeds = RandomFeeds(35, 80, 4, {"A", "B"});
  const DisorderedArrivals shuffled =
      ApplyBoundedShuffle(feeds.at("A"), 12, 36);
  DisorderBuffer::Options disorder;
  disorder.delta = 2;  // Adapts from a tight start: some arrivals drop.
  disorder.adaptive = true;
  disorder.adapt_every = 16;
  const char* kCql =
      "SELECT A.x, B.x FROM A [RANGE 20], B [RANGE 20] WHERE A.x = B.x";

  Dsms::Options options;
  options.shards = 2;
  auto setup = [&](Dsms* dsms, Dsms::QueryId* id) {
    dsms->RegisterDisorderedStream("A", OneCol(), shuffled.arrivals, disorder);
    dsms->RegisterStream("B", OneCol(), feeds.at("B"));
    auto installed = dsms->InstallQuery(kCql);
    ASSERT_TRUE(installed.ok()) << installed.status().ToString();
    *id = installed.value();
  };

  MaterializedStream oracle;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(setup(&dsms, &id));
    ASSERT_TRUE(dsms.Info(id).parallel);
    dsms.RunToCompletion();
    ASSERT_GT(dsms.DisorderStats("A").stats.dropped_late, 0u);
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 0u);

  options.checkpoint_dir = TempDir();
  options.checkpoint_period = 30;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(setup(&dsms, &id));
    ASSERT_TRUE(dsms.Checkpoint().ok());
    dsms.RunToCompletion();
  }
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(setup(&restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

// --- Sharded cuts inside a broadcast migration ------------------------------

MigrationController::Phase ShardPhase(
    const std::map<std::string, std::string>& cut, const std::string& key) {
  StateDec dec(cut.at(key));
  MigrationController::CkptControl control;
  EXPECT_TRUE(MigrationController::CkptDecodeControl(&dec, &control)) << key;
  return control.phase;
}

// Left-deep -> right-deep over windows of 60: the broadcast at `at` fixes
// T_split at the max routed start + 61, so the parallel phase spans the
// next 61 time units of routing.
struct MigratingJoin {
  LogicalPtr old_plan;
  LogicalPtr new_plan;
  MigratingJoin() {
    auto wa = Window(SourceNode("A", OneCol()), 60);
    auto wb = Window(SourceNode("B", OneCol()), 60);
    auto wc = Window(SourceNode("C", OneCol()), 60);
    old_plan = EquiJoin(EquiJoin(wa, wb, 0, 0), wc, 0, 0);
    new_plan = EquiJoin(wa, EquiJoin(wb, wc, 0, 0), 0, 0);
  }
};

TEST(RestoreTest, ShardedCutInsideBroadcastMigrationResumes) {
  const MigratingJoin join;
  const par::InputMap inputs = RandomFeeds(41, 150, 3, {"A", "B", "C"});
  const MaterializedStream oracle =
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*join.old_plan, inputs));
  const Timestamp at(100);

  par::Coordinator::Options options;
  options.shards = 2;
  options.queue_capacity = 4;

  // The cut is taken 120 time units into the routing, 20 units after the
  // broadcast and before T_split.
  std::map<std::string, std::string> cut;
  MaterializedStream first;
  {
    RoutedCoordinator run(join.old_plan, inputs, options);
    ASSERT_TRUE(run.coordinator.ScheduleGenMig(join.new_plan, at).ok());
    run.exec.RunUntil(Timestamp(120));
    cut = run.Cut();
    first = run.Finish();
    ASSERT_EQ(run.coordinator.migrations_completed(), 1);
  }
  EXPECT_EQ(ref::SnapshotNormalForm(first), oracle);
  ASSERT_FALSE(cut.empty());
  // Both shards captured GenMig's parallel phase with both boxes' plans.
  for (const std::string& shard : {std::string("s0/"), std::string("s1/")}) {
    EXPECT_EQ(ShardPhase(cut, shard + "ctl"),
              MigrationController::Phase::kParallel);
    EXPECT_EQ(cut.count(shard + "plan"), 1u);
    EXPECT_EQ(cut.count(shard + "oldplan"), 1u);
  }

  RoutedCoordinator restored(join.old_plan, inputs, options);
  ASSERT_TRUE(restored.coordinator.ScheduleGenMig(join.new_plan, at).ok());
  const Status rs = restored.Restore(cut);
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(restored.coordinator.migrations_completed(), 0);  // In flight.
  const MaterializedStream& out = restored.Finish();
  EXPECT_EQ(restored.coordinator.migrations_completed(), 1);
  // Snapshot-equivalent, not byte-identical: operator watermarks are not
  // part of a cut, so the restored boxes release their results in another
  // interleaving and the coalesce pairs old and new pieces differently.
  // The engine's own mid-migration restore behaves the same way.
  EXPECT_TRUE(IsOrderedByStart(out));
  EXPECT_EQ(ref::SnapshotNormalForm(out), oracle);
}

// A Dsms running the same join sharded, with the migration scheduled at
// 180: the one cut (period 200, the data spans about 300 units) lands after
// the broadcast and before T_split (about 241).
void SetupMigratingSharded(const par::InputMap& feeds, Dsms* dsms,
                           Dsms::QueryId* id) {
  const MigratingJoin join;
  for (const auto& [name, data] : feeds) {
    dsms->RegisterStream(name, OneCol(), data);
  }
  auto installed = dsms->InstallPlan(join.old_plan);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  *id = installed.value();
  ASSERT_TRUE(dsms->Info(*id).parallel);
  ASSERT_TRUE(
      dsms->ScheduleMigration(*id, join.new_plan, Timestamp(180)).ok());
}

TEST(RestoreTest, DsmsShardedCutInsideMigrationResumes) {
  const par::InputMap feeds = RandomFeeds(43, 150, 3, {"A", "B", "C"});
  Dsms::Options options;
  options.shards = 2;
  MaterializedStream oracle;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupMigratingSharded(feeds, &dsms, &id));
    dsms.RunToCompletion();
    EXPECT_EQ(dsms.Info(id).migrations_completed, 1);
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 0u);

  options.checkpoint_dir = TempDir();
  options.checkpoint_period = 200;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupMigratingSharded(feeds, &dsms, &id));
    dsms.RunToCompletion();
  }
  {
    ckpt::Store store(options.checkpoint_dir);
    std::map<std::string, std::string> blobs;
    ASSERT_TRUE(store.Load(&blobs).ok());
    EXPECT_EQ(ShardPhase(blobs, "par/q0/s0/ctl"),
              MigrationController::Phase::kParallel);
    EXPECT_EQ(ShardPhase(blobs, "par/q0/s1/ctl"),
              MigrationController::Phase::kParallel);
  }
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupMigratingSharded(feeds, &restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(restored.Info(id).migrations_completed, 1);
  EXPECT_TRUE(IsOrderedByStart(restored.Results(id)));
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

TEST(RestoreTest, DsmsShardedTwoQueriesRetryCheckpointsThroughAMigration) {
  // Two sharded queries migrating at the same instant, periodic rounds in
  // between, and a checkpoint tried after every step across the migration:
  // each attempt commits or, with a shard in a transient phase, is refused,
  // and every cut of a round is captured before the next round begins its
  // own (a coordinator aligns one cut at a time). The cut's flush leaves no
  // shard of these plans in a transient phase, so here every attempt
  // commits; the retry loop is the shape a caller writes.
  par::InputMap feeds;
  std::mt19937_64 rng(48);
  for (int64_t t = 0; t < 300; ++t) {
    for (const char* name : {"A", "B"}) {
      feeds[name].push_back(El(static_cast<int64_t>(rng() % 8), t, t + 1));
    }
  }
  auto wa = Window(SourceNode("A", OneCol()), 20);
  auto wb = Window(SourceNode("B", OneCol()), 20);
  auto setup = [&](Dsms* dsms, Dsms::QueryId* q0, Dsms::QueryId* q1) {
    for (const auto& [name, data] : feeds) {
      dsms->RegisterStream(name, OneCol(), data);
    }
    for (Dsms::QueryId* id : {q0, q1}) {
      auto installed = dsms->InstallPlan(EquiJoin(wa, wb, 0, 0));
      ASSERT_TRUE(installed.ok()) << installed.status().ToString();
      *id = installed.value();
      ASSERT_TRUE(dsms->Info(*id).parallel);
      ASSERT_TRUE(dsms->ScheduleMigration(*id, EquiJoin(wb, wa, 0, 0),
                                          Timestamp(150))
                      .ok());
    }
  };
  Dsms::Options options;
  options.shards = 2;
  MaterializedStream oracle;
  {
    Dsms dsms(options);
    Dsms::QueryId q0 = 0, q1 = 0;
    ASSERT_NO_FATAL_FAILURE(setup(&dsms, &q0, &q1));
    dsms.RunToCompletion();
    oracle = ref::SnapshotNormalForm(dsms.Results(q0));
    ASSERT_EQ(ref::SnapshotNormalForm(dsms.Results(q1)), oracle);
  }
  ASSERT_GT(oracle.size(), 0u);

  options.checkpoint_dir = TempDir();
  options.checkpoint_period = 20;
  {
    Dsms dsms(options);
    Dsms::QueryId q0 = 0, q1 = 0;
    ASSERT_NO_FATAL_FAILURE(setup(&dsms, &q0, &q1));
    dsms.RunUntil(Timestamp(140));
    // T_split is 171 (150 + 20 + 1); the shards drain right after it.
    int committed = 0;
    while (dsms.current_time() < Timestamp(200) && dsms.Step()) {
      Status s = dsms.Checkpoint();
      for (int guard = 0; !s.ok() && guard < 1000 && dsms.Step(); ++guard) {
        ASSERT_EQ(s.code(), Status::Code::kFailedPrecondition)
            << s.ToString();
        s = dsms.Checkpoint();
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++committed;
    }
    EXPECT_GE(committed, 100);
    dsms.RunToCompletion();
    EXPECT_EQ(dsms.Info(q0).migrations_completed, 1);
    EXPECT_EQ(dsms.Info(q1).migrations_completed, 1);
    EXPECT_EQ(ref::SnapshotNormalForm(dsms.Results(q0)), oracle);
    EXPECT_EQ(ref::SnapshotNormalForm(dsms.Results(q1)), oracle);
  }
  // A fresh engine resumes both queries from the newest commit.
  Dsms restored(options);
  Dsms::QueryId q0 = 0, q1 = 0;
  ASSERT_NO_FATAL_FAILURE(setup(&restored, &q0, &q1));
  const Status rs = restored.Restore();
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(q0)), oracle);
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(q1)), oracle);
}

TEST(RestoreTest, DsmsShardedRunReturnsWithNoCommitInFlight) {
  // The one periodic round commits on the store's thread; RunToCompletion
  // waits for it, so the counters, the journal and the count itself agree
  // on return, run after run.
  const par::InputMap feeds = RandomFeeds(44, 150, 3, {"A", "B", "C"});
  uint64_t expected = 0;
  for (int run = 0; run < 20; ++run) {
    Dsms::Options options;
    options.shards = 3;
    options.checkpoint_dir = TempDir();
    options.checkpoint_period = 200;
    Dsms dsms(options);
    for (const auto& [name, data] : feeds) {
      dsms.RegisterStream(name, OneCol(), data);
    }
    ASSERT_TRUE(dsms.InstallPlan(MigratingJoin().old_plan).ok());
    dsms.RunToCompletion();
    const uint64_t commits = dsms.CheckpointStats().commits;
    size_t journaled = 0;
    for (const obs::JournalEvent& ev :
         dsms.journal().SnapshotKind(obs::JournalEvent::Kind::kCheckpoint)) {
      if (ev.Str("phase") == "commit") ++journaled;
    }
    EXPECT_EQ(commits, journaled) << "run " << run;
    if (run == 0) expected = commits;
    EXPECT_EQ(commits, expected) << "run " << run;
  }
  // One round, about 200 units in (the data spans about 300), engine and
  // cut in one commit.
  EXPECT_EQ(expected, 1u);
}

TEST(RestoreTest, DsmsShardedCutsCommitIntoTheEngineStore) {
  // One store, one commit per round: a sharded query's cut lands in the
  // engine's manifest under "par/q0/", next to the engine's blobs of the
  // same executor position, and each round is journaled and counted once.
  const par::InputMap feeds = RandomFeeds(36, 80, 4, {"A", "B"});
  Dsms::Options options;
  options.shards = 2;
  options.checkpoint_dir = TempDir();
  options.checkpoint_period = 30;
  Dsms dsms(options);
  for (const auto& [name, data] : feeds) {
    dsms.RegisterStream(name, OneCol(), data);
  }
  auto installed = dsms.InstallQuery(
      "SELECT A.x, B.x FROM A [RANGE 20], B [RANGE 20] WHERE A.x = B.x");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  ASSERT_TRUE(dsms.Info(installed.value()).parallel);
  dsms.RunToCompletion();

  const ckpt::Store::StatsSnapshot stats = dsms.CheckpointStats();
  ASSERT_GE(stats.commits, 1u);
  EXPECT_EQ(stats.failures, 0u);
  size_t journaled = 0;
  for (const obs::JournalEvent& ev :
       dsms.journal().SnapshotKind(obs::JournalEvent::Kind::kCheckpoint)) {
    if (ev.Str("phase") != "commit") continue;
    EXPECT_EQ(ev.subject, "engine");
    ++journaled;
  }
  EXPECT_EQ(journaled, stats.commits);
#ifndef GENMIG_NO_METRICS
  EXPECT_NE(dsms.MetricsText().find("genmig_ckpt_commits_total " +
                                    std::to_string(stats.commits) + "\n"),
            std::string::npos);
#endif
  EXPECT_EQ(::access((options.checkpoint_dir + "/q0par").c_str(), F_OK), -1);

  ASSERT_TRUE(dsms.Checkpoint().ok());
  ckpt::Store store(options.checkpoint_dir);
  std::map<std::string, std::string> blobs;
  ASSERT_TRUE(store.Load(&blobs).ok());
  EXPECT_EQ(blobs.count("engine/cursor"), 1u);
  EXPECT_EQ(blobs.count("par/q0/router"), 1u);
  EXPECT_EQ(blobs.count("par/q0/s0/ctl"), 1u);
  EXPECT_EQ(blobs.count("par/q0/s1/ctl"), 1u);
  EXPECT_EQ(blobs.count("par/q0/merge"), 1u);
}

TEST(RestoreTest, DsmsShardedEveryPeriodicRoundIsCounted) {
  // Lockstep streams, one row per instant each: the engine initiates a
  // round whenever the executor's time moved a period past the previous
  // round. Each round ends committed, failed, or skipped (a cut still in
  // flight, the store still busy); how they split depends on timing.
  constexpr int64_t kRows = 2000;
  constexpr Duration kPeriod = 300;
  Dsms::Options options;
  options.shards = 2;
  options.checkpoint_dir = TempDir();
  options.checkpoint_period = kPeriod;
  Dsms dsms(options);
  for (const char* name : {"A", "B"}) {
    MaterializedStream data;
    std::mt19937_64 rng(name[0]);
    for (int64_t t = 0; t < kRows; ++t) {
      data.push_back(El(static_cast<int64_t>(rng() % 50), t, t + 1));
    }
    dsms.RegisterStream(name, OneCol(), data);
  }
  auto installed = dsms.InstallQuery(
      "SELECT A.x, B.x FROM A [RANGE 100], B [RANGE 100] WHERE A.x = B.x");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  ASSERT_TRUE(dsms.Info(installed.value()).parallel);
  dsms.RunToCompletion();

  // The engine's throttle replayed over the executor times of the steps.
  uint64_t rounds = 0;
  int64_t last = 0;
  for (int64_t t = 0; t < kRows; ++t) {
    if (t - last >= kPeriod) {
      ++rounds;
      last = t;
    }
  }
  const ckpt::Store::StatsSnapshot stats = dsms.CheckpointStats();
  EXPECT_EQ(stats.commits + stats.failures + stats.skipped, rounds);
  EXPECT_GE(stats.commits, 1u);
}

TEST(RestoreTest, DsmsShardedCutOfTheThreadedRouterLayoutIsDataLoss) {
  // A router that walked the feeds on its own thread wrote per-stream
  // cursors into its blob and committed its cuts apart from the engine's
  // part, at another position. A directory holding such a cut is refused.
  const par::InputMap feeds = RandomFeeds(37, 60, 4, {"A", "B"});
  Dsms::Options options;
  options.shards = 2;
  options.checkpoint_dir = TempDir();
  auto setup = [&feeds](Dsms* dsms) {
    for (const auto& [name, data] : feeds) {
      dsms->RegisterStream(name, OneCol(), data);
    }
    auto installed = dsms->InstallQuery(
        "SELECT A.x, B.x FROM A [RANGE 20], B [RANGE 20] WHERE A.x = B.x");
    ASSERT_TRUE(installed.ok()) << installed.status().ToString();
    ASSERT_TRUE(dsms->Info(installed.value()).parallel);
  };
  {
    Dsms dsms(options);
    ASSERT_NO_FATAL_FAILURE(setup(&dsms));
    dsms.RunUntil(Timestamp(60));
    ASSERT_TRUE(dsms.Checkpoint().ok());
  }
  {
    ckpt::Store store(options.checkpoint_dir);
    std::map<std::string, std::string> blobs;
    ASSERT_TRUE(store.Load(&blobs).ok());
    // That layout: the cursor count, then per stream its name, position,
    // sampling counter and three unused disorder fields, then the routing
    // and schedule state.
    StateEnc router;
    router.U32(2);
    for (const char* name : {"A", "B"}) {
      router.Str(name);
      router.U64(30);
      router.U64(30);
      router.Bool(false);
      router.Bool(false);
      router.Stream(MaterializedStream());
    }
    router.Ts(Timestamp(59));
    router.Bool(true);
    router.U64(60);
    router.U32(0);
    router.I64(-1);
    router.Bool(false);
    router.I64(0);
    router.Bool(false);
    router.Ts(Timestamp(0, 0));
    router.U8(0);
    router.Ts(Timestamp(0, 0));
    blobs.at("par/q0/router") = router.Take();
    std::vector<ckpt::Blob> tampered;
    for (auto& [key, bytes] : blobs) {
      tampered.push_back(ckpt::Blob{key, std::move(bytes), "main"});
    }
    ASSERT_TRUE(store.Commit(std::move(tampered)).ok());
  }
  Dsms restored(options);
  ASSERT_NO_FATAL_FAILURE(setup(&restored));
  const Status s = restored.Restore();
  EXPECT_EQ(s.code(), Status::Code::kDataLoss) << s.ToString();
  EXPECT_NE(s.ToString().find("own thread"), std::string::npos)
      << s.ToString();
}

TEST(RestoreTest, DsmsShardedMixedEngineResumesByteIdentical) {
  // One scalar and one sharded query over a disordered and an ordered
  // stream, with a broadcast migration scheduled: one checkpoint covers
  // both queries at one executor position, and a fresh engine resumes both
  // output tails byte-identically to the run that took the checkpoint and
  // went on. (The cut ships the router's pending rows early, which may
  // fragment the migration's coalesced intervals differently from a run
  // without it: against that run the outputs are snapshot-equivalent.)
  using namespace logical;  // NOLINT: test readability.
  const par::InputMap feeds = RandomFeeds(45, 200, 4, {"A", "B"});
  const DisorderedArrivals shuffled =
      ApplyBoundedShuffle(feeds.at("A"), 12, 46);
  DisorderBuffer::Options disorder;
  disorder.delta = shuffled.max_lateness;
  auto wa = Window(SourceNode("A", OneCol()), 20);
  auto wb = Window(SourceNode("B", OneCol()), 20);
  const Timestamp at(40);

  Dsms::Options options;
  options.shards = 2;
  auto setup = [&](Dsms* dsms, Dsms::QueryId* scalar, Dsms::QueryId* sharded) {
    dsms->RegisterDisorderedStream("A", OneCol(), shuffled.arrivals, disorder);
    dsms->RegisterStream("B", OneCol(), feeds.at("B"));
    auto s = dsms->InstallQuery(
        "SELECT x, COUNT(*) FROM A [RANGE 40] GROUP BY x");
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ASSERT_FALSE(dsms->Info(s.value()).parallel);
    auto p = dsms->InstallPlan(EquiJoin(wa, wb, 0, 0));
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ASSERT_TRUE(dsms->Info(p.value()).parallel);
    ASSERT_TRUE(
        dsms->ScheduleMigration(p.value(), EquiJoin(wb, wa, 0, 0), at).ok());
    *scalar = s.value();
    *sharded = p.value();
  };

  MaterializedStream scalar_nf;
  MaterializedStream sharded_nf;
  {
    Dsms dsms(options);
    Dsms::QueryId s = 0, p = 0;
    ASSERT_NO_FATAL_FAILURE(setup(&dsms, &s, &p));
    dsms.RunToCompletion();
    ASSERT_EQ(dsms.Info(p).migrations_completed, 1);
    scalar_nf = ref::SnapshotNormalForm(dsms.Results(s));
    sharded_nf = ref::SnapshotNormalForm(dsms.Results(p));
  }
  ASSERT_GT(scalar_nf.size(), 0u);
  ASSERT_GT(sharded_nf.size(), 0u);

  options.checkpoint_dir = TempDir();
  MaterializedStream scalar_out;
  MaterializedStream sharded_out;
  {
    Dsms dsms(options);
    Dsms::QueryId s = 0, p = 0;
    ASSERT_NO_FATAL_FAILURE(setup(&dsms, &s, &p));
    // Well past T_split (about 61): the shards finished the migration.
    dsms.RunUntil(Timestamp(250));
    Status cs = dsms.Checkpoint();
    for (int guard = 0; !cs.ok() && guard < 1000 && dsms.Step(); ++guard) {
      cs = dsms.Checkpoint();
    }
    ASSERT_TRUE(cs.ok()) << cs.ToString();
    dsms.RunToCompletion();
    scalar_out = dsms.Results(s);
    sharded_out = dsms.Results(p);
  }
  EXPECT_EQ(ref::SnapshotNormalForm(scalar_out), scalar_nf);
  EXPECT_EQ(ref::SnapshotNormalForm(sharded_out), sharded_nf);
  {
    ckpt::Store store(options.checkpoint_dir);
    std::map<std::string, std::string> blobs;
    ASSERT_TRUE(store.Load(&blobs).ok());
    EXPECT_EQ(ShardPhase(blobs, "par/q1/s0/ctl"),
              MigrationController::Phase::kDirect);
    EXPECT_EQ(blobs.count("engine/q0/ctl"), 1u);
  }
  Dsms restored(options);
  Dsms::QueryId s = 0, p = 0;
  ASSERT_NO_FATAL_FAILURE(setup(&restored, &s, &p));
  const Status rs = restored.Restore();
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  // Both sinks hold the prefix the cut captured, and nothing later.
  EXPECT_LT(restored.Results(s).size(), scalar_out.size());
  EXPECT_LT(restored.Results(p).size(), sharded_out.size());
  restored.RunToCompletion();
  EXPECT_EQ(restored.Info(p).migrations_completed, 1);
  EXPECT_EQ(restored.Results(s), scalar_out);
  EXPECT_EQ(restored.Results(p), sharded_out);
}

}  // namespace
}  // namespace genmig
