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

// The coordinator hands each completed cut to its owner; here the owner is a
// store of the test's own, committing each cut as the whole checkpoint.
void CommitCutsTo(ckpt::Store* store, par::Coordinator::Options* options) {
  options->on_cut = [store](std::vector<ckpt::Blob> blobs) {
    store->CommitAsync(std::move(blobs));
  };
}

std::map<std::string, std::string> LoadCut(ckpt::Store* store) {
  std::map<std::string, std::string> blobs;
  EXPECT_TRUE(store->Load(&blobs).ok());
  return blobs;
}

TEST(RestoreTest, ShardedCoordinatorResumesFromMarkerCut) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 20),
                       Window(SourceNode("B", OneCol()), 20), 0, 0);
  const par::InputMap inputs = RandomFeeds(31, 80, 4, {"A", "B"});
  const MaterializedStream oracle =
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*plan, inputs));

  par::Coordinator::Options options;
  options.shards = 2;
  options.queue_capacity = 64;
  ckpt::Store store(TempDir());
  CommitCutsTo(&store, &options);
  options.checkpoint_period = 30;

  MaterializedStream first;
  {
    CollectorSink sink("sink");
    par::Coordinator coordinator(plan, &sink, options);
    const Status s = coordinator.Run(inputs);
    ASSERT_TRUE(s.ok()) << s.ToString();
    first = sink.collected();
    store.WaitIdle();
    ASSERT_GE(store.stats().commits, 1u);
  }

  CollectorSink sink("sink");
  par::Coordinator restored(plan, &sink, options);
  ASSERT_TRUE(restored.Restore(LoadCut(&store)).ok());
  // The checkpoint cut is mid-stream: the restored router starts with part
  // of the input already accounted for and only routes the tail.
  EXPECT_GT(restored.elements_routed(), 0u);
  EXPECT_LT(restored.elements_routed(), 160u);
  const Status s = restored.Run(inputs);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const MaterializedStream& out = sink.collected();
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

  auto first_merge_blob = [&plan, &inputs] {
    par::Coordinator::Options options;
    options.shards = 3;
    options.queue_capacity = 8;
    options.checkpoint_period = 200;
    std::string merge;
    options.on_cut = [&merge](std::vector<ckpt::Blob> blobs) {
      for (ckpt::Blob& blob : blobs) {
        if (merge.empty() && blob.key == "merge") merge = std::move(blob.bytes);
      }
    };
    CollectorSink sink("sink");
    par::Coordinator coordinator(plan, &sink, options);
    EXPECT_TRUE(coordinator.Run(inputs).ok());
    return merge;
  };
  const std::string first = first_merge_blob();
  ASSERT_FALSE(first.empty());
  for (int run = 1; run < 20; ++run) {
    EXPECT_EQ(first_merge_blob(), first) << "run " << run;
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
  ckpt::Store store(TempDir());
  CommitCutsTo(&store, &options);
  options.checkpoint_period = 25;
  const Timestamp at(40);

  {
    CollectorSink sink("sink");
    par::Coordinator coordinator(old_plan, &sink, options);
    ASSERT_TRUE(coordinator.ScheduleGenMig(new_plan, at).ok());
    const Status s = coordinator.Run(inputs);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(coordinator.migrations_completed(), 1);
    store.WaitIdle();
    ASSERT_GE(store.stats().commits, 1u);
  }

  // The restored coordinator re-declares the same schedule; whether the
  // newest cut fell before or after the broadcast, the resumed run must
  // still match the migration-free oracle.
  CollectorSink sink("sink");
  par::Coordinator restored(old_plan, &sink, options);
  ASSERT_TRUE(restored.ScheduleGenMig(new_plan, at).ok());
  ASSERT_TRUE(restored.Restore(LoadCut(&store)).ok());
  const Status s = restored.Run(inputs);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored.migrations_completed(), 1);
  EXPECT_EQ(ref::SnapshotNormalForm(sink.collected()), oracle);
}

TEST(RestoreTest, ShardedScheduleMismatchIsDataLoss) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 20),
                       Window(SourceNode("B", OneCol()), 20), 0, 0);
  const par::InputMap inputs = RandomFeeds(33, 60, 4, {"A", "B"});
  par::Coordinator::Options options;
  options.shards = 2;
  ckpt::Store store(TempDir());
  CommitCutsTo(&store, &options);
  options.checkpoint_period = 30;
  {
    CollectorSink sink("sink");
    par::Coordinator coordinator(plan, &sink, options);
    ASSERT_TRUE(
        coordinator.ScheduleGenMig(plan, Timestamp(10000)).ok());
    ASSERT_TRUE(coordinator.Run(inputs).ok());
    store.WaitIdle();
    ASSERT_GE(store.stats().commits, 1u);
  }
  // Restoring without re-declaring the scheduled migration is a topology
  // mismatch, reported as DataLoss rather than silently dropping it.
  CollectorSink sink("sink");
  par::Coordinator restored(plan, &sink, options);
  EXPECT_EQ(restored.Restore(LoadCut(&store)).code(), Status::Code::kDataLoss);
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

TEST(RestoreTest, DsmsShardedCutsCommitIntoTheEngineStore) {
  // One store per engine: a sharded query's cuts land in the engine's
  // manifest under "par/q0/", are journaled and counted with the engine's
  // own commits, and the engine's next checkpoint keeps them.
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

  // The engine part RunToCompletion anchored first, then at least one cut.
  const ckpt::Store::StatsSnapshot stats = dsms.CheckpointStats();
  ASSERT_GE(stats.commits, 2u);
  EXPECT_EQ(stats.failures, 0u);
  size_t engine_commits = 0;
  size_t cut_commits = 0;
  for (const obs::JournalEvent& ev :
       dsms.journal().SnapshotKind(obs::JournalEvent::Kind::kCheckpoint)) {
    if (ev.Str("phase") != "commit") continue;
    if (ev.subject == "engine") ++engine_commits;
    if (ev.subject == "par/q0") ++cut_commits;
  }
  EXPECT_GE(engine_commits, 1u);
  EXPECT_GE(cut_commits, 1u);
  EXPECT_EQ(engine_commits + cut_commits, stats.commits);
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

TEST(RestoreTest, DsmsShardedDisorderedQueryRestores) {
  // The coordinator's cursors count rows of the reordered stream Dsms hands
  // it, so a restored run resumes at the same reordered position.
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

TEST(RestoreTest, ShardedRouterBlobWithDisorderStateIsDataLoss) {
  // A router that reordered a stream itself wrote its buffer into the
  // cursor and counted the cursor's position in arrivals. The router reads
  // reordered rows now, so such a blob is refused.
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 20),
                       Window(SourceNode("B", OneCol()), 20), 0, 0);
  const par::InputMap inputs = RandomFeeds(37, 60, 4, {"A", "B"});
  par::Coordinator::Options options;
  options.shards = 2;
  ckpt::Store store(TempDir());
  CommitCutsTo(&store, &options);
  options.checkpoint_period = 30;
  {
    CollectorSink sink("sink");
    par::Coordinator coordinator(plan, &sink, options);
    ASSERT_TRUE(coordinator.Run(inputs).ok());
    store.WaitIdle();
    ASSERT_GE(store.stats().commits, 1u);
  }
  {
    CollectorSink sink("sink");
    par::Coordinator restored(plan, &sink, options);
    ASSERT_TRUE(restored.Restore(LoadCut(&store)).ok());
  }

  // Rewrite the first cursor ("A") as the router-side reordering wrote it:
  // its has-buffer flag set, followed by the buffer's state.
  std::map<std::string, std::string> blobs;
  ASSERT_TRUE(store.Load(&blobs).ok());
  std::string& router = blobs.at("router");
  // Layout: U32 cursor count, then per cursor Str name, U64 pos,
  // U64 injected, Bool has-buffer, ...
  StateEnc name;
  name.Str("A");
  const size_t flag = 4 + name.bytes().size() + 16;
  ASSERT_LT(flag, router.size());
  ASSERT_EQ(router[flag], 0);
  StateEnc buffer;
  buffer.Bool(true);
  DisorderBuffer().CkptExport(&buffer);
  router.replace(flag, 1, buffer.bytes());
  std::vector<ckpt::Blob> tampered;
  for (auto& [key, bytes] : blobs) {
    ckpt::Blob blob;
    blob.key = key;
    blob.group = "main";
    blob.bytes = std::move(bytes);
    tampered.push_back(std::move(blob));
  }
  ASSERT_TRUE(store.Commit(std::move(tampered)).ok());

  CollectorSink sink("sink");
  par::Coordinator restored(plan, &sink, options);
  const Status s = restored.Restore(LoadCut(&store));
  EXPECT_EQ(s.code(), Status::Code::kDataLoss) << s.ToString();
  EXPECT_NE(s.ToString().find("not disordered now"), std::string::npos)
      << s.ToString();
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
  // The first cut is taken 120 time units into the routing (no cut is in
  // flight yet), 20 units after the broadcast and before T_split.
  options.checkpoint_period = 120;
  std::vector<std::map<std::string, std::string>> cuts;
  options.on_cut = [&cuts](std::vector<ckpt::Blob> blobs) {
    std::map<std::string, std::string> cut;
    for (ckpt::Blob& blob : blobs) cut[blob.key] = std::move(blob.bytes);
    cuts.push_back(std::move(cut));
  };

  MaterializedStream first;
  {
    CollectorSink sink("sink");
    par::Coordinator coordinator(join.old_plan, &sink, options);
    ASSERT_TRUE(coordinator.ScheduleGenMig(join.new_plan, at).ok());
    const Status s = coordinator.Run(inputs);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(coordinator.migrations_completed(), 1);
    first = sink.collected();
  }
  EXPECT_EQ(ref::SnapshotNormalForm(first), oracle);
  ASSERT_FALSE(cuts.empty());
  const std::map<std::string, std::string>& cut = cuts.front();
  // Both shards captured GenMig's parallel phase with both boxes' plans.
  for (const std::string& shard : {std::string("s0/"), std::string("s1/")}) {
    EXPECT_EQ(ShardPhase(cut, shard + "ctl"),
              MigrationController::Phase::kParallel);
    EXPECT_EQ(cut.count(shard + "plan"), 1u);
    EXPECT_EQ(cut.count(shard + "oldplan"), 1u);
  }

  CollectorSink sink("sink");
  par::Coordinator restored(join.old_plan, &sink, options);
  ASSERT_TRUE(restored.ScheduleGenMig(join.new_plan, at).ok());
  const Status rs = restored.Restore(cut);
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(restored.migrations_completed(), 0);  // Still in flight.
  const Status s = restored.Run(inputs);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored.migrations_completed(), 1);
  // Snapshot-equivalent, not byte-identical: operator watermarks are not
  // part of a cut, so the restored boxes release their results in another
  // interleaving and the coalesce pairs old and new pieces differently.
  // The engine's own mid-migration restore behaves the same way.
  EXPECT_TRUE(IsOrderedByStart(sink.collected()));
  EXPECT_EQ(ref::SnapshotNormalForm(sink.collected()), oracle);
}

TEST(RestoreTest, ShardedCutWithoutShardPlansRestoresTheBroadcastTarget) {
  // A cut whose shards did not record their plans (only quiescent cuts were
  // taken then) restores the last-broadcast target from the router blob.
  const MigratingJoin join;
  const par::InputMap inputs = RandomFeeds(42, 150, 3, {"A", "B", "C"});
  const Timestamp at(40);
  par::Coordinator::Options options;
  options.shards = 2;
  options.queue_capacity = 4;
  // Every row ships at once and every other shard hears its start, so the
  // shards finish the migration soon after routing passes T_split (~101).
  options.batch_size = 1;
  options.checkpoint_period = 150;  // One cut, after the migration ended.
  std::vector<std::map<std::string, std::string>> cuts;
  options.on_cut = [&cuts](std::vector<ckpt::Blob> blobs) {
    std::map<std::string, std::string> cut;
    for (ckpt::Blob& blob : blobs) cut[blob.key] = std::move(blob.bytes);
    cuts.push_back(std::move(cut));
  };
  MaterializedStream first;
  {
    CollectorSink sink("sink");
    par::Coordinator coordinator(join.old_plan, &sink, options);
    ASSERT_TRUE(coordinator.ScheduleGenMig(join.new_plan, at).ok());
    ASSERT_TRUE(coordinator.Run(inputs).ok());
    first = sink.collected();
  }
  ASSERT_FALSE(cuts.empty());
  std::map<std::string, std::string> cut = cuts.front();
  ASSERT_EQ(ShardPhase(cut, "s0/ctl"), MigrationController::Phase::kDirect);
  ASSERT_EQ(cut.erase("s0/plan") + cut.erase("s1/plan"), 2u);

  CollectorSink sink("sink");
  par::Coordinator restored(join.old_plan, &sink, options);
  ASSERT_TRUE(restored.ScheduleGenMig(join.new_plan, at).ok());
  const Status rs = restored.Restore(cut);
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(restored.migrations_completed(), 1);
  ASSERT_TRUE(restored.Run(inputs).ok());
  EXPECT_EQ(sink.collected(), first);
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

TEST(RestoreTest, DsmsShardedRunReturnsWithNoCommitInFlight) {
  // The executor pass after the coordinators commits a periodic engine
  // checkpoint; RunToCompletion waits for it, so the counters, the journal
  // and the count itself agree on return, run after run.
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
  // The anchor, the one cut (about 200 units in; the data spans about 300)
  // and the executor pass's periodic commit.
  EXPECT_EQ(expected, 3u);
}

}  // namespace
}  // namespace genmig
