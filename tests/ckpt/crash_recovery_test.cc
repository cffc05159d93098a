// Fault injection (ISSUE 10 satellite): a child process checkpoints, is
// killed with SIGKILL mid-run, and a fresh engine restores from the surviving
// directory. The recovered output must be byte-identical in snapshot normal
// form to an uninterrupted oracle run — including a seed with a GenMig in
// flight at the cut, and a disordered periodic-checkpoint seed where the kill
// may land before the first commit (NotFound => fresh run, same output),
// and sharded runs killed right after a marker cut committed, once with
// that cut inside a broadcast migration.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>

#include "../test_util.h"
#include "ckpt/store.h"
#include "engine/dsms.h"
#include "obs/journal.h"
#include "par/coordinator.h"
#include "ref/checker.h"
#include "stream/generator.h"
#include "stream/state_codec.h"

namespace genmig {
namespace {

using testutil::El;

std::string TempDir() {
  std::string tmpl = ::testing::TempDir() + "ckpt_crash_XXXXXX";
  char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

/// Forks, runs `victim` in the child and expects it to die by SIGKILL.
/// The child must never return from `victim`.
void RunVictim(void (*victim)(const std::string&), const std::string& dir) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    victim(dir);
    _exit(97);  // Unreachable: the victim kills itself.
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "victim exited with "
                                   << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

// --- Seed 1: scalar, explicit checkpoint, kill -9 --------------------------

void SetupScalar(Dsms* dsms, Dsms::QueryId* id) {
  dsms->RegisterStream(
      "S", Schema::OfInts({"x"}),
      ToPhysicalStream(GenerateKeyedStream(300, 5, 4, 7)));
  auto installed = dsms->InstallQuery("SELECT DISTINCT x FROM S [RANGE 50]");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  *id = installed.value();
}

void ScalarVictim(const std::string& dir) {
  Dsms::Options options;
  options.checkpoint_dir = dir;
  Dsms dsms(options);
  Dsms::QueryId id = 0;
  SetupScalar(&dsms, &id);
  dsms.RunUntil(Timestamp(700));
  if (!dsms.Checkpoint().ok()) _exit(98);
  raise(SIGKILL);  // No destructors, no flushes: a real crash.
}

TEST(CrashRecoveryTest, KilledAfterCheckpointRestoresByteIdentical) {
  MaterializedStream oracle;
  {
    Dsms dsms;
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupScalar(&dsms, &id));
    dsms.RunToCompletion();
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 0u);

  const std::string dir = TempDir();
  ASSERT_NO_FATAL_FAILURE(RunVictim(ScalarVictim, dir));

  Dsms::Options options;
  options.checkpoint_dir = dir;
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupScalar(&restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
  // Deterministic scalar resume is byte-identical, not just equivalent.
  EXPECT_EQ(restored.Results(id), oracle);
}

// --- Seed 2: killed with a GenMig in flight at the cut ---------------------

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
  dsms->RegisterStream("A", Schema::OfInts({"x"}),
                       Drifting(4000, 10, 500, 20, kDrift, 11));
  dsms->RegisterStream("B", Schema::OfInts({"x"}),
                       Drifting(4000, 10, 500, 20, kDrift, 12));
  dsms->RegisterStream("C", Schema::OfInts({"x"}),
                       Drifting(4000, 10, 500, 500, kDrift, 13));
  auto installed = dsms->InstallQuery(
      "SELECT A.x, B.x, C.x FROM A [RANGE 2000], B [RANGE 2000], "
      "C [RANGE 2000] WHERE A.x = B.x AND B.x = C.x");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  *id = installed.value();
}

void MigrationVictim(const std::string& dir) {
  Dsms::Options options;
  options.stats_horizon = 2000;
  options.checkpoint_dir = dir;
  Dsms dsms(options);
  Dsms::QueryId id = 0;
  SetupDrifting(&dsms, &id);
  dsms.RunUntil(Timestamp(14000));
  if (dsms.ReoptimizeNow() != 1) _exit(95);
  // Transient phases defer; the first success lands inside the parallel
  // phase, with both boxes live and the broadcast T_split pending.
  Status s = dsms.Checkpoint();
  int guard = 0;
  while (!s.ok() && guard++ < 1000 && dsms.Step()) s = dsms.Checkpoint();
  if (!s.ok()) _exit(96);
  if (!dsms.Info(id).migration_in_progress) _exit(94);
  raise(SIGKILL);
}

TEST(CrashRecoveryTest, KilledMidMigrationRestoresAndFinishesIt) {
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

  const std::string dir = TempDir();
  ASSERT_NO_FATAL_FAILURE(RunVictim(MigrationVictim, dir));

  options.checkpoint_dir = dir;
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

// --- Seed 3: disorder + periodic async checkpoints, kill at arbitrary point

std::vector<TimedTuple> DisorderedArrivals(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<TimedTuple> raw;
  int64_t t = 0;
  for (size_t i = 0; i < count; ++i) {
    t += static_cast<int64_t>(rng() % 4);
    TimedTuple tt;
    tt.tuple = Tuple::OfInts({static_cast<int64_t>(rng() % 5)});
    tt.t = t;
    raw.push_back(std::move(tt));
  }
  // Bounded shuffle: swap neighbors within the lateness allowance.
  for (size_t i = 1; i + 1 < raw.size(); i += 2) {
    if (rng() % 2 == 0) std::swap(raw[i], raw[i + 1]);
  }
  return raw;
}

void SetupDisordered(Dsms* dsms, Dsms::QueryId* id) {
  DisorderBuffer::Options disorder;
  disorder.delta = 8;
  dsms->RegisterRawDisorderedStream("S", Schema::OfInts({"x"}),
                                    DisorderedArrivals(400, 41), disorder);
  auto installed = dsms->InstallQuery("SELECT DISTINCT x FROM S [RANGE 30]");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  *id = installed.value();
}

void DisorderVictim(const std::string& dir) {
  Dsms::Options options;
  options.checkpoint_dir = dir;
  options.checkpoint_period = 100;
  Dsms dsms(options);
  Dsms::QueryId id = 0;
  SetupDisordered(&dsms, &id);
  dsms.RunUntil(Timestamp(450));  // Async commits race the kill below.
  raise(SIGKILL);
}

TEST(CrashRecoveryTest, DisorderedPeriodicCheckpointSurvivesKill) {
  MaterializedStream oracle;
  {
    Dsms dsms;
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupDisordered(&dsms, &id));
    dsms.RunToCompletion();
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 0u);

  const std::string dir = TempDir();
  ASSERT_NO_FATAL_FAILURE(RunVictim(DisorderVictim, dir));

  Dsms::Options options;
  options.checkpoint_dir = dir;
  options.checkpoint_period = 100;
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupDisordered(&restored, &id));
  const Status s = restored.Restore();
  if (s.code() == Status::Code::kNotFound) {
    // The kill landed before the first async commit: nothing durable, the
    // engine simply runs from scratch — and must still match the oracle.
    restored.RunToCompletion();
    EXPECT_EQ(restored.Results(id), oracle);
    return;
  }
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

// --- Seed 4: sharded executor killed mid-run -------------------------------

par::InputMap ShardFeeds() {
  std::mt19937_64 rng(51);
  par::InputMap inputs;
  int64_t ta = 0, tb = 0;
  for (int i = 0; i < 120; ++i) {
    ta += static_cast<int64_t>(rng() % 5);
    tb += static_cast<int64_t>(rng() % 5);
    inputs["A"].push_back(El(static_cast<int64_t>(rng() % 4), ta, ta + 1));
    inputs["B"].push_back(El(static_cast<int64_t>(rng() % 4), tb, tb + 1));
  }
  return inputs;
}

void SetupSharded(Dsms* dsms, Dsms::QueryId* id) {
  const par::InputMap feeds = ShardFeeds();
  for (const auto& [name, data] : feeds) {
    dsms->RegisterStream(name, Schema::OfInts({"x"}), data);
  }
  auto installed = dsms->InstallQuery(
      "SELECT A.x, B.x FROM A [RANGE 20], B [RANGE 20] WHERE A.x = B.x");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  *id = installed.value();
}

void ShardedVictim(const std::string& dir) {
  Dsms::Options options;
  options.shards = 2;
  options.checkpoint_dir = dir;
  options.checkpoint_period = 25;
  Dsms dsms(options);
  Dsms::QueryId id = 0;
  SetupSharded(&dsms, &id);
  if (!dsms.Info(id).parallel) _exit(93);
  // Anchor the engine store, then die mid-parallel-run: the watcher fires
  // SIGKILL the moment the coordinator's first marker cut commits on top of
  // the anchor.
  if (!dsms.Checkpoint().ok()) _exit(92);
  std::thread killer([&dsms] {
    for (;;) {
      if (dsms.CheckpointStats().commits >= 2) raise(SIGKILL);
      usleep(200);
    }
  });
  dsms.RunToCompletion();
  killer.join();  // Unreachable: the cut always commits, the watcher fires.
}

TEST(CrashRecoveryTest, ShardedKillRestoresThroughCoordinatorCut) {
  Dsms::Options options;
  options.shards = 2;

  MaterializedStream oracle;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupSharded(&dsms, &id));
    ASSERT_TRUE(dsms.Info(id).parallel);
    dsms.RunToCompletion();
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 0u);

  const std::string dir = TempDir();
  ASSERT_NO_FATAL_FAILURE(RunVictim(ShardedVictim, dir));

  options.checkpoint_dir = dir;
  options.checkpoint_period = 25;
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupSharded(&restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

// --- Seed 5: sharded-only engine, no explicit checkpoint ------------------

/// True once the journal holds a committed cut of sharded query q0.
bool CutCommitted(const std::vector<obs::JournalEvent>& events) {
  for (const obs::JournalEvent& ev : events) {
    if (ev.kind == obs::JournalEvent::Kind::kCheckpoint &&
        ev.subject == "par/q0" && ev.Str("phase") == "commit") {
      return true;
    }
  }
  return false;
}

void UnanchoredShardedVictim(const std::string& dir) {
  Dsms::Options options;
  options.shards = 2;
  options.checkpoint_dir = dir;
  options.checkpoint_period = 25;
  options.journal_spill_path = dir + "/journal.jsonl";
  Dsms dsms(options);
  Dsms::QueryId id = 0;
  SetupSharded(&dsms, &id);
  if (!dsms.Info(id).parallel) _exit(93);
  // No Checkpoint() call: the watcher fires SIGKILL as soon as the first
  // marker cut is journaled as committed (its spill line is written by
  // then). Should the run end first, the victim dies right after it.
  std::thread killer([&dsms] {
    for (;;) {
      if (CutCommitted(dsms.journal().SnapshotKind(
              obs::JournalEvent::Kind::kCheckpoint))) {
        raise(SIGKILL);
      }
      usleep(200);
    }
  });
  killer.detach();
  dsms.RunToCompletion();
  raise(SIGKILL);
}

TEST(CrashRecoveryTest, ShardedKillWithoutExplicitCheckpointRestores) {
  Dsms::Options options;
  options.shards = 2;

  MaterializedStream oracle;
  {
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupSharded(&dsms, &id));
    ASSERT_TRUE(dsms.Info(id).parallel);
    dsms.RunToCompletion();
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 0u);

  const std::string dir = TempDir();
  ASSERT_NO_FATAL_FAILURE(RunVictim(UnanchoredShardedVictim, dir));

  // The spill file outlives the kill and names the committed cut.
  std::vector<obs::JournalEvent> spilled;
  {
    std::ifstream in(dir + "/journal.jsonl");
    std::string line;
    while (std::getline(in, line)) {
      obs::JournalEvent ev;
      if (obs::EventJournal::FromJsonl(line, &ev)) spilled.push_back(ev);
    }
  }
  EXPECT_TRUE(CutCommitted(spilled));

  options.checkpoint_dir = dir;
  options.checkpoint_period = 25;
  Dsms restored(options);
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupSharded(&restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

// --- Seed 6: sharded executor killed with a cut inside a migration ----------

// Left-deep -> right-deep 3-way join over windows of 60, the migration
// broadcast at 180. The data spans about 300 units, so with a period of 200
// the one cut lands after the broadcast and before T_split (about 241).
par::InputMap MigratingFeeds() {
  std::mt19937_64 rng(53);
  par::InputMap inputs;
  std::vector<int64_t> t(3, 0);
  const std::vector<std::string> names = {"A", "B", "C"};
  for (int i = 0; i < 150; ++i) {
    for (size_t s = 0; s < names.size(); ++s) {
      t[s] += static_cast<int64_t>(rng() % 5);
      inputs[names[s]].push_back(
          El(static_cast<int64_t>(rng() % 3), t[s], t[s] + 1));
    }
  }
  return inputs;
}

void SetupMigratingSharded(Dsms* dsms, Dsms::QueryId* id) {
  using namespace logical;  // NOLINT: test readability.
  const Schema one = Schema::OfInts({"x"});
  auto wa = Window(SourceNode("A", one), 60);
  auto wb = Window(SourceNode("B", one), 60);
  auto wc = Window(SourceNode("C", one), 60);
  for (const auto& [name, data] : MigratingFeeds()) {
    dsms->RegisterStream(name, one, data);
  }
  auto installed =
      dsms->InstallPlan(EquiJoin(EquiJoin(wa, wb, 0, 0), wc, 0, 0));
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  *id = installed.value();
  ASSERT_TRUE(dsms->Info(*id).parallel);
  const Status s = dsms->ScheduleMigration(
      *id, EquiJoin(wa, EquiJoin(wb, wc, 0, 0), 0, 0), Timestamp(180));
  ASSERT_TRUE(s.ok()) << s.ToString();
}

Dsms::Options MigratingShardedOptions(const std::string& dir) {
  Dsms::Options options;
  options.shards = 2;
  options.checkpoint_dir = dir;
  options.checkpoint_period = 200;
  return options;
}

void MigratingShardedVictim(const std::string& dir) {
  Dsms dsms(MigratingShardedOptions(dir));
  Dsms::QueryId id = 0;
  SetupMigratingSharded(&dsms, &id);
  if (testing::Test::HasFatalFailure()) _exit(93);
  // Dies as soon as the cut inside the migration is journaled as committed.
  std::thread killer([&dsms] {
    for (;;) {
      if (CutCommitted(dsms.journal().SnapshotKind(
              obs::JournalEvent::Kind::kCheckpoint))) {
        raise(SIGKILL);
      }
      usleep(200);
    }
  });
  killer.detach();
  dsms.RunToCompletion();
  raise(SIGKILL);
}

TEST(CrashRecoveryTest, ShardedKillWithCutInsideMigrationRestores) {
  MaterializedStream oracle;
  {
    Dsms::Options options;
    options.shards = 2;
    Dsms dsms(options);
    Dsms::QueryId id = 0;
    ASSERT_NO_FATAL_FAILURE(SetupMigratingSharded(&dsms, &id));
    dsms.RunToCompletion();
    ASSERT_EQ(dsms.Info(id).migrations_completed, 1);
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 0u);

  const std::string dir = TempDir();
  ASSERT_NO_FATAL_FAILURE(RunVictim(MigratingShardedVictim, dir));
  {
    // The surviving cut caught both shards in GenMig's parallel phase.
    ckpt::Store store(dir);
    std::map<std::string, std::string> blobs;
    ASSERT_TRUE(store.Load(&blobs).ok());
    for (const char* key : {"par/q0/s0/ctl", "par/q0/s1/ctl"}) {
      ASSERT_EQ(blobs.count(key), 1u) << key;
      StateDec dec(blobs.at(key));
      MigrationController::CkptControl control;
      ASSERT_TRUE(MigrationController::CkptDecodeControl(&dec, &control));
      EXPECT_EQ(control.phase, MigrationController::Phase::kParallel) << key;
    }
  }

  Dsms restored(MigratingShardedOptions(dir));
  Dsms::QueryId id = 0;
  ASSERT_NO_FATAL_FAILURE(SetupMigratingSharded(&restored, &id));
  const Status s = restored.Restore();
  ASSERT_TRUE(s.ok()) << s.ToString();
  restored.RunToCompletion();
  EXPECT_EQ(restored.Info(id).migrations_completed, 1);
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
}

}  // namespace
}  // namespace genmig
