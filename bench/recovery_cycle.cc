// Nightly crash-recovery cycling (ISSUE 10): checkpoint -> kill -9 ->
// restore, N times, over randomized bounded-disorder workloads. Each cycle
// forks a victim engine that checkpoints periodically and SIGKILLs itself at
// a random point in the stream; the parent restores from the surviving
// directory (or reruns from scratch when the kill beat the first commit),
// finishes the stream, and compares the stitched output against an
// uninterrupted oracle in snapshot normal form. Every third seed runs the
// join on two shards and schedules a GenMig at a seed-drawn instant: that
// victim calls RunToCompletion() and dies once the engine's store counted a
// seed-drawn number of commits (the engine part plus the sharded query's
// marker cuts, which share the store). A cut may land inside the migration;
// each line reports the phase the restored cut caught the shards in, and
// the summary counts the cycles killed inside a migration.
//
//   recovery_cycle [cycles] [base_seed] [outdir]
//
// Defaults: 50 cycles, seed 1, outdir "recovery_failures". Checkpoint
// directories of failing cycles are preserved under <outdir>/cycle-<k> (CI
// uploads them as artifacts); passing cycles clean up after themselves.
// Exit 0 when every cycle recovered equivalently, 1 otherwise.

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/store.h"
#include "engine/dsms.h"
#include "ref/checker.h"
#include "stream/disorder.h"
#include "stream/state_codec.h"

namespace genmig {
namespace {

/// Everything one cycle needs, derived deterministically from its seed so a
/// failure reproduces from the printed seed alone.
struct CycleParams {
  uint64_t seed = 0;
  size_t count = 0;       // Arrivals per stream.
  int64_t keys = 0;       // Key domain size.
  int64_t max_gap = 0;    // Max timestamp gap between arrivals.
  int64_t delta = 0;      // Disorder allowance (and shuffle bound).
  int64_t range = 0;      // Window RANGE of the query.
  int64_t ckpt_period = 0;
  int64_t kill_t = 0;     // Victim app-time horizon before SIGKILL.
  bool join = false;      // Two-stream join instead of single-stream dedup.
  int shards = 1;         // 2: the join runs on the sharded executor.
  uint64_t kill_commits = 0;  // Sharded victim: SIGKILL past this many.
  int64_t migrate_at = 0;     // Sharded: the scheduled GenMig's instant.
};

CycleParams MakeParams(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  CycleParams p;
  p.seed = seed;
  p.count = 300 + rng() % 500;
  p.keys = 3 + static_cast<int64_t>(rng() % 6);
  p.max_gap = 1 + static_cast<int64_t>(rng() % 4);
  p.delta = 4 + static_cast<int64_t>(rng() % 13);
  p.range = 20 + static_cast<int64_t>(rng() % 41);
  p.ckpt_period = 50 + static_cast<int64_t>(rng() % 151);
  p.join = rng() % 3 == 0;
  // Somewhere inside the stream's span (count * max_gap / 2 on average).
  const int64_t span =
      static_cast<int64_t>(p.count) * std::max<int64_t>(p.max_gap / 2, 1);
  p.kill_t = span / 4 + static_cast<int64_t>(rng() % static_cast<uint64_t>(
                                                 std::max<int64_t>(span / 2,
                                                                   1)));
  if (seed % 3 == 0) {
    p.join = true;
    p.shards = 2;
  }
  p.kill_commits = 1 + rng() % 4;
  p.migrate_at = span / 8 + static_cast<int64_t>(
                                rng() % static_cast<uint64_t>(
                                            std::max<int64_t>(span / 2, 1)));
  return p;
}

/// Bounded-disorder arrivals: increasing timestamps with random gaps, then
/// local swaps — displacement stays within the delta allowance often enough
/// to exercise both the admit and the drop paths.
std::vector<TimedTuple> Arrivals(const CycleParams& p, uint64_t stream_salt) {
  std::mt19937_64 rng(p.seed ^ stream_salt);
  std::vector<TimedTuple> raw;
  int64_t t = 0;
  for (size_t i = 0; i < p.count; ++i) {
    t += static_cast<int64_t>(rng() % static_cast<uint64_t>(p.max_gap + 1));
    TimedTuple tt;
    tt.tuple =
        Tuple::OfInts({static_cast<int64_t>(rng() % static_cast<uint64_t>(
                           p.keys))});
    tt.t = t;
    raw.push_back(std::move(tt));
  }
  for (size_t i = 1; i + 1 < raw.size(); ++i) {
    if (rng() % 2 == 0) std::swap(raw[i], raw[i + 1]);
  }
  return raw;
}

const char* Mode(const CycleParams& p) {
  return p.shards > 1 ? "sharded join" : p.join ? "join" : "dedup";
}

/// Registers streams and installs the cycle's query; identical in the
/// victim, the restored engine, and the oracle.
bool Setup(const CycleParams& p, Dsms* dsms, Dsms::QueryId* id) {
  DisorderBuffer::Options disorder;
  disorder.delta = p.delta;
  dsms->RegisterRawDisorderedStream("A", Schema::OfInts({"x"}),
                                    Arrivals(p, 0xa), disorder);
  std::string query = "SELECT DISTINCT x FROM A [RANGE " +
                      std::to_string(p.range) + "]";
  if (p.join) {
    dsms->RegisterRawDisorderedStream("B", Schema::OfInts({"x"}),
                                      Arrivals(p, 0xb), disorder);
    query = "SELECT A.x, B.x FROM A [RANGE " + std::to_string(p.range) +
            "], B [RANGE " + std::to_string(p.range) + "] WHERE A.x = B.x";
  }
  auto installed = dsms->InstallQuery(query);
  if (!installed.ok()) {
    std::fprintf(stderr, "install failed: %s\n",
                 installed.status().ToString().c_str());
    return false;
  }
  *id = installed.value();
  if (!dsms->Info(*id).parallel) return true;
  // The same join with its inputs swapped, columns restored to (A.x, B.x);
  // it partitions identically. The unsharded oracle does not migrate.
  using namespace logical;  // NOLINT
  auto window = [&p](const char* name) {
    return Window(SourceNode(name, Schema::OfInts({"x"})), p.range);
  };
  const Status s = dsms->ScheduleMigration(
      *id, Project(EquiJoin(window("B"), window("A"), 0, 0), {1, 0}),
      Timestamp(p.migrate_at));
  if (!s.ok()) {
    std::fprintf(stderr, "schedule failed: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

/// Options of the victim and the restored engine (the oracle runs unsharded).
Dsms::Options CheckpointedOptions(const CycleParams& p,
                                  const std::string& dir) {
  Dsms::Options options;
  options.shards = p.shards;
  options.checkpoint_dir = dir;
  options.checkpoint_period = p.ckpt_period;
  return options;
}

void Victim(const CycleParams& p, const std::string& dir) {
  Dsms dsms(CheckpointedOptions(p, dir));
  Dsms::QueryId id = 0;
  if (!Setup(p, &dsms, &id)) _exit(90);
  if (dsms.Info(id).parallel != (p.shards > 1)) _exit(89);
  if (p.shards > 1) {
    // The sharded query produces its results inside RunToCompletion(), so
    // a watcher kills the victim once enough commits landed; a run that
    // commits fewer dies when it returns.
    std::thread killer([&dsms, &p] {
      for (;;) {
        if (dsms.CheckpointStats().commits > p.kill_commits) raise(SIGKILL);
        usleep(200);
      }
    });
    killer.detach();
    dsms.RunToCompletion();
  } else {
    dsms.RunUntil(Timestamp(p.kill_t));
  }
  raise(SIGKILL);  // No destructors, no flushes: a real crash.
}

void RemoveFlatDir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

/// The phase shard 0 of the sharded query sits in at the surviving cut:
/// "parallel" (inside the migration), "direct", or "none" without a cut.
const char* CutPhase(const std::string& dir) {
  ckpt::Store store(dir);
  std::map<std::string, std::string> blobs;
  if (!store.Load(&blobs).ok() || blobs.count("par/q0/s0/ctl") == 0) {
    return "none";
  }
  StateDec dec(blobs.at("par/q0/s0/ctl"));
  MigrationController::CkptControl control;
  if (!MigrationController::CkptDecodeControl(&dec, &control)) {
    return "corrupt";
  }
  return control.phase == MigrationController::Phase::kParallel ? "parallel"
                                                                 : "direct";
}

/// One checkpoint -> kill -> restore cycle. Returns true when the stitched
/// output matches the oracle; on failure the checkpoint directory survives
/// for the artifact upload. `cut` receives CutPhase for sharded cycles.
bool RunCycle(const CycleParams& p, const std::string& dir,
              std::string* cut) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    Victim(p, dir);
    _exit(97);  // Unreachable: the victim kills itself.
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFSIGNALED(status) ||
      WTERMSIG(status) != SIGKILL) {
    std::fprintf(stderr, "seed %llu: victim did not die by SIGKILL "
                 "(status %d)\n",
                 static_cast<unsigned long long>(p.seed), status);
    return false;
  }
  if (p.shards > 1) *cut = CutPhase(dir);

  MaterializedStream oracle;
  {
    Dsms dsms;
    Dsms::QueryId id = 0;
    if (!Setup(p, &dsms, &id)) return false;
    dsms.RunToCompletion();
    oracle = dsms.Results(id);
  }

  Dsms restored(CheckpointedOptions(p, dir));
  Dsms::QueryId id = 0;
  if (!Setup(p, &restored, &id)) return false;
  const Status s = restored.Restore();
  if (!s.ok() && s.code() != Status::Code::kNotFound) {
    // NotFound is legitimate (the kill beat the first commit); anything
    // else is a recovery bug.
    std::fprintf(stderr, "seed %llu: restore failed: %s\n",
                 static_cast<unsigned long long>(p.seed),
                 s.ToString().c_str());
    return false;
  }
  restored.RunToCompletion();
  if (ref::SnapshotNormalForm(restored.Results(id)) !=
      ref::SnapshotNormalForm(oracle)) {
    std::fprintf(stderr,
                 "seed %llu: snapshot mismatch (%s, restored %zu results, "
                 "oracle %zu; %s, kill_t=%lld, period=%lld)\n",
                 static_cast<unsigned long long>(p.seed), Mode(p),
                 restored.Results(id).size(), oracle.size(),
                 s.ok() ? "restored" : "fresh run",
                 static_cast<long long>(p.kill_t),
                 static_cast<long long>(p.ckpt_period));
    return false;
  }
  return true;
}

}  // namespace
}  // namespace genmig

int main(int argc, char** argv) {
  using namespace genmig;  // NOLINT

  int cycles = 50;
  uint64_t base_seed = 1;
  std::string outdir = "recovery_failures";
  if (argc > 1) cycles = std::atoi(argv[1]);
  if (argc > 2) base_seed = static_cast<uint64_t>(std::atoll(argv[2]));
  if (argc > 3) outdir = argv[3];
  if (cycles <= 0) {
    std::fprintf(stderr, "usage: %s [cycles] [base_seed] [outdir]\n",
                 argv[0]);
    return 2;
  }
  ::mkdir(outdir.c_str(), 0755);

  int failures = 0;
  int in_migration = 0;
  for (int k = 0; k < cycles; ++k) {
    const CycleParams p = MakeParams(base_seed + static_cast<uint64_t>(k));
    const std::string dir = outdir + "/cycle-" + std::to_string(k);
    ::mkdir(dir.c_str(), 0755);
    std::string cut;
    const bool ok = RunCycle(p, dir, &cut);
    if (cut == "parallel") ++in_migration;
    const std::string sharded =
        p.shards > 1
            ? " migrate_at=" + std::to_string(p.migrate_at) + " cut=" + cut
            : "";
    std::printf("cycle %3d seed %llu: %s (%s, count=%zu delta=%lld "
                "range=%lld period=%lld kill_%s=%lld%s)\n",
                k, static_cast<unsigned long long>(p.seed),
                ok ? "ok" : "FAIL", Mode(p), p.count,
                static_cast<long long>(p.delta),
                static_cast<long long>(p.range),
                static_cast<long long>(p.ckpt_period),
                p.shards > 1 ? "commits" : "t",
                p.shards > 1 ? static_cast<long long>(p.kill_commits)
                             : static_cast<long long>(p.kill_t),
                sharded.c_str());
    std::fflush(stdout);
    if (ok) {
      RemoveFlatDir(dir);
    } else {
      ++failures;  // Keep the directory for the artifact upload.
    }
  }
  ::rmdir(outdir.c_str());  // Succeeds only when no failure kept a dir.
  if (failures > 0) {
    std::printf("recovery_cycle: FAIL — %d of %d cycles did not recover "
                "equivalently (checkpoints kept under %s/)\n",
                failures, cycles, outdir.c_str());
    return 1;
  }
  std::printf("recovery_cycle: OK — %d cycles recovered equivalently (%d "
              "killed after a cut inside a migration)\n",
              cycles, in_migration);
  return 0;
}
