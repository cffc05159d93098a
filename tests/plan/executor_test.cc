#include "plan/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "../test_util.h"
#include "engine/dsms.h"
#include "ops/union_op.h"
#include "ref/checker.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using testutil::El;

MaterializedStream Stream(std::initializer_list<int64_t> starts) {
  MaterializedStream s;
  int64_t v = 0;
  for (int64_t t : starts) s.push_back(El(v++, t, t + 1));
  return s;
}

TEST(ExecutorTest, GlobalOrderInterleavesFeeds) {
  Executor exec;
  UnionOp u("u", 2);
  CollectorSink sink("k");
  const int f0 = exec.AddFeed("a", Stream({0, 10, 20}));
  const int f1 = exec.AddFeed("b", Stream({5, 15}));
  exec.ConnectFeed(f0, &u, 0);
  exec.ConnectFeed(f1, &u, 1);
  u.ConnectTo(0, &sink, 0);
  exec.RunToCompletion();
  ASSERT_EQ(sink.count(), 5u);
  EXPECT_TRUE(IsOrderedByStart(sink.collected()));
  EXPECT_TRUE(exec.finished());
  EXPECT_EQ(exec.pushed_count(), 5u);
}

TEST(ExecutorTest, RunUntilStopsBeforeTimestamp) {
  Executor exec;
  CollectorSink sink("k");
  const int f0 = exec.AddFeed("a", Stream({0, 10, 20, 30}));
  exec.ConnectFeed(f0, &sink, 0);
  exec.RunUntil(Timestamp(20));
  EXPECT_EQ(sink.count(), 2u);  // 0 and 10; 20 not yet pushed.
  exec.RunToCompletion();
  EXPECT_EQ(sink.count(), 4u);
  EXPECT_TRUE(sink.finished());
}

TEST(ExecutorTest, ClosesSourcesWhenExhausted) {
  Executor exec;
  UnionOp u("u", 2);
  CollectorSink sink("k");
  const int f0 = exec.AddFeed("a", Stream({0}));
  const int f1 = exec.AddFeed("b", Stream({100}));
  exec.ConnectFeed(f0, &u, 0);
  exec.ConnectFeed(f1, &u, 1);
  u.ConnectTo(0, &sink, 0);
  exec.RunToCompletion();
  // Feed a closed early so the union could release feed b's element.
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(sink.count(), 2u);
}

TEST(ExecutorTest, RandomPolicyStillYieldsOrderedUnionOutput) {
  Executor::Options opts;
  opts.policy = Executor::Policy::kRandom;
  opts.seed = 99;
  Executor exec(opts);
  UnionOp u("u", 2);
  CollectorSink sink("k");
  MaterializedStream a;
  MaterializedStream b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(El(i, i * 2, i * 2 + 5));
    b.push_back(El(100 + i, i * 3, i * 3 + 5));
  }
  const int f0 = exec.AddFeed("a", a);
  const int f1 = exec.AddFeed("b", b);
  exec.ConnectFeed(f0, &u, 0);
  exec.ConnectFeed(f1, &u, 1);
  u.ConnectTo(0, &sink, 0);
  exec.RunToCompletion();
  EXPECT_EQ(sink.count(), 100u);
  EXPECT_TRUE(IsOrderedByStart(sink.collected()));
}

TEST(ExecutorTest, EagerHeartbeatsReleaseBufferedResultsEarly) {
  // Without heartbeats the union holds feed a's element back until feed b
  // catches up by delivering an element; with eager heartbeats feed b
  // announces its next start timestamp immediately.
  for (const bool eager : {false, true}) {
    Executor::Options opts;
    opts.policy = Executor::Policy::kRoundRobin;
    opts.eager_heartbeats = eager;
    Executor exec(opts);
    UnionOp u("u", 2);
    CollectorSink sink("k");
    // Feed a at t=10; feed b's first element at t=500.
    const int f0 = exec.AddFeed("a", {El(1, 10, 11)});
    const int f1 = exec.AddFeed("b", {El(2, 500, 501), El(3, 600, 601)});
    exec.ConnectFeed(f0, &u, 0);
    exec.ConnectFeed(f1, &u, 1);
    u.ConnectTo(0, &sink, 0);
    exec.Step();  // Pushes a's element.
    if (eager) {
      EXPECT_EQ(sink.count(), 1u);  // b announced t=500: release t=10.
    } else {
      EXPECT_EQ(sink.count(), 0u);  // Held until b actually delivers.
    }
    exec.RunToCompletion();
    EXPECT_EQ(sink.count(), 3u);
  }
}

TEST(ExecutorTest, AfterStepHookFires) {
  Executor exec;
  CollectorSink sink("k");
  const int f0 = exec.AddFeed("a", Stream({0, 1, 2}));
  exec.ConnectFeed(f0, &sink, 0);
  int calls = 0;
  exec.after_step = [&calls]() { ++calls; };
  exec.RunToCompletion();
  EXPECT_EQ(calls, 3);
}

TEST(ExecutorTest, CurrentTimeTracksPushes) {
  Executor exec;
  CollectorSink sink("k");
  const int f0 = exec.AddFeed("a", Stream({7, 9}));
  exec.ConnectFeed(f0, &sink, 0);
  exec.Step();
  EXPECT_EQ(exec.current_time(), Timestamp(7));
  exec.RunToCompletion();
  EXPECT_EQ(exec.current_time(), Timestamp(9));
}

// --- Batched injection: the time-slice rule ---------------------------------

/// `n` single-column elements from `first` on, random gaps in [0, max_gap].
MaterializedStream Gapped(size_t n, int64_t first, uint64_t seed,
                          int64_t max_gap) {
  std::mt19937_64 rng(seed);
  MaterializedStream s;
  int64_t t = first;
  for (size_t i = 0; i < n; ++i) {
    s.push_back(El(static_cast<int64_t>(i), t, t + 1));
    t += static_cast<int64_t>(rng() % static_cast<uint64_t>(max_gap + 1));
  }
  return s;
}

/// `n` single-column elements at t = 0, 1, 2, ...
MaterializedStream Periodic(size_t n) {
  MaterializedStream s;
  for (int64_t t = 0; t < static_cast<int64_t>(n); ++t) {
    s.push_back(El(t, t, t + 1));
  }
  return s;
}

/// One sink per feed, so a test sees how far every feed got.
struct SlicedRun {
  explicit SlicedRun(Executor::Options options) : exec(options) {}

  void Add(MaterializedStream s) {
    data.push_back(s);
    sinks.push_back(std::make_unique<CollectorSink>(
        "k" + std::to_string(sinks.size())));
    const int f = exec.AddFeed("f" + std::to_string(data.size()), s);
    exec.ConnectFeed(f, sinks.back().get(), 0);
  }
  size_t Pushed(size_t feed) const { return sinks[feed]->count(); }
  size_t Pending(size_t feed) const { return data[feed].size() - Pushed(feed); }
  size_t TotalPushed() const {
    size_t n = 0;
    for (size_t f = 0; f < data.size(); ++f) n += Pushed(f);
    return n;
  }
  /// The k-th smallest pending start over all feeds, MaxInstant when fewer
  /// than k rows are pending (computed from scratch, not by the executor).
  Timestamp KthPendingStart(size_t k) const {
    std::vector<Timestamp> pending;
    for (size_t f = 0; f < data.size(); ++f) {
      for (size_t i = Pushed(f); i < data[f].size(); ++i) {
        pending.push_back(data[f][i].interval.start);
      }
    }
    if (pending.size() < k) return Timestamp::MaxInstant();
    std::sort(pending.begin(), pending.end());
    return pending[k - 1];
  }

  Executor exec;
  std::vector<MaterializedStream> data;
  std::vector<std::unique_ptr<CollectorSink>> sinks;
};

TEST(ExecutorTest, TimeSliceBatchesStayLargeOnLockstepFeeds) {
  Executor::Options opts;
  opts.batch_size = 256;
  SlicedRun lockstep(opts);
  lockstep.Add(Periodic(3000));  // Period 1, equal timestamps on both.
  lockstep.Add(Periodic(3000));
  size_t steps = 0;
  size_t full_steps = 0;
  while (true) {
    const bool mid_stream = lockstep.Pending(0) >= opts.batch_size &&
                            lockstep.Pending(1) >= opts.batch_size;
    const size_t before = lockstep.TotalPushed();
    if (!lockstep.exec.Step()) break;
    const size_t rows = lockstep.TotalPushed() - before;
    ++steps;
    if (mid_stream) {
      ++full_steps;
      EXPECT_GE(rows, 64u) << "step " << steps;
    }
  }
  EXPECT_EQ(lockstep.TotalPushed(), 6000u);
  EXPECT_GT(full_steps, 20u);
  // About 6000 / 170 steps; cutting at the other feed's next start (equal
  // timestamps here) would take 3000.
  EXPECT_LT(steps, 60u);
}

TEST(ExecutorTest, TimeSliceNeverPassesTheKthPendingStart) {
  for (const size_t batch : {2u, 7u, 32u}) {
    Executor::Options opts;
    opts.batch_size = batch;
    SlicedRun run(opts);
    run.Add(Gapped(400, 0, 11 + batch, 3));
    run.Add(Gapped(300, 5, 12 + batch, 5));
    run.Add(Gapped(500, 2, 13 + batch, 2));
    while (true) {
      const Timestamp bound = run.KthPendingStart(batch);
      std::vector<size_t> before;
      for (size_t f = 0; f < run.data.size(); ++f) {
        before.push_back(run.Pushed(f));
      }
      if (!run.exec.Step()) break;
      for (size_t f = 0; f < run.data.size(); ++f) {
        for (size_t i = before[f]; i < run.Pushed(f); ++i) {
          EXPECT_LE(run.sinks[f]->collected()[i].interval.start, bound)
              << "batch " << batch << " feed " << f << " row " << i;
        }
      }
    }
    EXPECT_EQ(run.TotalPushed(), 1200u);
  }
}

TEST(ExecutorTest, RunUntilStillTruncatesBatches) {
  Executor::Options opts;
  opts.batch_size = 256;
  SlicedRun run(opts);
  run.Add(Periodic(1000));
  run.Add(Periodic(1000));
  run.exec.RunUntil(Timestamp(100));
  for (size_t f = 0; f < 2; ++f) {
    ASSERT_EQ(run.Pushed(f), 100u) << f;  // Exactly the rows with start < 100.
    EXPECT_EQ(run.sinks[f]->collected().back().interval.start, Timestamp(99));
  }
  run.exec.RunUntil(Timestamp(450));
  EXPECT_EQ(run.Pushed(0), 450u);
  EXPECT_EQ(run.Pushed(1), 450u);
}

TEST(ExecutorTest, RoundRobinAndRandomBatchesIgnoreTheSliceBound) {
  // The slice rule is kGlobalOrder's: the other policies keep taking up to
  // batch_size consecutive rows of the chosen feed, however far ahead of the
  // other feeds that runs.
  for (const Executor::Policy policy :
       {Executor::Policy::kRoundRobin, Executor::Policy::kRandom}) {
    Executor::Options opts;
    opts.policy = policy;
    opts.seed = 5;
    opts.batch_size = 8;
    SlicedRun run(opts);
    run.Add(Periodic(100));             // Dense: t = 0..99.
    run.Add(Gapped(30, 1000, 2, 100));  // Far in the future.
    while (true) {
      const std::vector<size_t> pending = {run.Pending(0), run.Pending(1)};
      const size_t before = run.TotalPushed();
      if (!run.exec.Step()) break;
      const size_t rows = run.TotalPushed() - before;
      // One feed advanced by a full batch (or its whole remainder).
      const bool took0 = run.Pending(0) != pending[0];
      const size_t want = std::min<size_t>(opts.batch_size,
                                           pending[took0 ? 0 : 1]);
      EXPECT_EQ(rows, want);
    }
    EXPECT_EQ(run.TotalPushed(), 130u);
  }
}

TEST(ExecutorTest, BatchedCheckpointRestoreMatchesUninterruptedRun) {
  // The slice bound is a pure function of the feed positions, so a restored
  // engine cuts exactly the batches the uninterrupted one cuts, from the
  // unchanged checkpoint format.
  auto setup = [](Dsms* dsms) {
    dsms->RegisterStream("A", Schema::OfInts({"k"}),
                         ToPhysicalStream(GenerateKeyedStream(900, 1, 7, 3)));
    DisorderBuffer::Options disorder;
    disorder.delta = 8;
    MaterializedStream b =
        ToPhysicalStream(GenerateKeyedStream(700, 2, 7, 4));
    std::swap(b[10], b[12]);  // A little arrival disorder.
    std::swap(b[300], b[303]);
    dsms->RegisterDisorderedStream("B", Schema::OfInts({"k"}), b, disorder);
    auto id = dsms->InstallQuery(
        "SELECT A.k FROM A [RANGE 40], B [RANGE 40] WHERE A.k = B.k");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? id.value() : Dsms::QueryId{0};
  };
  // Application time after every Step: it moves to the last start of each
  // injected batch, so equal sequences mean equal batch cuts.
  auto run_steps = [](Dsms* dsms) {
    std::vector<Timestamp> times;
    while (dsms->Step()) times.push_back(dsms->current_time());
    return times;
  };
  constexpr size_t kCut = 9;
  Dsms::Options options;
  options.executor.batch_size = 64;
  MaterializedStream oracle;
  std::vector<Timestamp> oracle_times;
  {
    Dsms dsms(options);
    const Dsms::QueryId id = setup(&dsms);
    oracle_times = run_steps(&dsms);
    oracle = dsms.Results(id);
  }
  ASSERT_GT(oracle.size(), 100u);
  ASSERT_GT(oracle_times.size(), kCut + 10);

  std::string dir = ::testing::TempDir() + "exec_slice_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  options.checkpoint_dir = dir;
  {
    Dsms dsms(options);
    setup(&dsms);
    for (size_t i = 0; i < kCut; ++i) ASSERT_TRUE(dsms.Step());
    ASSERT_TRUE(dsms.Checkpoint().ok());
  }
  Dsms restored(options);
  const Dsms::QueryId id = setup(&restored);
  ASSERT_TRUE(restored.Restore().ok());
  const std::vector<Timestamp> times = run_steps(&restored);
  EXPECT_EQ(times, std::vector<Timestamp>(oracle_times.begin() + kCut,
                                          oracle_times.end()));
  // The same results. Port watermarks are not part of a checkpoint (they
  // come back with the next pushes), so results with equal start
  // timestamps may leave the join's ordering buffer in another order; the
  // restore suite's contract is the snapshot normal form.
  EXPECT_EQ(ref::SnapshotNormalForm(restored.Results(id)),
            ref::SnapshotNormalForm(oracle));
  auto by_text = [](const StreamElement& a, const StreamElement& b) {
    return a.ToString() < b.ToString();
  };
  MaterializedStream got = restored.Results(id);
  std::sort(got.begin(), got.end(), by_text);
  std::sort(oracle.begin(), oracle.end(), by_text);
  EXPECT_EQ(got, oracle);
}

}  // namespace
}  // namespace genmig
