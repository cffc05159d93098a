#include <gtest/gtest.h>

#include "migration_test_util.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.
using testutil::MakeKeyedInputs;
using testutil::RunLogicalMigration;

constexpr Duration kWindow = 60;

LogicalPtr WindowedSource(const std::string& name, Duration w = kWindow) {
  return Window(SourceNode(name, Schema::OfInts({"x"})), w);
}

/// Left-deep 3-way join on the first column.
LogicalPtr LeftDeep3() {
  return EquiJoin(EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0),
                  WindowedSource("S2"), 0, 0);
}
/// Right-deep 3-way join on the first column.
LogicalPtr RightDeep3() {
  return EquiJoin(WindowedSource("S0"),
                  EquiJoin(WindowedSource("S1"), WindowedSource("S2"), 0, 0),
                  0, 0);
}

MigrationController::GenMigOptions CoalesceOpts() {
  MigrationController::GenMigOptions o;
  o.window = kWindow;
  return o;
}

TEST(GenMigTest, JoinReorderingIsSnapshotEquivalent) {
  auto inputs = MakeKeyedInputs(3, 150, 4, 5, /*seed=*/21);
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, Timestamp(200),
      [](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), CoalesceOpts());
      });
  EXPECT_EQ(result.migrations_completed, 1);
  EXPECT_TRUE(IsOrderedByStart(result.output));
  const Status s = ref::CheckPlanOutput(*LeftDeep3(), inputs, result.output);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(GenMigTest, RefPointVariantOnJoinReordering) {
  auto inputs = MakeKeyedInputs(3, 150, 4, 5, /*seed=*/22);
  MigrationController::GenMigOptions opts;
  opts.window = kWindow;
  opts.variant = MigrationController::GenMigOptions::Variant::kRefPoint;
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, Timestamp(200),
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  EXPECT_TRUE(IsOrderedByStart(result.output));
  const Status s = ref::CheckPlanOutput(*LeftDeep3(), inputs, result.output);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(GenMigTest, DedupPushdownIsSnapshotEquivalent) {
  // The paper's Section 3 transformation that breaks PT: duplicate
  // elimination pushed below the join.
  auto old_plan = Dedup(Project(
      EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0), {0}));
  auto new_plan = Project(EquiJoin(Dedup(WindowedSource("S0")),
                                   Dedup(WindowedSource("S1")), 0, 0),
                          {0});
  auto inputs = MakeKeyedInputs(2, 200, 4, 3, /*seed=*/23);
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(250),
      [](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), CoalesceOpts());
      });
  EXPECT_EQ(result.migrations_completed, 1);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
  // The combined output is itself duplicate-free: GenMig's split time makes
  // the two boxes' results disjoint in snapshots (Lemma 1, item 3).
  EXPECT_TRUE(ref::CheckNoDuplicateSnapshots(result.output).ok());
}

TEST(GenMigTest, AggregationRewriteIsSnapshotEquivalent) {
  // Rewrite: selection pushed below the aggregation input join.
  auto pred = Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0),
                            Expr::Const(Value(int64_t{3})));
  auto old_plan = Aggregate(
      Select(EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0),
             pred),
      {0}, {{AggKind::kCount, 0}});
  auto new_plan = Aggregate(
      EquiJoin(Select(WindowedSource("S0"), pred), WindowedSource("S1"), 0,
               0),
      {0}, {{AggKind::kCount, 0}});
  auto inputs = MakeKeyedInputs(2, 150, 5, 5, /*seed=*/24);
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(300),
      [](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), CoalesceOpts());
      });
  EXPECT_EQ(result.migrations_completed, 1);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(GenMigTest, MigrationDurationIsAboutOneWindow) {
  auto inputs = MakeKeyedInputs(3, 300, 4, 5, /*seed=*/25);
  const Timestamp start(400);
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, start,
      [](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), CoalesceOpts());
      });
  EXPECT_EQ(result.migrations_completed, 1);
  // T_split = max t_Si + w + 1 + eps, so the migration spans about w.
  EXPECT_LE(result.t_split.t, start.t + kWindow + 8);
  ASSERT_NE(result.finish_time, Timestamp::MaxInstant());
  const int64_t duration = result.finish_time.t - start.t;
  EXPECT_GE(duration, kWindow);
  EXPECT_LE(duration, kWindow + 16);
}

TEST(GenMigTest, EndTimestampOptimizationShortensMigration) {
  // A plan whose state intervals are much shorter than the declared global
  // window: unwindowed join (unit intervals). Optimization 2 derives
  // T_split from the states and finishes almost immediately.
  auto old_plan = EquiJoin(WindowedSource("S0", 2), WindowedSource("S1", 2),
                           0, 0);
  // New plan: same join expressed as a theta join (hash join replaced by a
  // nested-loops implementation) — a physical re-optimization.
  auto new_plan =
      Join(WindowedSource("S0", 2), WindowedSource("S1", 2),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1)));
  auto inputs = MakeKeyedInputs(2, 200, 4, 3, /*seed=*/26);
  MigrationController::GenMigOptions opts;
  opts.end_timestamp_split = true;
  const Timestamp start(300);
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, start,
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  // T_split derived from states: within a few time units of the trigger.
  EXPECT_LE(result.t_split.t, start.t + 8);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(GenMigTest, EndTimestampSplitPinnedOnMixedStatefulPlan) {
  // Optimization 2 sets T_split just above the largest end timestamp left in
  // the old box, which here holds a hash join, a nested-loops join fed by
  // join results (end timestamps out of order) and a duplicate elimination.
  // The expected value was recorded before the operators' expiry moved to a
  // time-ordered index; it must not change.
  auto old_plan = Dedup(Project(
      Join(EquiJoin(WindowedSource("S0"), WindowedSource("S1", 25), 0, 0),
           WindowedSource("S2", 40),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(2))),
      {0}));
  auto new_plan = Dedup(Project(
      EquiJoin(WindowedSource("S0"),
               Join(WindowedSource("S1", 25), WindowedSource("S2", 40),
                    Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0),
                                  Expr::Column(1))),
               0, 0),
      {0}));
  auto inputs = MakeKeyedInputs(3, 300, 4, 5, /*seed=*/29);
  MigrationController::GenMigOptions opts;
  opts.end_timestamp_split = true;
  const Timestamp start(500);
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, start,
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  EXPECT_EQ(result.t_split, Timestamp(557, 1));
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(GenMigTest, BackToBackMigrations) {
  auto inputs = MakeKeyedInputs(3, 300, 4, 5, /*seed=*/27);
  auto ld_box = logical::StripWindows(LeftDeep3());
  auto rd_box = logical::StripWindows(RightDeep3());
  MigrationController controller("ctrl", CompilePlan(*ld_box));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);
  Executor exec;
  const std::vector<std::string> names = {"S0", "S1", "S2"};
  std::vector<std::unique_ptr<StatelessChain>> windows;
  for (size_t i = 0; i < names.size(); ++i) {
    const int feed = exec.AddFeed(names[i], inputs.at(names[i]));
    windows.push_back(std::make_unique<StatelessChain>(
        "w" + names[i], StatelessChain::Window(kWindow)));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, &controller, static_cast<int>(i));
  }
  exec.RunUntil(Timestamp(200));
  controller.StartGenMig(CompilePlan(*rd_box), CoalesceOpts());
  exec.RunUntil(Timestamp(600));
  ASSERT_FALSE(controller.migration_in_progress());
  controller.StartGenMig(CompilePlan(*ld_box), CoalesceOpts());
  exec.RunToCompletion();
  EXPECT_EQ(controller.migrations_completed(), 2);
  const Status eq =
      ref::CheckPlanOutput(*LeftDeep3(), inputs, sink.collected());
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(GenMigTest, MigrationTriggeredAtStreamEndStillCorrect) {
  auto inputs = MakeKeyedInputs(3, 100, 4, 5, /*seed=*/28);
  // Trigger just before the last elements: streams end mid-migration.
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, Timestamp(390),
      [](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), CoalesceOpts());
      });
  const Status eq = ref::CheckPlanOutput(*LeftDeep3(), inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}


// --- Batched input at the migration boundary ---------------------------------

/// Single-column stream with one element per time unit in [from, to).
MaterializedStream Ticks(int64_t from, int64_t to, int64_t salt) {
  MaterializedStream s;
  for (int64_t t = from; t < to; ++t) {
    s.push_back(testutil::El((t * salt) % 4, t, t + 1));
  }
  return s;
}

/// Rows [from, to) of `s` (one element per time unit from 0) as one batch.
TupleBatch Slice(const MaterializedStream& s, int64_t from, int64_t to) {
  return TupleBatch::FromStream(s, static_cast<size_t>(from),
                                static_cast<size_t>(to - from));
}

TEST(GenMigTest, TSplitSeesThePostBatchWatermark) {
  // A batch spanning more than w time units reaches the box, and a
  // migration starts right after it. T_split must lie above every instant
  // the old box now references, i.e. above the batch's last start + w: the
  // controller picks it from the watermark *after* the batch. Choosing it
  // from the pre-batch watermark gives a T_split the old box has already
  // passed.
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  auto new_plan =
      Join(WindowedSource("S0"), WindowedSource("S1"),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1)));
  const ref::InputMap inputs = {{"S0", Ticks(0, 400, 1)},
                                {"S1", Ticks(0, 400, 3)}};
  const MaterializedStream& s0 = inputs.at("S0");
  const MaterializedStream& s1 = inputs.at("S1");

  MigrationController controller("ctrl",
                                 CompilePlan(*logical::StripWindows(old_plan)));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);
  Source src0("s0");
  Source src1("s1");
  StatelessChain w0("w0", StatelessChain::Window(kWindow));
  StatelessChain w1("w1", StatelessChain::Window(kWindow));
  src0.ConnectTo(0, &w0, 0);
  src1.ConnectTo(0, &w1, 0);
  w0.ConnectTo(0, &controller, 0);
  w1.ConnectTo(0, &controller, 1);

  TupleBatch b = Slice(s0, 0, 10);
  src0.InjectBatch(b);
  b = Slice(s1, 0, 10);
  src1.InjectBatch(b);
  constexpr int64_t kLastStart = 159;
  b = Slice(s0, 10, kLastStart + 1);  // Spans 149 > w time units.
  src0.InjectBatch(b);
  controller.StartGenMig(CompilePlan(*logical::StripWindows(new_plan)),
                         CoalesceOpts());
  ASSERT_TRUE(controller.migration_in_progress());
  EXPECT_GT(controller.t_split().t, kLastStart + kWindow);

  // The rest, alternating batches of 37 rows per stream.
  int64_t next0 = kLastStart + 1;
  int64_t next1 = 10;
  while (next0 < 400 || next1 < 400) {
    if (next1 < 400) {
      b = Slice(s1, next1, std::min<int64_t>(next1 + 37, 400));
      src1.InjectBatch(b);
      next1 += 37;
    }
    if (next0 < 400) {
      b = Slice(s0, next0, std::min<int64_t>(next0 + 37, 400));
      src0.InjectBatch(b);
      next0 += 37;
    }
  }
  src0.Close();
  src1.Close();
  EXPECT_EQ(controller.migrations_completed(), 1);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, sink.collected());
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

/// Collects like CollectorSink and counts the batches that arrive whole.
class BatchCountingSink : public CollectorSink {
 public:
  using CollectorSink::CollectorSink;
  size_t batches() const { return batches_; }

 protected:
  void OnBatch(int in_port, const TupleBatch& batch) override {
    ++batches_;
    CollectorSink::OnBatch(in_port, batch);
  }

 private:
  size_t batches_ = 0;
};

TEST(GenMigTest, BatchesStillLeaveTheControllerAfterAMigration) {
  // Every box swap re-installs the output terminal with its batch hook;
  // without it, the new box's result batches would be split into rows at
  // the controller for the rest of the run.
  auto inputs = MakeKeyedInputs(3, 300, 4, 5, /*seed=*/31);
  MigrationController controller(
      "ctrl", CompilePlan(*logical::StripWindows(LeftDeep3())));
  BatchCountingSink sink("sink");
  controller.ConnectTo(0, &sink, 0);
  Executor::Options opts;
  opts.batch_size = 32;
  Executor exec(opts);
  const std::vector<std::string> names = {"S0", "S1", "S2"};
  std::vector<std::unique_ptr<StatelessChain>> windows;
  for (size_t i = 0; i < names.size(); ++i) {
    const int feed = exec.AddFeed(names[i], inputs.at(names[i]));
    windows.push_back(std::make_unique<StatelessChain>(
        "w" + names[i], StatelessChain::Window(kWindow)));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, &controller, static_cast<int>(i));
  }
  size_t batches_at_completion = 0;
  size_t rows_at_completion = 0;
  exec.after_step = [&]() {
    if (controller.migrations_completed() == 1 && rows_at_completion == 0) {
      batches_at_completion = sink.batches();
      rows_at_completion = sink.count() + 1;  // Non-zero marks "recorded".
    }
  };
  exec.RunUntil(Timestamp(200));
  EXPECT_GT(sink.batches(), 0u);
  controller.StartGenMig(CompilePlan(*logical::StripWindows(RightDeep3())),
                         CoalesceOpts());
  exec.RunToCompletion();
  ASSERT_EQ(controller.migrations_completed(), 1);
  ASSERT_GT(rows_at_completion, 0u);
  // Results after the migration arrive as batches, and plenty of them.
  ASSERT_GT(sink.count() + 1, rows_at_completion + 50);
  EXPECT_GT(sink.batches(), batches_at_completion + 5);
  const Status eq =
      ref::CheckPlanOutput(*LeftDeep3(), inputs, sink.collected());
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

}  // namespace
}  // namespace genmig
