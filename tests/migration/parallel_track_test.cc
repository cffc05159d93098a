#include <gtest/gtest.h>

#include "migration_test_util.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.
using testutil::MakeKeyedInputs;
using testutil::RunLogicalMigration;

constexpr Duration kWindow = 60;

LogicalPtr WindowedSource(const std::string& name) {
  return Window(SourceNode(name, Schema::OfInts({"x"})), kWindow);
}
LogicalPtr LeftDeep3() {
  return EquiJoin(EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0),
                  WindowedSource("S2"), 0, 0);
}
LogicalPtr RightDeep3() {
  return EquiJoin(WindowedSource("S0"),
                  EquiJoin(WindowedSource("S1"), WindowedSource("S2"), 0, 0),
                  0, 0);
}

TEST(ParallelTrackTest, JoinReorderingIsSnapshotEquivalent) {
  // For pure join plans PT is correct — the case it was designed for.
  auto inputs = MakeKeyedInputs(3, 200, 4, 5, /*seed=*/41);
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, Timestamp(250),
      [](MigrationController& c, Box b) {
        c.StartParallelTrack(std::move(b), kWindow);
      },
      Executor::Options(), /*relax_sink=*/true);
  EXPECT_EQ(result.migrations_completed, 1);
  const Status eq = ref::CheckPlanOutput(*LeftDeep3(), inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(ParallelTrackTest, MigrationTakesAboutTwoWindows) {
  // PT ends when all pre-migration elements are purged: for a join tree
  // with more than one join this takes about 2w (Section 4.4) — old-flagged
  // intermediate results can combine an old element with one that arrived
  // up to w after migration start.
  auto inputs = MakeKeyedInputs(3, 300, 4, 3, /*seed=*/42);
  const Timestamp start(300);
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, start,
      [](MigrationController& c, Box b) {
        c.StartParallelTrack(std::move(b), kWindow);
      },
      Executor::Options(), /*relax_sink=*/true);
  EXPECT_EQ(result.migrations_completed, 1);
  ASSERT_NE(result.finish_time, Timestamp::MaxInstant());
  const int64_t duration = result.finish_time.t - start.t;
  EXPECT_GT(duration, kWindow + kWindow / 2);  // Clearly beyond w.
  EXPECT_LE(duration, 2 * kWindow + 16);
}

TEST(ParallelTrackTest, NewBoxOutputIsBufferedUntilMigrationEnd) {
  auto inputs = MakeKeyedInputs(2, 200, 4, 3, /*seed=*/43);
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  auto new_plan =
      Join(WindowedSource("S0"), WindowedSource("S1"),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1)));

  MigrationController controller("ctrl",
                                 CompilePlan(*logical::StripWindows(old_plan)));
  CollectorSink sink("sink");
  sink.SetRelaxedInputOrdering(0);
  controller.ConnectTo(0, &sink, 0);
  Executor exec;
  StatelessChain w0("w0", StatelessChain::Window(kWindow));
  StatelessChain w1("w1", StatelessChain::Window(kWindow));
  exec.ConnectFeed(exec.AddFeed("S0", inputs.at("S0")), &w0, 0);
  exec.ConnectFeed(exec.AddFeed("S1", inputs.at("S1")), &w1, 0);
  w0.ConnectTo(0, &controller, 0);
  w1.ConnectTo(0, &controller, 1);
  exec.RunUntil(Timestamp(300));
  controller.StartParallelTrack(CompilePlan(*logical::StripWindows(new_plan)), kWindow);
  exec.RunUntil(Timestamp(330));
  ASSERT_TRUE(controller.migration_in_progress());
  EXPECT_GT(controller.pt_buffered(), 0u);
  exec.RunToCompletion();
  EXPECT_EQ(controller.pt_buffered(), 0u);
  EXPECT_EQ(controller.migrations_completed(), 1);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, sink.collected());
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(ParallelTrackTest, DropsOldBoxResultsFlaggedNew) {
  auto inputs = MakeKeyedInputs(2, 200, 4, 3, /*seed=*/44);
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  auto new_plan =
      Join(WindowedSource("S0"), WindowedSource("S1"),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1)));
  MigrationController controller("ctrl",
                                 CompilePlan(*logical::StripWindows(old_plan)));
  CollectorSink sink("sink");
  sink.SetRelaxedInputOrdering(0);
  controller.ConnectTo(0, &sink, 0);
  Executor exec;
  StatelessChain w0("w0", StatelessChain::Window(kWindow));
  StatelessChain w1("w1", StatelessChain::Window(kWindow));
  exec.ConnectFeed(exec.AddFeed("S0", inputs.at("S0")), &w0, 0);
  exec.ConnectFeed(exec.AddFeed("S1", inputs.at("S1")), &w1, 0);
  w0.ConnectTo(0, &controller, 0);
  w1.ConnectTo(0, &controller, 1);
  exec.RunUntil(Timestamp(300));
  controller.StartParallelTrack(CompilePlan(*logical::StripWindows(new_plan)), kWindow);
  exec.RunToCompletion();
  // During migration the old box produced all-new results too; PT must have
  // dropped them (they arrive via the new box's buffer instead).
  EXPECT_GT(controller.pt_dropped(), 0u);
}

TEST(ParallelTrackTest, StreamsEndingMidMigrationStillFlushBuffer) {
  auto inputs = MakeKeyedInputs(3, 100, 4, 3, /*seed=*/45);
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, Timestamp(380),
      [](MigrationController& c, Box b) {
        c.StartParallelTrack(std::move(b), kWindow);
      },
      Executor::Options(), /*relax_sink=*/true);
  const Status eq = ref::CheckPlanOutput(*LeftDeep3(), inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

}  // namespace
}  // namespace genmig
