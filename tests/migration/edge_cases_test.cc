// Migration edge cases: stateless plans, single-input plans, migrations
// triggered before any data, Optimization 2 on empty states and on
// count-windowed plans, heartbeat-driven migration completion.

#include <gtest/gtest.h>

#include "migration/join_tree.h"
#include "migration_test_util.h"
#include "ops/count_window.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.
using testutil::El;
using testutil::MakeKeyedInputs;
using testutil::RunLogicalMigration;

constexpr Duration kWindow = 40;

LogicalPtr WindowedSource(const std::string& name) {
  return Window(SourceNode(name, Schema::OfInts({"x"})), kWindow);
}

TEST(MigrationEdgeCases, StatelessPlanMigratesCleanly) {
  // "Dynamic plan migration is easy as long as query plans only consist of
  // stateless operators" (Section 1) — GenMig must of course handle it too.
  auto lt = Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0),
                          Expr::Const(Value(int64_t{2})));
  auto ge = Expr::Compare(Expr::CmpOp::kGe, Expr::Column(0),
                          Expr::Const(Value(int64_t{0})));
  auto old_plan = Select(Select(WindowedSource("S0"), ge), lt);
  auto new_plan = Select(WindowedSource("S0"), Expr::And(ge, lt));
  auto inputs = MakeKeyedInputs(1, 150, 4, 5, /*seed=*/201);
  MigrationController::GenMigOptions opts;
  opts.window = kWindow;
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(200),
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(MigrationEdgeCases, SingleInputStatefulPlan) {
  auto old_plan = Dedup(WindowedSource("S0"));
  auto new_plan = Dedup(Dedup(WindowedSource("S0")));  // Idempotent rewrite.
  auto inputs = MakeKeyedInputs(1, 150, 4, 3, /*seed=*/202);
  MigrationController::GenMigOptions opts;
  opts.window = kWindow;
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(250),
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(MigrationEdgeCases, MigrationRequestedBeforeAnyData) {
  // Algorithm 1 waits until a start timestamp was observed on every input.
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  auto new_plan =
      Join(WindowedSource("S0"), WindowedSource("S1"),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1)));
  auto inputs = MakeKeyedInputs(2, 100, 4, 3, /*seed=*/203);
  MigrationController::GenMigOptions opts;
  opts.window = kWindow;
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(0),  // Before the first element.
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
        EXPECT_EQ(c.phase(), MigrationController::Phase::kWaitingTimestamps);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(MigrationEdgeCases, Opt2WithEmptyStatesFinishesImmediately) {
  // Elements arrive in two bursts; the migration is triggered in the gap,
  // when every state already expired. Optimization 2's T_split then falls
  // at the watermark and the old box is drained at once.
  ref::InputMap inputs;
  MaterializedStream s;
  for (int i = 0; i < 20; ++i) s.push_back(El(i % 3, i * 4, i * 4 + 1));
  for (int i = 0; i < 20; ++i) {
    s.push_back(El(i % 3, 1000 + i * 4, 1000 + i * 4 + 1));
  }
  inputs["S0"] = s;
  inputs["S1"] = s;
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  auto new_plan =
      Join(WindowedSource("S0"), WindowedSource("S1"),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1)));
  MigrationController::GenMigOptions opts;
  opts.end_timestamp_split = true;
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(500),  // In the gap.
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  // T_split sits at the pre-gap watermark, far below trigger + w.
  EXPECT_LE(result.t_split.t, 200);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(MigrationEdgeCases, CountWindowPlanMigratesWithOpt2) {
  // Count-based windows have no a-priori bound on validity length, so
  // Algorithm 1's "max t_Si + w" does not apply — but Optimization 2 works:
  // the maximum end timestamp inside the old box is known exactly.
  auto inputs = MakeKeyedInputs(1, 200, 5, 3, /*seed=*/204);

  auto run_one = [&](bool migrate) {
    MigrationController controller(
        "ctrl",
        CompilePlan(*StripWindows(
            Dedup(SourceNode("S0", Schema::OfInts({"x"}))))));
    CollectorSink sink("sink");
    controller.ConnectTo(0, &sink, 0);
    Executor exec;
    CountWindow window("cw", 10);
    exec.ConnectFeed(exec.AddFeed("S0", inputs.at("S0")), &window, 0);
    window.ConnectTo(0, &controller, 0);
    exec.RunUntil(Timestamp(400));
    if (migrate) {
      MigrationController::GenMigOptions opts;
      opts.end_timestamp_split = true;
      controller.StartGenMig(
          CompilePlan(*StripWindows(
              Dedup(SourceNode("S0", Schema::OfInts({"x"}))))),
          opts);
    }
    exec.RunToCompletion();
    EXPECT_EQ(controller.migrations_completed(), migrate ? 1 : 0);
    return sink.collected();
  };

  const MaterializedStream baseline = run_one(false);
  const MaterializedStream migrated = run_one(true);
  const Status eq = ref::CheckSnapshotEquivalence(baseline, migrated);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(MigrationEdgeCases, HeartbeatsCompleteAMigrationOnAStalledStream) {
  // One input stalls right after the migration starts; a heartbeat (paper:
  // [11]) advances its watermark past T_split so the migration can end.
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  Box old_box = CompilePlan(*StripWindows(old_plan));
  Box new_box = CompilePlan(*StripWindows(old_plan));
  MigrationController controller("ctrl", std::move(old_box));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);

  Source s0("s0");
  Source s1("s1");
  StatelessChain w0("w0", StatelessChain::Window(kWindow));
  StatelessChain w1("w1", StatelessChain::Window(kWindow));
  s0.ConnectTo(0, &w0, 0);
  s1.ConnectTo(0, &w1, 0);
  w0.ConnectTo(0, &controller, 0);
  w1.ConnectTo(0, &controller, 1);

  for (int t = 0; t < 100; t += 5) {
    s0.Inject(El(t % 3, t, t + 1));
    s1.Inject(El(t % 3, t, t + 1));
  }
  MigrationController::GenMigOptions opts;
  opts.window = kWindow;
  controller.StartGenMig(std::move(new_box), opts);
  ASSERT_TRUE(controller.migration_in_progress());

  // Only stream 0 keeps delivering; stream 1 stalls.
  for (int t = 100; t < 300; t += 5) s0.Inject(El(t % 3, t, t + 1));
  EXPECT_TRUE(controller.migration_in_progress());

  // A heartbeat on the stalled stream releases the migration.
  s1.InjectHeartbeat(Timestamp(300));
  EXPECT_FALSE(controller.migration_in_progress());
  EXPECT_EQ(controller.migrations_completed(), 1);

  s0.Close();
  s1.Close();
  EXPECT_TRUE(IsOrderedByStart(sink.collected()));
}

TEST(MigrationEdgeCases, ChainedStrategiesOnOnePlan) {
  // GenMig, then Parallel Track, back to back on the same controller.
  auto inputs = MakeKeyedInputs(3, 400, 4, 5, /*seed=*/205);
  auto make_plan = [&]() {
    return BuildJoinTree(JoinShape::LeftDeep(3), 3,
                         [](const Tuple& l, const Tuple& r) {
                           return l.field(0) == r.field(0);
                         });
  };
  auto old_plan = make_plan();
  MigrationController controller("ctrl", std::move(old_plan.box));
  CollectorSink sink("sink");
  sink.SetRelaxedInputOrdering(0);  // PT leg.
  controller.ConnectTo(0, &sink, 0);
  Executor exec;
  std::vector<std::unique_ptr<StatelessChain>> windows;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "S" + std::to_string(i);
    const int feed = exec.AddFeed(name, inputs.at(name));
    windows.push_back(std::make_unique<StatelessChain>(
        "w" + name, StatelessChain::Window(kWindow)));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, &controller, i);
  }

  exec.RunUntil(Timestamp(200));
  MigrationController::GenMigOptions opts;
  opts.window = kWindow;
  controller.StartGenMig(CompilePlan(*StripWindows(EquiJoin(
                             EquiJoin(WindowedSource("S0"),
                                      WindowedSource("S1"), 0, 0),
                             WindowedSource("S2"), 0, 0))),
                         opts);
  exec.RunUntil(Timestamp(500));
  ASSERT_FALSE(controller.migration_in_progress());

  // Back to a join-tree box via PT (hash -> NLJ is fine for PT).
  auto pt_target = make_plan();
  controller.StartParallelTrack(std::move(pt_target.box), kWindow);
  exec.RunUntil(Timestamp(1000));
  ASSERT_FALSE(controller.migration_in_progress());
  EXPECT_EQ(controller.migrations_completed(), 2);

  exec.RunToCompletion();
  // Oracle check against the logical twin.
  auto logical_plan = EquiJoin(
      EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0),
      WindowedSource("S2"), 0, 0);
  const Status eq =
      ref::CheckPlanOutput(*logical_plan, inputs, sink.collected());
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(MigrationEdgeCases, MigrationWithAnEmptyInputStream) {
  // One input never delivers anything: it reaches EOS at the first step and
  // must not block the monitoring phase or the migration end.
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  auto new_plan =
      Join(WindowedSource("S0"), WindowedSource("S1"),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1)));
  ref::InputMap inputs;
  inputs["S0"] = testutil::MakeKeyedInputs(1, 100, 4, 3, 206).at("S0");
  inputs["S1"] = {};  // Empty stream.
  MigrationController::GenMigOptions opts;
  opts.window = kWindow;
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(100),
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  EXPECT_TRUE(result.output.empty());  // Join with an empty side.
}

TEST(MigrationEdgeCases, RefPointAndOpt2Combined) {
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  auto new_plan =
      Join(WindowedSource("S0"), WindowedSource("S1"),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1)));
  auto inputs = MakeKeyedInputs(2, 150, 4, 3, /*seed=*/207);
  MigrationController::GenMigOptions opts;
  opts.variant = MigrationController::GenMigOptions::Variant::kRefPoint;
  opts.end_timestamp_split = true;
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(250),
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(result.migrations_completed, 1);
  const Status eq = ref::CheckPlanOutput(*old_plan, inputs, result.output);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

}  // namespace
}  // namespace genmig
