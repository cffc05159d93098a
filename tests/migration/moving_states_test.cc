#include <gtest/gtest.h>

#include "migration/join_tree.h"
#include "migration_test_util.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.
using testutil::MakeKeyedInputs;

constexpr Duration kWindow = 60;

NestedLoopsJoin::Predicate EqOnFirst() {
  return [](const Tuple& l, const Tuple& r) {
    return l.field(0) == r.field(0);
  };
}

/// Logical twin of the join-tree plans, for the reference oracle.
LogicalPtr LogicalJoinTree(int n, bool left_deep) {
  auto ws = [&](int i) {
    return Window(SourceNode("S" + std::to_string(i),
                             Schema::OfInts({"x"})),
                  kWindow);
  };
  if (left_deep) {
    LogicalPtr plan = ws(0);
    for (int i = 1; i < n; ++i) plan = EquiJoin(plan, ws(i), 0, 0);
    return plan;
  }
  LogicalPtr plan = ws(n - 1);
  for (int i = n - 2; i >= 0; --i) plan = EquiJoin(ws(i), plan, 0, 0);
  return plan;
}

TEST(JoinShapeTest, LeftAndRightDeepShapes) {
  auto ld = JoinShape::LeftDeep(3);
  EXPECT_FALSE(ld->is_leaf());
  EXPECT_TRUE(ld->right->is_leaf());
  EXPECT_EQ(ld->right->leaf, 2);
  auto rd = JoinShape::RightDeep(3);
  EXPECT_TRUE(rd->left->is_leaf());
  EXPECT_EQ(rd->left->leaf, 0);
}

TEST(BuildJoinTreeTest, LeafStateMapping) {
  auto plan = BuildJoinTree(JoinShape::LeftDeep(4), 4, EqOnFirst());
  EXPECT_EQ(plan.box.num_inputs(), 4);
  ASSERT_EQ(plan.leaf_state.size(), 4u);
  // Leaves 0 and 1 share the bottom join.
  EXPECT_EQ(plan.leaf_state[0].first, plan.leaf_state[1].first);
  EXPECT_EQ(plan.leaf_state[0].second, 0);
  EXPECT_EQ(plan.leaf_state[1].second, 1);
  // Leaves 2 and 3 sit on the right side of their joins.
  EXPECT_EQ(plan.leaf_state[2].second, 1);
  EXPECT_EQ(plan.leaf_state[3].second, 1);
}

TEST(BuildJoinTreeTest, ProducesSameResultsAsLogicalPlan) {
  auto inputs = MakeKeyedInputs(3, 120, 4, 4, /*seed=*/51);
  auto plan = BuildJoinTree(JoinShape::LeftDeep(3), 3, EqOnFirst());
  CollectorSink sink("sink");
  plan.box.output()->ConnectTo(0, &sink, 0);
  Executor exec;
  std::vector<std::unique_ptr<StatelessChain>> windows;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "S" + std::to_string(i);
    const int feed = exec.AddFeed(name, inputs.at(name));
    windows.push_back(std::make_unique<StatelessChain>(
        "w" + name, StatelessChain::Window(kWindow)));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, plan.box.input(i), 0);
  }
  exec.RunToCompletion();
  const Status eq = ref::CheckPlanOutput(*LogicalJoinTree(3, true), inputs,
                                         sink.collected());
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(MovingStatesTest, JoinReorderingIsSnapshotEquivalent) {
  auto inputs = MakeKeyedInputs(3, 200, 4, 5, /*seed=*/52);
  auto old_plan =
      BuildJoinTree(JoinShape::LeftDeep(3), 3, EqOnFirst());
  auto new_plan =
      BuildJoinTree(JoinShape::RightDeep(3), 3, EqOnFirst());

  MigrationController controller("ctrl", std::move(old_plan.box));
  CollectorSink sink("sink");
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
  exec.RunUntil(Timestamp(300));
  controller.StartMovingStates(std::move(new_plan.box),
                               MakeJoinTreeSeeder(&old_plan, &new_plan));
  // Moving States is instantaneous.
  EXPECT_FALSE(controller.migration_in_progress());
  EXPECT_EQ(controller.migrations_completed(), 1);
  exec.RunToCompletion();
  const Status eq = ref::CheckPlanOutput(*LogicalJoinTree(3, true), inputs,
                                         sink.collected());
  EXPECT_TRUE(eq.ok()) << eq.ToString();
  EXPECT_TRUE(IsOrderedByStart(sink.collected()));
}

TEST(MovingStatesTest, FourWayReorderWithSeededIntermediates) {
  auto inputs = MakeKeyedInputs(4, 150, 5, 6, /*seed=*/53);
  auto old_plan =
      BuildJoinTree(JoinShape::LeftDeep(4), 4, EqOnFirst());
  auto new_plan =
      BuildJoinTree(JoinShape::RightDeep(4), 4, EqOnFirst());
  MigrationController controller("ctrl", std::move(old_plan.box));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);
  Executor exec;
  std::vector<std::unique_ptr<StatelessChain>> windows;
  for (int i = 0; i < 4; ++i) {
    const std::string name = "S" + std::to_string(i);
    const int feed = exec.AddFeed(name, inputs.at(name));
    windows.push_back(std::make_unique<StatelessChain>(
        "w" + name, StatelessChain::Window(kWindow)));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, &controller, i);
  }
  exec.RunUntil(Timestamp(400));
  controller.StartMovingStates(std::move(new_plan.box),
                               MakeJoinTreeSeeder(&old_plan, &new_plan));
  // The new right-deep tree's intermediate join states were re-derived.
  exec.RunToCompletion();
  const Status eq = ref::CheckPlanOutput(*LogicalJoinTree(4, true), inputs,
                                         sink.collected());
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(MovingStatesTest, CorrectUnderGlobalOrderAcrossSeeds) {
  // NOTE: Moving States fundamentally requires globally synchronized
  // (temporal-order) scheduling: under skewed delivery each join expires
  // state by its LOCAL watermark, so an intermediate result can outlive its
  // base elements' residence in the leaf states — the seeder then cannot
  // re-derive it and results are silently lost. This is exactly the kind of
  // operator-internal coupling the paper's black-box argument against MS
  // points at; GenMig is scheduling-agnostic (Remark 2, tested in the
  // property sweeps). Hence: global order only.
  for (uint64_t seed : {71u, 72u, 73u}) {
    auto inputs = MakeKeyedInputs(3, 150, 4, 4, seed);
    auto old_plan = BuildJoinTree(JoinShape::LeftDeep(3), 3, EqOnFirst());
    auto new_plan = BuildJoinTree(JoinShape::RightDeep(3), 3, EqOnFirst());
    MigrationController controller("ctrl", std::move(old_plan.box));
    CollectorSink sink("sink");
    controller.ConnectTo(0, &sink, 0);
    Executor exec;  // Global temporal order.
    std::vector<std::unique_ptr<StatelessChain>> windows;
    for (int i = 0; i < 3; ++i) {
      const std::string name = "S" + std::to_string(i);
      const int feed = exec.AddFeed(name, inputs.at(name));
      windows.push_back(std::make_unique<StatelessChain>(
          "w" + name, StatelessChain::Window(kWindow)));
      exec.ConnectFeed(feed, windows.back().get(), 0);
      windows.back()->ConnectTo(0, &controller, i);
    }
    exec.RunUntil(Timestamp(300));
    controller.StartMovingStates(std::move(new_plan.box),
                                 MakeJoinTreeSeeder(&old_plan, &new_plan));
    exec.RunToCompletion();
    EXPECT_TRUE(IsOrderedByStart(sink.collected())) << "seed " << seed;
    const Status eq = ref::CheckPlanOutput(*LogicalJoinTree(3, true), inputs,
                                           sink.collected());
    EXPECT_TRUE(eq.ok()) << "seed " << seed << ": " << eq.ToString();
  }
}

}  // namespace
}  // namespace genmig
