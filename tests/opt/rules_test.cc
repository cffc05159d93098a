#include "opt/rules.h"

#include <gtest/gtest.h>

#include <random>

#include "migration/trigger_policy.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "ref/eval.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.

LogicalPtr WS(const std::string& name, Duration w = 30) {
  return Window(SourceNode(name, Schema::OfInts({"x"})), w);
}

/// Equivalence oracle: both plans produce snapshot-equal reference streams.
void ExpectEquivalent(const LogicalPtr& a, const LogicalPtr& b,
                      int num_streams, uint64_t seed) {
  ref::InputMap inputs;
  for (int s = 0; s < num_streams; ++s) {
    inputs["S" + std::to_string(s)] = ToPhysicalStream(
        GenerateKeyedStream(100, 4, 3, seed + static_cast<uint64_t>(s)));
  }
  const MaterializedStream sa = ref::EvalPlanToStream(*a, inputs);
  const MaterializedStream sb = ref::EvalPlanToStream(*b, inputs);
  const Status eq = ref::CheckSnapshotEquivalence(sa, sb);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(RulesTest, PushDownSelectSplitsConjuncts) {
  auto pred = Expr::And(
      Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0),
                    Expr::Const(Value(int64_t{2}))),
      Expr::Compare(Expr::CmpOp::kGe, Expr::Column(1),
                    Expr::Const(Value(int64_t{1}))));
  auto plan = Select(EquiJoin(WS("S0"), WS("S1"), 0, 0), pred);
  auto rewritten = rules::PushDownSelect(plan);
  ASSERT_TRUE(rewritten.has_value());
  // Both conjuncts moved below the join.
  EXPECT_EQ((*rewritten)->kind, LogicalNode::Kind::kJoin);
  EXPECT_EQ((*rewritten)->children[0]->kind, LogicalNode::Kind::kSelect);
  EXPECT_EQ((*rewritten)->children[1]->kind, LogicalNode::Kind::kSelect);
  ExpectEquivalent(plan, *rewritten, 2, /*seed=*/71);
}

TEST(RulesTest, PushDownSelectKeepsCrossRelationConjunct) {
  auto pred = Expr::And(
      Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0),
                    Expr::Const(Value(int64_t{2}))),
      Expr::Compare(Expr::CmpOp::kNe, Expr::Column(0), Expr::Column(1)));
  auto plan = Select(EquiJoin(WS("S0"), WS("S1"), 0, 0), pred);
  auto rewritten = rules::PushDownSelect(plan);
  ASSERT_TRUE(rewritten.has_value());
  // Residual cross-relation conjunct stays on top.
  EXPECT_EQ((*rewritten)->kind, LogicalNode::Kind::kSelect);
  ExpectEquivalent(plan, *rewritten, 2, /*seed=*/72);
}

TEST(RulesTest, PushDownSelectNoOpWithoutPattern) {
  auto plan = Dedup(WS("S0"));
  EXPECT_FALSE(rules::PushDownSelect(plan).has_value());
}

TEST(RulesTest, PushDownDedupFigure2Rule) {
  auto plan = Dedup(Project(EquiJoin(WS("S0"), WS("S1"), 0, 0), {0}));
  auto rewritten = rules::PushDownDedup(plan);
  ASSERT_TRUE(rewritten.has_value());
  EXPECT_EQ((*rewritten)->kind, LogicalNode::Kind::kProject);
  EXPECT_EQ((*rewritten)->children[0]->kind, LogicalNode::Kind::kJoin);
  EXPECT_EQ((*rewritten)->children[0]->children[0]->kind,
            LogicalNode::Kind::kDedup);
  ExpectEquivalent(plan, *rewritten, 2, /*seed=*/73);
}

TEST(RulesTest, PushDownDedupRejectsMultiColumnLeaves) {
  auto a = Window(SourceNode("S0", Schema::OfInts({"x", "y"})), 10);
  auto b = Window(SourceNode("S1", Schema::OfInts({"x"})), 10);
  auto plan = Dedup(EquiJoin(a, b, 0, 0));
  EXPECT_FALSE(rules::PushDownDedup(plan).has_value());
}

TEST(RulesTest, FlattenEquiJoinChain) {
  auto plan = EquiJoin(EquiJoin(WS("S0"), WS("S1"), 0, 0), WS("S2"), 0, 0);
  auto leaves = rules::FlattenEquiJoinChain(plan);
  ASSERT_TRUE(leaves.has_value());
  EXPECT_EQ(leaves->size(), 3u);
  EXPECT_FALSE(rules::FlattenEquiJoinChain(Dedup(WS("S0"))).has_value());
}

TEST(RulesTest, ReorderJoinsPrefersSelectiveJoinsFirst) {
  StatsCatalog catalog;
  catalog.SetSource("S0", 1.0, 10.0);    // Small domain -> high join rate.
  catalog.SetSource("S1", 1.0, 10.0);
  catalog.SetSource("S2", 1.0, 1000.0);  // Large domain -> selective join.
  catalog.SetSource("S3", 1.0, 1000.0);
  auto left_deep = EquiJoin(
      EquiJoin(EquiJoin(WS("S0"), WS("S1"), 0, 0), WS("S2"), 0, 0), WS("S3"),
      0, 0);
  auto reordered = rules::ReorderJoins(left_deep, catalog);
  ASSERT_TRUE(reordered.has_value());
  EXPECT_LT(EstimateCost(**reordered, catalog),
            EstimateCost(*left_deep, catalog));
  ExpectEquivalent(left_deep, *reordered, 4, /*seed=*/74);
}

TEST(RulesTest, ReorderedPlanRestoresColumnOrder) {
  StatsCatalog catalog;
  catalog.SetSource("S0", 1.0, 3.0);
  catalog.SetSource("S1", 1.0, 500.0);
  catalog.SetSource("S2", 1.0, 500.0);
  auto plan = EquiJoin(EquiJoin(WS("S0"), WS("S1"), 0, 0), WS("S2"), 0, 0);
  auto reordered = rules::ReorderJoins(plan, catalog);
  ASSERT_TRUE(reordered.has_value());
  // Output schema must match (the projection restores the column order).
  EXPECT_EQ((*reordered)->schema.size(), plan->schema.size());
  ExpectEquivalent(plan, *reordered, 3, /*seed=*/75);
}

TEST(OptimizerTest, PicksCheaperPlanAndMigrationTrigger) {
  StatsCatalog catalog;
  catalog.SetSource("S0", 1.0, 5.0);
  catalog.SetSource("S1", 1.0, 5.0);
  catalog.SetSource("S2", 1.0, 800.0);
  auto plan = EquiJoin(EquiJoin(WS("S0"), WS("S1"), 0, 0), WS("S2"), 0, 0);
  double best_cost = 0.0;
  LogicalPtr best = rules::BestCandidate(plan, catalog, nullptr, &best_cost);
  ASSERT_NE(best, nullptr);
  EXPECT_LE(EstimateCost(*best, catalog), EstimateCost(*plan, catalog));
  // The engine's migrate-or-not rule: running / best >= 1 + margin.
  auto should_migrate = [&catalog](const LogicalPtr& running,
                                   const LogicalPtr& candidate) {
    return EstimateCost(*running, catalog) / EstimateCost(*candidate, catalog) >=
           CostRatioPolicy().fire_threshold();
  };
  EXPECT_TRUE(should_migrate(plan, best));
  EXPECT_FALSE(should_migrate(best, best));
}

TEST(OptimizerTest, EnumerateIncludesOriginal) {
  StatsCatalog catalog;
  auto plan = Dedup(WS("S0"));
  auto rewrites = rules::EnumerateRewrites(plan, catalog);
  ASSERT_GE(rewrites.size(), 1u);
  EXPECT_EQ(rewrites[0], plan);
}

}  // namespace
}  // namespace genmig
