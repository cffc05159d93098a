// Tests for the compiler's stateless chains (every maximal select/project/
// time-window chain is one StatelessChain), the batched executor
// (Executor::Options::batch_size) and the columnar Expr evaluation they ride
// on. Chains and batching are pure execution choices: every configuration
// must reproduce the src/ref evaluation, and batched runs the scalar run's
// bytes.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "../test_util.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "ref/checker.h"
#include "ref/eval.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.

using RawFeeds = std::map<std::string, std::vector<TimedTuple>>;

/// Runs a compiled plan over named raw feeds with the given executor
/// options.
MaterializedStream RunPlan(const LogicalPtr& plan, const RawFeeds& feeds,
                           const Executor::Options& eopts = {}) {
  Box box = CompilePlan(*plan);
  CollectorSink sink("sink");
  box.output()->ConnectTo(0, &sink, 0);
  Executor exec(eopts);
  const auto names = CollectSourceNames(*plan);
  GENMIG_CHECK_EQ(names.size(), static_cast<size_t>(box.num_inputs()));
  for (size_t i = 0; i < names.size(); ++i) {
    const int feed = exec.AddRawFeed(names[i], feeds.at(names[i]));
    exec.ConnectFeed(feed, box.input(static_cast<int>(i)), 0);
  }
  exec.RunToCompletion();
  return sink.collected();
}

/// The oracle's view of the raw feeds: physical streams of [t, t+1)
/// elements.
ref::InputMap Physical(const RawFeeds& feeds) {
  ref::InputMap inputs;
  for (const auto& [name, raw] : feeds) inputs[name] = ToPhysicalStream(raw);
  return inputs;
}

std::vector<std::string> OpNames(const Box& box) {
  std::vector<std::string> names;
  for (const auto& op : box.ops()) names.push_back(op->name());
  return names;
}

LogicalPtr SelectProjectWindowPlan() {
  // window -> select -> project: a maximal 3-stage stateless chain.
  auto src = SourceNode("A", Schema::OfInts({"x", "y"}));
  auto pred = Expr::Compare(Expr::CmpOp::kGe, Expr::Column(0),
                            Expr::Const(Value(int64_t{2})));
  return Project(Select(Window(src, 25), pred), {1, 0});
}

RawFeeds KeyedFeeds(const std::vector<std::string>& names, size_t n,
                    uint64_t seed) {
  // Two-column (key, payload) feeds to match the OfInts({"x", "y"}) schemas.
  RawFeeds feeds;
  uint64_t salt = 0;
  for (const std::string& name : names) {
    std::vector<TimedTuple> feed = GenerateKeyedStream(n, 1, 6, seed + salt++);
    int64_t i = 0;
    for (TimedTuple& tt : feed) {
      tt.tuple = Tuple::OfInts({tt.tuple.field(0).AsInt64(), 100 + (i++ % 5)});
    }
    feeds[name] = std::move(feed);
  }
  return feeds;
}

TEST(FusionTest, CollapsesStatelessChainIntoOneOperator) {
  const LogicalPtr plan = SelectProjectWindowPlan();
  Box box = CompilePlan(*plan);
  // Source relay + one chain for the window -> select -> project nodes,
  // named after its stages in execution order; the chain is recorded under
  // its top node (post-order: A, window, select, project).
  EXPECT_EQ(OpNames(box),
            (std::vector<std::string>{"in_A#0", "window+select+project#1"}));
  EXPECT_EQ(box.op_nodes(), (std::vector<size_t>{0, 3}));
}

TEST(FusionTest, SingleStatelessOperatorIsNotFused) {
  // A lone select directly over the source is a one-stage chain that keeps
  // the plain operator name.
  auto plan = Select(SourceNode("A", Schema::OfInts({"x"})),
                     Expr::Compare(Expr::CmpOp::kGe, Expr::Column(0),
                                   Expr::Const(Value(int64_t{0}))));
  Box box = CompilePlan(*plan);
  EXPECT_EQ(OpNames(box), (std::vector<std::string>{"in_A#0", "select#1"}));
  EXPECT_EQ(box.op_nodes(), (std::vector<size_t>{0, 1}));
}

TEST(FusionTest, FusedPlanMatchesScalarOutput) {
  const LogicalPtr plan = SelectProjectWindowPlan();
  const RawFeeds feeds = KeyedFeeds({"A"}, 400, 21);
  const MaterializedStream want = RunPlan(plan, feeds);
  EXPECT_FALSE(want.empty());
  const Status eq = ref::CheckPlanOutput(*plan, Physical(feeds), want);
  EXPECT_TRUE(eq.ok()) << eq.ToString();

  // Batched: the same operator's batch path, byte for byte.
  for (size_t rows : {2u, 16u, 256u}) {
    Executor::Options eopts;
    eopts.batch_size = rows;
    EXPECT_EQ(RunPlan(plan, feeds, eopts), want) << rows;
  }
}

TEST(FusionTest, FusedChainBelowJoinMatchesScalar) {
  auto pred = Expr::Compare(Expr::CmpOp::kGe, Expr::Column(0),
                            Expr::Const(Value(int64_t{1})));
  auto left = Select(Window(SourceNode("A", Schema::OfInts({"x", "y"})), 30),
                     pred);
  auto right = Window(SourceNode("B", Schema::OfInts({"u", "v"})), 30);
  auto plan = Project(EquiJoin(left, right, 0, 0), {0, 3});
  const RawFeeds feeds = KeyedFeeds({"A", "B"}, 250, 33);
  const ref::InputMap inputs = Physical(feeds);

  Box box = CompilePlan(*plan);
  // window+select chain under the join's left input, a window under its
  // right one; the top-level project has no stateless neighbor below it
  // (the join is stateful), so it is a chain of its own.
  EXPECT_EQ(OpNames(box),
            (std::vector<std::string>{"in_A#0", "window+select#1", "in_B#2",
                                      "window#3", "hashjoin#4", "project#5"}));
  EXPECT_EQ(box.op_nodes(), (std::vector<size_t>{0, 2, 3, 4, 5, 6}));

  const MaterializedStream scalar = RunPlan(plan, feeds);
  EXPECT_FALSE(scalar.empty());
  Status eq = ref::CheckPlanOutput(*plan, inputs, scalar);
  EXPECT_TRUE(eq.ok()) << eq.ToString();
  Executor::Options eopts;
  eopts.batch_size = 64;
  eq = ref::CheckPlanOutput(*plan, inputs, RunPlan(plan, feeds, eopts));
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

TEST(BatchedExecutorTest, MatchesScalarAcrossPoliciesAndBatchSizes) {
  auto plan = EquiJoin(Window(SourceNode("A", Schema::OfInts({"x", "y"})), 40),
                       Window(SourceNode("B", Schema::OfInts({"u", "v"})), 40),
                       0, 0);
  const RawFeeds feeds = KeyedFeeds({"A", "B"}, 300, 5);
  const MaterializedStream want =
      ref::SnapshotNormalForm(RunPlan(plan, feeds));
  EXPECT_FALSE(want.empty());
  for (auto policy : {Executor::Policy::kGlobalOrder,
                      Executor::Policy::kRoundRobin,
                      Executor::Policy::kRandom}) {
    for (size_t rows : {2u, 7u, 64u}) {
      Executor::Options eopts;
      eopts.policy = policy;
      eopts.batch_size = rows;
      eopts.seed = 99;
      const MaterializedStream got = RunPlan(plan, feeds, eopts);
      EXPECT_EQ(ref::SnapshotNormalForm(got), want)
          << "policy=" << static_cast<int>(policy) << " rows=" << rows;
    }
  }
}

TEST(BatchedExecutorTest, GlobalOrderOutputIsByteIdentical) {
  // Under kGlobalOrder the merged injection order is the same stream the
  // scalar executor produces, so even raw bytes must match.
  const LogicalPtr plan = SelectProjectWindowPlan();
  const RawFeeds feeds = KeyedFeeds({"A"}, 500, 77);
  const MaterializedStream want = RunPlan(plan, feeds);
  for (size_t rows : {3u, 256u}) {
    Executor::Options eopts;
    eopts.batch_size = rows;
    EXPECT_EQ(RunPlan(plan, feeds, eopts), want) << rows;
  }
}

// --- Columnar expression evaluation ----------------------------------------

TupleBatch RandomBatch(uint64_t seed, size_t rows) {
  std::mt19937_64 rng(seed);
  TupleBatch b;
  for (size_t i = 0; i < rows; ++i) {
    const int64_t t = static_cast<int64_t>(i);
    b.AppendRow(Tuple::OfInts({static_cast<int64_t>(rng() % 10),
                               static_cast<int64_t>(rng() % 10) - 5}),
                TimeInterval(Timestamp(t), Timestamp(t + 5)), 0, 0);
  }
  return b;
}

TEST(ExprBatchTest, EvalBatchMatchesRowwiseEval) {
  const TupleBatch batch = RandomBatch(1, 100);
  const std::vector<ExprPtr> exprs = {
      Expr::Column(0),
      Expr::Const(Value(int64_t{42})),
      Expr::Arith(Expr::ArithOp::kAdd, Expr::Column(0), Expr::Column(1)),
      Expr::Arith(Expr::ArithOp::kMul, Expr::Column(1),
                  Expr::Const(Value(int64_t{3}))),
      Expr::Compare(Expr::CmpOp::kLt, Expr::Column(1), Expr::Column(0)),
      Expr::And(Expr::Compare(Expr::CmpOp::kGe, Expr::Column(0),
                              Expr::Const(Value(int64_t{2}))),
                Expr::Compare(Expr::CmpOp::kNe, Expr::Column(1),
                              Expr::Const(Value(int64_t{0})))),
      Expr::Not(Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0),
                              Expr::Column(1))),
  };
  for (const ExprPtr& e : exprs) {
    std::vector<Value> out;
    e->EvalBatch(batch, &out);
    ASSERT_EQ(out.size(), batch.size()) << e->ToString();
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(out[i], e->Eval(batch.RowTuple(i)))
          << e->ToString() << " row " << i;
    }
  }
}

TEST(ExprBatchTest, EvalBoolBatchMatchesRowwiseEvalBool) {
  const TupleBatch batch = RandomBatch(2, 100);
  const std::vector<ExprPtr> exprs = {
      Expr::Compare(Expr::CmpOp::kGt, Expr::Column(0), Expr::Column(1)),
      Expr::Or(Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0),
                             Expr::Const(Value(int64_t{0}))),
               Expr::Compare(Expr::CmpOp::kLe, Expr::Column(1),
                             Expr::Const(Value(int64_t{-2})))),
      Expr::Not(Expr::Compare(Expr::CmpOp::kGe, Expr::Column(0),
                              Expr::Const(Value(int64_t{5})))),
      Expr::Column(0),  // Truthiness of a plain column.
      Expr::Arith(Expr::ArithOp::kAdd, Expr::Column(0),
                  Expr::Column(1)),  // Truthiness of an arithmetic result.
  };
  for (const ExprPtr& e : exprs) {
    std::vector<uint8_t> keep;
    e->EvalBoolBatch(batch, &keep);
    ASSERT_EQ(keep.size(), batch.size()) << e->ToString();
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(keep[i] != 0, e->EvalBool(batch.RowTuple(i)))
          << e->ToString() << " row " << i;
    }
  }
}

}  // namespace
}  // namespace genmig
