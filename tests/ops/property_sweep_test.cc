// Parameterized property sweeps over the operator algebra: every stateful
// operator is checked for snapshot reducibility (Definition 1) against the
// relational reference on randomized workloads across key domains, validity
// lengths and seeds, plus the ordering invariant of its output stream.

#include <gtest/gtest.h>

#include <random>

#include "../test_util.h"
#include "ops/aggregate.h"
#include "ops/dedup.h"
#include "ops/difference.h"
#include "ops/join.h"
#include "ops/stateless.h"
#include "ops/union_op.h"
#include "ref/checker.h"

namespace genmig {
namespace {

using testutil::El2;

struct SweepParam {
  int64_t keys;
  int64_t max_validity;
  uint64_t seed;
};

std::string ParamName(const testing::TestParamInfo<SweepParam>& info) {
  // Built with append: chained operator+ trips a GCC 12 -Wrestrict false
  // positive (GCC bug 105651) under -O2.
  std::string out = "K";
  out.append(std::to_string(info.param.keys)).append("V");
  out.append(std::to_string(info.param.max_validity)).append("S");
  out.append(std::to_string(info.param.seed));
  return out;
}

MaterializedStream RandomStream(const SweepParam& p, size_t n,
                                uint64_t salt) {
  std::mt19937_64 rng(p.seed * 1000003 + salt);
  MaterializedStream out;
  int64_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<int64_t>(rng() % 4);
    out.push_back(
        El2(static_cast<int64_t>(rng() % static_cast<uint64_t>(p.keys)),
            static_cast<int64_t>(rng() % 50), t,
            t + 1 +
                static_cast<int64_t>(
                    rng() % static_cast<uint64_t>(p.max_validity))));
  }
  return out;
}

std::set<Timestamp> Breakpoints(const MaterializedStream& a,
                                const MaterializedStream& b = {}) {
  std::set<Timestamp> points;
  ref::CollectEndpoints(a, &points);
  ref::CollectEndpoints(b, &points);
  return points;
}

class OpSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(OpSweep, JoinIsSnapshotReducible) {
  const SweepParam& p = GetParam();
  const auto left = RandomStream(p, 150, 1);
  const auto right = RandomStream(p, 150, 2);
  SymmetricHashJoin join("j", 0, 0);
  const auto out = testutil::RunBinary(&join, left, right);
  EXPECT_TRUE(IsOrderedByStart(out));
  for (const Timestamp& t : Breakpoints(left, right)) {
    const Bag expected =
        ref::Join(ref::SnapshotAt(left, t), ref::SnapshotAt(right, t),
                  nullptr, std::make_pair(size_t{0}, size_t{0}));
    EXPECT_TRUE(ref::BagsEqual(expected, ref::SnapshotAt(out, t)))
        << "at " << t.ToString();
  }
}

TEST_P(OpSweep, DedupIsSnapshotReducible) {
  const SweepParam& p = GetParam();
  const auto in = RandomStream(p, 250, 3);
  DuplicateElimination dedup("d");
  const auto out = testutil::RunUnary(&dedup, in);
  EXPECT_TRUE(IsOrderedByStart(out));
  EXPECT_TRUE(ref::CheckNoDuplicateSnapshots(out).ok());
  for (const Timestamp& t : Breakpoints(in)) {
    EXPECT_TRUE(ref::BagsEqual(ref::Dedup(ref::SnapshotAt(in, t)),
                               ref::SnapshotAt(out, t)))
        << "at " << t.ToString();
  }
}

TEST_P(OpSweep, AggregateIsSnapshotReducible) {
  const SweepParam& p = GetParam();
  const auto in = RandomStream(p, 180, 4);
  const std::vector<AggSpec> specs = {{AggKind::kCount, 0},
                                      {AggKind::kSum, 1},
                                      {AggKind::kAvg, 1},
                                      {AggKind::kMin, 1},
                                      {AggKind::kMax, 1}};
  AggregateOp agg("a", {0}, specs);
  const auto out = testutil::RunUnary(&agg, in);
  EXPECT_TRUE(IsOrderedByStart(out));
  for (const Timestamp& t : Breakpoints(in)) {
    const Bag expected =
        ref::GroupAggregate(ref::SnapshotAt(in, t), {0}, specs);
    EXPECT_TRUE(ref::BagsEqual(expected, ref::SnapshotAt(out, t)))
        << "at " << t.ToString();
  }
}

TEST_P(OpSweep, DifferenceIsSnapshotReducible) {
  const SweepParam& p = GetParam();
  const auto a = RandomStream(p, 150, 5);
  const auto b = RandomStream(p, 150, 6);
  DifferenceOp diff("d");
  const auto out = testutil::RunBinary(&diff, a, b);
  EXPECT_TRUE(IsOrderedByStart(out));
  for (const Timestamp& t : Breakpoints(a, b)) {
    const Bag expected =
        ref::Difference(ref::SnapshotAt(a, t), ref::SnapshotAt(b, t));
    EXPECT_TRUE(ref::BagsEqual(expected, ref::SnapshotAt(out, t)))
        << "at " << t.ToString();
  }
}

TEST_P(OpSweep, UnionIsSnapshotReducible) {
  const SweepParam& p = GetParam();
  const auto a = RandomStream(p, 150, 7);
  const auto b = RandomStream(p, 150, 8);
  UnionOp u("u", 2);
  const auto out = testutil::RunBinary(&u, a, b);
  EXPECT_TRUE(IsOrderedByStart(out));
  for (const Timestamp& t : Breakpoints(a, b)) {
    const Bag expected =
        ref::Union(ref::SnapshotAt(a, t), ref::SnapshotAt(b, t));
    EXPECT_TRUE(ref::BagsEqual(expected, ref::SnapshotAt(out, t)))
        << "at " << t.ToString();
  }
}

TEST_P(OpSweep, CascadedOperatorsStayReducible) {
  // dedup(project(join)) — the Figure 2 pipeline shape.
  const SweepParam& p = GetParam();
  const auto left = RandomStream(p, 120, 9);
  const auto right = RandomStream(p, 120, 10);
  Source sl("sl");
  Source sr("sr");
  SymmetricHashJoin join("j", 0, 0);
  StatelessChain proj("p", StatelessChain::Project({0}));
  DuplicateElimination dedup("d");
  CollectorSink sink("k");
  sl.ConnectTo(0, &join, 0);
  sr.ConnectTo(0, &join, 1);
  join.ConnectTo(0, &proj, 0);
  proj.ConnectTo(0, &dedup, 0);
  dedup.ConnectTo(0, &sink, 0);
  size_t i = 0;
  size_t j = 0;
  while (i < left.size() || j < right.size()) {
    const bool take_l =
        j >= right.size() ||
        (i < left.size() &&
         left[i].interval.start <= right[j].interval.start);
    if (take_l) {
      sl.Inject(left[i++]);
    } else {
      sr.Inject(right[j++]);
    }
  }
  sl.Close();
  sr.Close();
  const auto& out = sink.collected();
  EXPECT_TRUE(IsOrderedByStart(out));
  for (const Timestamp& t : Breakpoints(left, right)) {
    const Bag expected = ref::Dedup(ref::Project(
        ref::Join(ref::SnapshotAt(left, t), ref::SnapshotAt(right, t),
                  nullptr, std::make_pair(size_t{0}, size_t{0})),
        {0}));
    EXPECT_TRUE(ref::BagsEqual(expected, ref::SnapshotAt(out, t)))
        << "at " << t.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpSweep,
    testing::Values(SweepParam{2, 10, 1}, SweepParam{2, 60, 2},
                    SweepParam{5, 25, 3}, SweepParam{10, 10, 4},
                    SweepParam{10, 100, 5}, SweepParam{50, 40, 6}),
    ParamName);

}  // namespace
}  // namespace genmig
