// Batch/scalar differential tests: every operator must produce the same
// stream whether its input arrives element by element (Push) or as
// TupleBatches (PushBatch) — batch-aware operators via their vectorized
// OnBatch, everything else via the scalar fallback loop. Where tie order at
// equal timestamps is not pinned down (joins), outputs are compared in
// snapshot normal form; everywhere else byte for byte.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <utility>

#include "../test_util.h"
#include "ops/aggregate.h"
#include "ops/dedup.h"
#include "ops/join.h"
#include "ops/split.h"
#include "ops/stateless.h"
#include "ref/checker.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using testutil::RunBinary;
using testutil::RunBinaryBatched;
using testutil::RunUnary;
using testutil::RunUnaryBatched;

// Two-column keyed stream (key, payload) with windowed validity intervals;
// two columns so projection/fusion paths have something to permute.
MaterializedStream KeyedWindowed(size_t n, int64_t keys, Duration w,
                                 uint64_t seed) {
  MaterializedStream out;
  int64_t i = 0;
  for (const TimedTuple& tt : GenerateKeyedStream(n, 1, keys, seed)) {
    out.emplace_back(
        Tuple::OfInts({tt.tuple.field(0).AsInt64(), 100 + (i++ % 7)}),
        TimeInterval(Timestamp(tt.t), Timestamp(tt.t + w + 1)));
  }
  return out;
}

const std::vector<size_t> kBatchSizes = {1, 2, 3, 7, 64, 1000};

TEST(BatchDifferentialTest, Relay) {
  const auto input = KeyedWindowed(300, 8, 20, 1);
  Relay scalar("r");
  const auto want = RunUnary(&scalar, input);
  for (size_t rows : kBatchSizes) {
    Relay batched("r");
    EXPECT_EQ(RunUnaryBatched(&batched, input, rows), want) << rows;
  }
}

/// The stateless stages applied by hand, element by element: keep the rows
/// `keep` accepts (null: all), project onto `fields` (empty: unchanged),
/// extend every end by `window`. Start, epoch and order are untouched — the
/// expected output of any select -> project -> window chain.
MaterializedStream ApplyByHand(const MaterializedStream& input,
                               const std::function<bool(const Tuple&)>& keep,
                               const std::vector<size_t>& fields,
                               Duration window) {
  MaterializedStream out;
  for (const StreamElement& e : input) {
    if (keep && !keep(e.tuple)) continue;
    StreamElement r(fields.empty() ? e.tuple : e.tuple.Project(fields),
                    e.interval, e.epoch);
    r.interval.end = r.interval.end + window;
    out.push_back(std::move(r));
  }
  return out;
}

TEST(BatchDifferentialTest, Filter) {
  const auto input = KeyedWindowed(300, 8, 20, 2);
  auto pred = [](const Tuple& t) { return t.field(0).AsInt64() % 3 != 0; };
  const auto want = ApplyByHand(input, pred, {}, 0);
  ASSERT_FALSE(want.empty());
  StatelessChain scalar("f", StatelessChain::Select(pred));
  EXPECT_EQ(RunUnary(&scalar, input), want);
  for (size_t rows : kBatchSizes) {
    StatelessChain batched("f", StatelessChain::Select(pred));
    EXPECT_EQ(RunUnaryBatched(&batched, input, rows), want) << rows;
  }
}

TEST(BatchDifferentialTest, FilterWithColumnarPredicate) {
  const auto input = KeyedWindowed(300, 8, 20, 3);
  auto pred = [](const Tuple& t) { return t.field(0).AsInt64() > 3; };
  const auto want = ApplyByHand(input, pred, {}, 0);
  ASSERT_FALSE(want.empty());
  StatelessChain scalar("f", StatelessChain::Select(pred));
  EXPECT_EQ(RunUnary(&scalar, input), want);
  auto batch_pred = [](const TupleBatch& b, std::vector<uint8_t>* keep) {
    keep->resize(b.size());
    const std::vector<Value>& col = b.column(0);
    for (size_t i = 0; i < b.size(); ++i) {
      (*keep)[i] = col[i].AsInt64() > 3 ? 1 : 0;
    }
  };
  for (size_t rows : kBatchSizes) {
    StatelessChain batched("f", StatelessChain::Select(pred, batch_pred));
    EXPECT_EQ(RunUnaryBatched(&batched, input, rows), want) << rows;
  }
}

TEST(BatchDifferentialTest, MapProjection) {
  const auto input = KeyedWindowed(300, 8, 20, 4);
  const auto want = ApplyByHand(input, nullptr, {1, 0}, 0);
  StatelessChain scalar("m", StatelessChain::Project({1, 0}));
  EXPECT_EQ(RunUnary(&scalar, input), want);
  for (size_t rows : kBatchSizes) {
    StatelessChain batched("m", StatelessChain::Project({1, 0}));
    EXPECT_EQ(RunUnaryBatched(&batched, input, rows), want) << rows;
  }
}

TEST(BatchDifferentialTest, TimeWindow) {
  const auto input = KeyedWindowed(300, 8, 0, 5);
  const auto want = ApplyByHand(input, nullptr, {}, 50);
  StatelessChain scalar("w", StatelessChain::Window(50));
  EXPECT_EQ(RunUnary(&scalar, input), want);
  for (size_t rows : kBatchSizes) {
    StatelessChain batched("w", StatelessChain::Window(50));
    EXPECT_EQ(RunUnaryBatched(&batched, input, rows), want) << rows;
  }
}

TEST(BatchDifferentialTest, FusedChain) {
  const auto input = KeyedWindowed(400, 8, 0, 6);
  auto pred = [](const Tuple& t) { return t.field(0).AsInt64() != 2; };
  auto stages = [&] {
    return std::vector<StatelessChain::Stage>{
        StatelessChain::Select(pred),
        StatelessChain::Project({1, 0}),
        StatelessChain::Window(40),
    };
  };
  const auto want = ApplyByHand(input, pred, {1, 0}, 40);
  ASSERT_FALSE(want.empty());
  StatelessChain scalar("fu", stages());
  EXPECT_EQ(RunUnary(&scalar, input), want);
  for (size_t rows : kBatchSizes) {
    StatelessChain batched("fu", stages());
    EXPECT_EQ(RunUnaryBatched(&batched, input, rows), want) << rows;
  }
}

TEST(BatchDifferentialTest, SymmetricHashJoin) {
  const auto left = KeyedWindowed(250, 6, 30, 7);
  const auto right = KeyedWindowed(250, 6, 30, 8);
  SymmetricHashJoin scalar("j", 0, 0);
  const auto want = ref::SnapshotNormalForm(RunBinary(&scalar, left, right));
  for (size_t rows : kBatchSizes) {
    SymmetricHashJoin batched("j", 0, 0);
    const auto got = RunBinaryBatched(&batched, left, right, rows);
    EXPECT_TRUE(IsOrderedByStart(got)) << rows;
    EXPECT_EQ(ref::SnapshotNormalForm(got), want) << rows;
  }
}

TEST(BatchDifferentialTest, NestedLoopsJoin) {
  const auto left = KeyedWindowed(120, 6, 30, 9);
  const auto right = KeyedWindowed(120, 6, 30, 10);
  auto match = [](const Tuple& a, const Tuple& b) {
    return a.field(0) == b.field(0);
  };
  NestedLoopsJoin scalar("j", match);
  const auto want = ref::SnapshotNormalForm(RunBinary(&scalar, left, right));
  for (size_t rows : kBatchSizes) {
    NestedLoopsJoin batched("j", match);
    const auto got = RunBinaryBatched(&batched, left, right, rows);
    EXPECT_TRUE(IsOrderedByStart(got)) << rows;
    EXPECT_EQ(ref::SnapshotNormalForm(got), want) << rows;
  }
}

// Stateful operators without a vectorized path exercise the scalar fallback
// loop in Operator::OnBatch — outputs must match byte for byte.
TEST(BatchDifferentialTest, ScalarFallbackDedup) {
  const auto input = KeyedWindowed(300, 4, 40, 11);
  DuplicateElimination scalar("d");
  const auto want = RunUnary(&scalar, input);
  for (size_t rows : kBatchSizes) {
    DuplicateElimination batched("d");
    EXPECT_EQ(RunUnaryBatched(&batched, input, rows), want) << rows;
  }
}

TEST(BatchDifferentialTest, ScalarFallbackAggregate) {
  const auto input = KeyedWindowed(300, 4, 25, 12);
  AggregateOp scalar("a", {0}, {{AggKind::kCount, 0}});
  const auto want = RunUnary(&scalar, input);
  for (size_t rows : kBatchSizes) {
    AggregateOp batched("a", {0}, {{AggKind::kCount, 0}});
    EXPECT_EQ(RunUnaryBatched(&batched, input, rows), want) << rows;
  }
}

// Split with T_split falling mid-batch: straddling intervals must be sliced
// at element granularity exactly as in the scalar path (Algorithm 2 and the
// reference-point optimization are per-element semantics; batching is purely
// an execution detail).
void RunSplitDifferential(Split::Mode mode) {
  const auto input = KeyedWindowed(400, 8, 60, 13);
  const Timestamp t_split(200, 1);  // eps=1: between the chronon grid points.
  auto run = [&](size_t rows) {
    Split split("s", t_split, mode);
    Source src("src");
    CollectorSink old_sink("o");
    CollectorSink new_sink("n");
    src.ConnectTo(0, &split, 0);
    split.ConnectTo(Split::kOldPort, &old_sink, 0);
    split.ConnectTo(Split::kNewPort, &new_sink, 0);
    if (rows == 0) {
      for (const StreamElement& e : input) src.Inject(e);
    } else {
      for (size_t i = 0; i < input.size(); i += rows) {
        TupleBatch b = TupleBatch::FromStream(
            input, i, std::min(rows, input.size() - i));
        src.InjectBatch(b);
      }
    }
    src.Close();
    return std::make_pair(old_sink.collected(), new_sink.collected());
  };
  const auto want = run(0);
  EXPECT_FALSE(want.first.empty());
  EXPECT_FALSE(want.second.empty());
  for (size_t rows : kBatchSizes) {
    const auto got = run(rows);
    EXPECT_EQ(got.first, want.first) << rows;
    EXPECT_EQ(got.second, want.second) << rows;
    EXPECT_TRUE(IsOrderedByStart(got.first)) << rows;
    EXPECT_TRUE(IsOrderedByStart(got.second)) << rows;
  }
}

TEST(BatchDifferentialTest, SplitMidBatchClip) {
  RunSplitDifferential(Split::Mode::kClip);
}

TEST(BatchDifferentialTest, SplitMidBatchFullToOld) {
  RunSplitDifferential(Split::Mode::kFullToOld);
}

// Randomized sweep: random chains of stateless + stateful operators over
// random streams and batch sizes. 50 deterministic seeds.
TEST(BatchDifferentialTest, FuzzRandomOperatorsRandomBatchSizes) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed * 2654435761u + 1);
    const size_t n = 100 + rng() % 300;
    const int64_t keys = 2 + static_cast<int64_t>(rng() % 8);
    const Duration w = static_cast<Duration>(rng() % 60);
    const auto input = KeyedWindowed(n, keys, w, seed + 100);
    const size_t rows = 1 + rng() % 97;

    const int which = static_cast<int>(rng() % 4);
    MaterializedStream want;
    MaterializedStream got;
    switch (which) {
      case 0:
      case 1: {
        // A chain of 1-3 random select/project/window stages. `fields` is
        // the projection of the input the stages so far amount to.
        std::vector<StatelessChain::Stage> stages;
        std::function<bool(const Tuple&)> keep;
        std::vector<size_t> fields = {0, 1};
        Duration window = 0;
        const size_t len = 1 + rng() % 3;
        for (size_t k = 0; k < len; ++k) {
          switch (rng() % 3) {
            case 0: {
              const int64_t mod = 2 + static_cast<int64_t>(rng() % 3);
              auto pred = [mod](const Tuple& t) {
                return t.field(0).AsInt64() % mod == 0;
              };
              stages.push_back(StatelessChain::Select(pred));
              keep = [prev = keep, at = fields, pred](const Tuple& t) {
                return (!prev || prev(t)) && pred(t.Project(at));
              };
              break;
            }
            case 1:
              stages.push_back(StatelessChain::Project({1, 0}));
              std::swap(fields[0], fields[1]);
              break;
            default: {
              const Duration extend = 10 + static_cast<Duration>(rng() % 50);
              stages.push_back(StatelessChain::Window(extend));
              window += extend;
              break;
            }
          }
        }
        want = ApplyByHand(input, keep, fields, window);
        StatelessChain a("c", stages);
        StatelessChain b("c", stages);
        EXPECT_EQ(RunUnary(&a, input), want) << "scalar";
        got = RunUnaryBatched(&b, input, rows);
        break;
      }
      case 2: {
        DuplicateElimination a("d");
        DuplicateElimination b("d");
        want = RunUnary(&a, input);
        got = RunUnaryBatched(&b, input, rows);
        break;
      }
      default: {
        const auto other = KeyedWindowed(n, keys, w, seed + 500);
        SymmetricHashJoin a("j", 0, 0);
        SymmetricHashJoin b("j", 0, 0);
        want = ref::SnapshotNormalForm(RunBinary(&a, input, other));
        got = ref::SnapshotNormalForm(
            RunBinaryBatched(&b, input, other, rows));
        break;
      }
    }
    EXPECT_EQ(got, want) << "rows=" << rows << " which=" << which;
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace genmig
