#include "ops/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <string>

#include "../test_util.h"
#include "stream/disorder.h"

namespace genmig {
namespace {

using testutil::El;
using testutil::El2;
using testutil::PayloadBytes;
using testutil::SortedStrings;

NestedLoopsJoin::Predicate EqOnFirst() {
  return [](const Tuple& l, const Tuple& r) {
    return l.field(0) == r.field(0);
  };
}

TEST(NestedLoopsJoinTest, JoinsOverlappingMatchingElements) {
  NestedLoopsJoin join("j", EqOnFirst());
  auto out = testutil::RunBinary(&join, {El(1, 0, 10)}, {El(1, 5, 20)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple, Tuple::OfInts({1, 1}));
  // Result validity is the intersection of the inputs (Section 2.2).
  EXPECT_EQ(out[0].interval, TimeInterval(5, 10));
}

TEST(NestedLoopsJoinTest, NoResultWithoutOverlap) {
  NestedLoopsJoin join("j", EqOnFirst());
  auto out = testutil::RunBinary(&join, {El(1, 0, 5)}, {El(1, 5, 10)});
  EXPECT_TRUE(out.empty());
}

TEST(NestedLoopsJoinTest, NoResultWithoutMatch) {
  NestedLoopsJoin join("j", EqOnFirst());
  auto out = testutil::RunBinary(&join, {El(1, 0, 10)}, {El(2, 0, 10)});
  EXPECT_TRUE(out.empty());
}

TEST(NestedLoopsJoinTest, OutputOrderedByStart) {
  NestedLoopsJoin join("j", EqOnFirst());
  MaterializedStream left = {El(1, 0, 100), El(1, 10, 100), El(1, 30, 100)};
  MaterializedStream right = {El(1, 5, 100), El(1, 20, 100)};
  auto out = testutil::RunBinary(&join, left, right);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_TRUE(IsOrderedByStart(out));
}

TEST(NestedLoopsJoinTest, EpochIsMinOfContributors) {
  NestedLoopsJoin join("j", EqOnFirst());
  auto out = testutil::RunBinary(&join, {El(1, 0, 10, /*epoch=*/2)},
                                 {El(1, 0, 10, /*epoch=*/5)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].epoch, 2u);
}

TEST(NestedLoopsJoinTest, StateExpiresWithWatermark) {
  Source l("l");
  Source r("r");
  NestedLoopsJoin join("j", EqOnFirst());
  CollectorSink sink("k");
  l.ConnectTo(0, &join, 0);
  r.ConnectTo(0, &join, 1);
  join.ConnectTo(0, &sink, 0);
  l.Inject(El(1, 0, 10));
  r.Inject(El(2, 0, 10));
  EXPECT_EQ(join.StateUnits(), 2u);
  // Both watermarks pass the end timestamps: state must be purged.
  l.Inject(El(1, 50, 60));
  r.Inject(El(1, 50, 60));
  EXPECT_EQ(join.StateUnits(), 2u);  // Only the new pair remains.
  EXPECT_EQ(join.MaxStateEnd(), Timestamp(60));
}

TEST(NestedLoopsJoinTest, CountStateWithEpochBelow) {
  Source l("l");
  Source r("r");
  NestedLoopsJoin join("j", EqOnFirst());
  CollectorSink sink("k");
  l.ConnectTo(0, &join, 0);
  r.ConnectTo(0, &join, 1);
  join.ConnectTo(0, &sink, 0);
  l.Inject(El(1, 0, 100, /*epoch=*/1));
  r.Inject(El(1, 10, 100, /*epoch=*/2));
  EXPECT_EQ(join.CountStateWithEpochBelow(2), 1u);
  EXPECT_EQ(join.CountStateWithEpochBelow(3), 2u);
  EXPECT_EQ(join.CountStateWithEpochBelow(1), 0u);
}

TEST(NestedLoopsJoinTest, SeedAndExportState) {
  NestedLoopsJoin join("j", EqOnFirst());
  join.SeedState(0, {El(1, 0, 10), El(2, 0, 10)});
  EXPECT_EQ(join.ExportState(0).size(), 2u);
  EXPECT_TRUE(join.ExportState(1).empty());
  // Seeding produces no results, but subsequent probes see the state.
  Source l("l");
  Source r("r");
  CollectorSink sink("k");
  l.ConnectTo(0, &join, 0);
  r.ConnectTo(0, &join, 1);
  join.ConnectTo(0, &sink, 0);
  r.Inject(El(2, 5, 9));
  r.Close();
  l.Close();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.collected()[0].tuple, Tuple::OfInts({2, 2}));
}

TEST(SymmetricHashJoinTest, EquiJoinOnKeyFields) {
  SymmetricHashJoin join("j", 0, 1);
  // Left key field 0; right key field 1.
  auto out = testutil::RunBinary(&join, {El(1, 0, 10)},
                                 {El2(99, 1, 2, 8)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple, Tuple::OfInts({1, 99, 1}));
  EXPECT_EQ(out[0].interval, TimeInterval(2, 8));
}

TEST(SymmetricHashJoinTest, MatchesNestedLoopsOnSameWorkload) {
  SymmetricHashJoin hash("h", 0, 0);
  NestedLoopsJoin nl("n", EqOnFirst());
  MaterializedStream left;
  MaterializedStream right;
  for (int i = 0; i < 40; ++i) {
    left.push_back(El(i % 5, i, i + 15));
    right.push_back(El((i * 3) % 5, i + 1, i + 12));
  }
  auto a = testutil::RunBinary(&hash, left, right);
  auto b = testutil::RunBinary(&nl, left, right);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(IsOrderedByStart(a));
  EXPECT_TRUE(IsOrderedByStart(b));
  // Same result multiset (tie order within equal start timestamps may vary).
  auto key = [](const StreamElement& e) {
    return std::make_tuple(e.interval.start, e.interval.end, e.tuple);
  };
  std::sort(a.begin(), a.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  std::sort(b.begin(), b.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  EXPECT_EQ(a, b);
}

/// Seeds `join`, then checks the state gauges, a checkpoint round trip into
/// `restored` (an identically constructed join) and expiry on the restored
/// copy.
void CheckStateAccounting(JoinBase* join, JoinBase* restored) {
  join->SeedState(0, {El(1, 0, 10)});
  join->SeedState(1, {El(2, 0, 12), El(3, 0, 11)});
  EXPECT_EQ(join->StateUnits(), 3u);
  EXPECT_EQ(join->StateBytes(), 3 * sizeof(int64_t));
  EXPECT_EQ(join->MaxStateEnd(), Timestamp(12));
  EXPECT_EQ(join->ExportState(1).size(), 2u);

  StateEnc enc;
  join->CkptExport(&enc);
  StateDec dec(enc.bytes());
  ASSERT_TRUE(restored->CkptImport(&dec));
  EXPECT_EQ(restored->StateUnits(), 3u);
  EXPECT_EQ(restored->StateBytes(), 3 * sizeof(int64_t));
  EXPECT_EQ(restored->MaxStateEnd(), Timestamp(12));

  // Watermark 11 on both ports: only the right element ending at 12 stays.
  Source l("l");
  Source r("r");
  CollectorSink sink("k");
  l.ConnectTo(0, restored, 0);
  r.ConnectTo(0, restored, 1);
  restored->ConnectTo(0, &sink, 0);
  l.InjectHeartbeat(Timestamp(11));
  r.InjectHeartbeat(Timestamp(11));
  EXPECT_EQ(restored->StateUnits(), 1u);
  EXPECT_EQ(restored->StateBytes(), sizeof(int64_t));
  EXPECT_EQ(restored->MaxStateEnd(), Timestamp(12));
  l.InjectHeartbeat(Timestamp(12));
  r.InjectHeartbeat(Timestamp(12));
  EXPECT_EQ(restored->StateUnits(), 0u);
  EXPECT_EQ(restored->StateBytes(), 0u);
  EXPECT_EQ(restored->MaxStateEnd(), Timestamp::MinInstant());
}

TEST(SymmetricHashJoinTest, StateAccounting) {
  SymmetricHashJoin join("j", 0, 0);
  SymmetricHashJoin restored("j", 0, 0);
  CheckStateAccounting(&join, &restored);
}

TEST(NestedLoopsJoinTest, StateAccounting) {
  NestedLoopsJoin join("j", EqOnFirst());
  NestedLoopsJoin restored("j", EqOnFirst());
  CheckStateAccounting(&join, &restored);
}

// --- Differential test against a brute-force model --------------------------
//
// The model keeps each side's state as a flat list that it filters in full
// whenever the minimum input watermark advances, and stages results the way
// the ordered output buffer does. After every step the join must agree with
// it on the exported state (as a multiset), the state gauges, the lineage
// epoch counts, the largest state end and the released output. The inputs
// cover arbitrary-order seeding, disordered arrivals admitted through a
// DisorderBuffer, end timestamps that are not monotone, scalar and batched
// pushes, and a checkpoint round trip into a fresh join halfway through.

constexpr uint32_t kEpochs = 4;

class JoinModel {
 public:
  explicit JoinModel(NestedLoopsJoin::Predicate match)
      : match_(std::move(match)) {}

  void Seed(int port, const MaterializedStream& elements) {
    state_[port].insert(state_[port].end(), elements.begin(), elements.end());
  }

  void Push(int port, const StreamElement& e) {
    for (const StreamElement& s : state_[1 - port]) {
      const StreamElement& l = port == 0 ? e : s;
      const StreamElement& r = port == 0 ? s : e;
      if (!e.interval.Overlaps(s.interval) || !match_(l.tuple, r.tuple)) {
        continue;
      }
      pending_.emplace_back(Tuple::Concat(l.tuple, r.tuple),
                            *e.interval.Intersect(s.interval),
                            std::min(e.epoch, s.epoch));
    }
    state_[port].push_back(e);
    Advance(port, e.interval.start);
  }

  void Advance(int port, Timestamp t) {
    if (wm_[port] < t) wm_[port] = t;
    const Timestamp wm = std::min(wm_[0], wm_[1]);
    for (MaterializedStream& st : state_) {
      st.erase(std::remove_if(st.begin(), st.end(),
                              [&](const StreamElement& s) {
                                return s.interval.end <= wm;
                              }),
               st.end());
    }
    auto held = std::stable_partition(
        pending_.begin(), pending_.end(),
        [&](const StreamElement& s) { return wm < s.interval.start; });
    released_.insert(released_.end(), held, pending_.end());
    pending_.erase(held, pending_.end());
  }

  /// A restored operator starts with fresh input watermarks.
  void Restore() {
    wm_[0] = Timestamp::MinInstant();
    wm_[1] = Timestamp::MinInstant();
  }

  void Check(const JoinBase& join, const CollectorSink& sink) {
    for (int side = 0; side < 2; ++side) {
      EXPECT_EQ(SortedStrings(join.ExportState(side)),
                SortedStrings(state_[side]))
          << "side " << side;
    }
    EXPECT_EQ(join.StateUnits(),
              state_[0].size() + state_[1].size() + pending_.size());
    EXPECT_EQ(join.StateBytes(), PayloadBytes(state_[0]) +
                                     PayloadBytes(state_[1]) +
                                     PayloadBytes(pending_));
    EXPECT_EQ(join.QueueDepth(), pending_.size());
    for (uint32_t epoch = 0; epoch <= kEpochs; ++epoch) {
      size_t below = 0;
      for (const MaterializedStream& st : state_) {
        below += static_cast<size_t>(
            std::count_if(st.begin(), st.end(), [&](const StreamElement& s) {
              return s.epoch < epoch;
            }));
      }
      EXPECT_EQ(join.CountStateWithEpochBelow(epoch), below)
          << "epoch " << epoch;
    }
    Timestamp max_end = Timestamp::MinInstant();
    for (const MaterializedStream& st : state_) {
      for (const StreamElement& s : st) {
        max_end = std::max(max_end, s.interval.end);
      }
    }
    EXPECT_EQ(join.MaxStateEnd(), max_end);
    // Output released since the previous check, as a multiset.
    EXPECT_EQ(SortedStrings(sink.collected(), checked_),
              SortedStrings(released_, checked_));
    checked_ = released_.size();
  }

 private:
  NestedLoopsJoin::Predicate match_;
  MaterializedStream state_[2];
  MaterializedStream pending_;
  MaterializedStream released_;
  size_t checked_ = 0;
  Timestamp wm_[2] = {Timestamp::MinInstant(), Timestamp::MinInstant()};
};

StreamElement RandomElement(std::mt19937_64& rng, int64_t start) {
  // Half the elements have a fixed length (monotone ends, like a RANGE
  // window); the rest end anywhere in the next 60 instants.
  const int64_t length =
      rng() % 2 == 0 ? 30 : 1 + static_cast<int64_t>(rng() % 60);
  return El(static_cast<int64_t>(rng() % 4), start, start + length,
            static_cast<uint32_t>(rng() % kEpochs));
}

void RunJoinDifferential(const std::function<std::unique_ptr<JoinBase>()>& make,
                         uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937_64 rng(seed);
  JoinModel model(EqOnFirst());
  std::unique_ptr<JoinBase> join = make();

  // Seeded state arrives in arbitrary order, below every later start.
  for (int port = 0; port < 2; ++port) {
    MaterializedStream seeded;
    for (int i = 0; i < 25; ++i) {
      seeded.push_back(
          RandomElement(rng, static_cast<int64_t>(rng() % 40)));
    }
    std::shuffle(seeded.begin(), seeded.end(), rng);
    join->SeedState(port, seeded);
    model.Seed(port, seeded);
  }

  Source src0("l");
  Source src1("r");
  Source* src[2] = {&src0, &src1};
  CollectorSink sink("k");
  auto wire = [&] {
    src0.ConnectTo(0, join.get(), 0);
    src1.ConnectTo(0, join.get(), 1);
    join->ConnectTo(0, &sink, 0);
  };
  wire();
  model.Check(*join, sink);

  DisorderBuffer::Options dopts;
  dopts.delta = 6;
  DisorderBuffer admit[2] = {DisorderBuffer(dopts), DisorderBuffer(dopts)};
  int64_t clock[2] = {40, 40};
  Timestamp announced[2] = {Timestamp::MinInstant(), Timestamp::MinInstant()};
  constexpr int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step == kSteps / 2) {
      StateEnc enc;
      join->CkptExport(&enc);
      std::unique_ptr<JoinBase> restored = make();
      StateDec dec(enc.bytes());
      ASSERT_TRUE(restored->CkptImport(&dec));
      src0.DisconnectAllOutputs();
      src1.DisconnectAllOutputs();
      join->DisconnectAllOutputs();
      join = std::move(restored);
      wire();
      model.Restore();
      model.Check(*join, sink);
    }
    const int port = static_cast<int>(rng() % 2);
    clock[port] += static_cast<int64_t>(rng() % 3);
    // Arrivals run up to 8 instants late; the buffer drops those later than
    // its allowance of 6.
    const int64_t start = clock[port] - static_cast<int64_t>(rng() % 9);
    MaterializedStream released;
    admit[port].Admit(RandomElement(rng, start), &released);
    if (released.size() > 1 && rng() % 2 == 0) {
      TupleBatch batch = TupleBatch::FromStream(released, 0, released.size());
      src[port]->InjectBatch(batch);
    } else {
      for (const StreamElement& e : released) src[port]->Inject(e);
    }
    for (const StreamElement& e : released) model.Push(port, e);
    // A source announces only heartbeats above its last one, so a restored
    // join hears of a port's progress again only once it moves on.
    if (announced[port] < admit[port].watermark()) {
      announced[port] = admit[port].watermark();
      src[port]->InjectHeartbeat(announced[port]);
      model.Advance(port, announced[port]);
    }
    model.Check(*join, sink);
    if (::testing::Test::HasFailure()) return;
  }
  src0.Close();
  src1.Close();
  model.Advance(0, Timestamp::MaxInstant());
  model.Advance(1, Timestamp::MaxInstant());
  model.Check(*join, sink);
}

TEST(SymmetricHashJoinTest, DifferentialAgainstBruteForceModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunJoinDifferential(
        [] { return std::make_unique<SymmetricHashJoin>("h", 0, 0); }, seed);
  }
}

TEST(NestedLoopsJoinTest, DifferentialAgainstBruteForceModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunJoinDifferential(
        [] { return std::make_unique<NestedLoopsJoin>("n", EqOnFirst()); },
        seed);
  }
}

}  // namespace
}  // namespace genmig
