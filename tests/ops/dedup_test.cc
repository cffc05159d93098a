#include "ops/dedup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>

#include "../test_util.h"
#include "ref/checker.h"
#include "stream/disorder.h"

namespace genmig {
namespace {

using testutil::El;
using testutil::PayloadBytes;
using testutil::SortedStrings;

TEST(DedupTest, DistinctTuplesPassThrough) {
  DuplicateElimination d("d");
  auto out = testutil::RunUnary(&d, {El(1, 0, 10), El(2, 0, 10)});
  EXPECT_EQ(out.size(), 2u);
}

TEST(DedupTest, FullyCoveredElementProducesNothing) {
  DuplicateElimination d("d");
  auto out = testutil::RunUnary(&d, {El(1, 0, 10), El(1, 2, 8)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval, TimeInterval(0, 10));
}

TEST(DedupTest, PartialOverlapEmitsUncoveredTail) {
  DuplicateElimination d("d");
  auto out = testutil::RunUnary(&d, {El(1, 0, 10), El(1, 5, 15)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].interval, TimeInterval(10, 15));
}

TEST(DedupTest, GapInCoverageEmitsMiddlePiece) {
  DuplicateElimination d("d");
  auto out = testutil::RunUnary(
      &d, {El(1, 0, 5), El(1, 2, 20), El(1, 10, 30)});
  // Pieces: [0,5), [5,20), [20,30).
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].interval, TimeInterval(5, 20));
  EXPECT_EQ(out[2].interval, TimeInterval(20, 30));
}

TEST(DedupTest, OutputHasNoDuplicateSnapshots) {
  DuplicateElimination d("d");
  MaterializedStream in;
  std::mt19937_64 rng(11);
  int64_t t = 0;
  for (int i = 0; i < 300; ++i) {
    t += static_cast<int64_t>(rng() % 4);
    in.push_back(El(static_cast<int64_t>(rng() % 3), t,
                    t + 1 + static_cast<int64_t>(rng() % 30)));
  }
  auto out = testutil::RunUnary(&d, in);
  EXPECT_TRUE(IsOrderedByStart(out));
  EXPECT_TRUE(ref::CheckNoDuplicateSnapshots(out).ok());
  // Snapshot-reducibility: dedup output at t == set of tuples valid at t.
  std::set<Timestamp> points;
  ref::CollectEndpoints(in, &points);
  for (const Timestamp& p : points) {
    EXPECT_TRUE(ref::BagsEqual(ref::Dedup(ref::SnapshotAt(in, p)),
                               ref::SnapshotAt(out, p)))
        << "at " << p.ToString();
  }
}

TEST(DedupTest, CoverageExpiresWithWatermark) {
  Source src("s");
  DuplicateElimination d("d");
  CollectorSink sink("k");
  src.ConnectTo(0, &d, 0);
  d.ConnectTo(0, &sink, 0);
  src.Inject(El(1, 0, 10));
  EXPECT_EQ(d.StateUnits(), 1u);
  src.Inject(El(2, 50, 60));  // Watermark 50 > end 10.
  EXPECT_EQ(d.StateUnits(), 1u);  // Only tuple 2's run remains.
  EXPECT_EQ(d.MaxStateEnd(), Timestamp(60));
}

TEST(DedupTest, EpochOfPieceFollowsGeneratingElement) {
  DuplicateElimination d("d");
  auto out = testutil::RunUnary(
      &d, {El(1, 0, 10, /*epoch=*/1), El(1, 5, 20, /*epoch=*/2)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].epoch, 1u);
  EXPECT_EQ(out[1].epoch, 2u);
}

TEST(DedupTest, CountStateWithEpochBelowTracksMergedRuns) {
  Source src("s");
  DuplicateElimination d("d");
  CollectorSink sink("k");
  src.ConnectTo(0, &d, 0);
  d.ConnectTo(0, &sink, 0);
  src.Inject(El(1, 0, 10, /*epoch=*/1));
  src.Inject(El(1, 5, 20, /*epoch=*/2));  // Merges; run keeps min epoch 1.
  EXPECT_EQ(d.CountStateWithEpochBelow(2), 1u);
  src.Inject(El(2, 6, 9, /*epoch=*/2));
  EXPECT_EQ(d.CountStateWithEpochBelow(3), 2u);
}

// --- Differential test against a brute-force model --------------------------
//
// The model keeps the coverage as a flat list of runs. A new element's output
// pieces are found instant by instant, runs that overlap or touch it are
// absorbed until none is left, and expiry filters the whole list. After every
// step the operator must agree with it on the coverage (decoded from its
// checkpoint blob, as a multiset), the state gauges, the lineage epoch
// counts, the largest state end and the released output. Arrivals are
// disordered and admitted through a DisorderBuffer, end timestamps are not
// monotone, and halfway through the state moves into a fresh operator by a
// checkpoint round trip.

/// Decodes the coverage section of a DuplicateElimination checkpoint blob
/// (tuple, then its runs as start, end, epoch) into one element per run.
MaterializedStream CoverageOf(const DuplicateElimination& d) {
  StateEnc enc;
  d.CkptExport(&enc);
  StateDec dec(enc.bytes());
  MaterializedStream runs;
  const uint64_t ntuples = dec.U64();
  for (uint64_t i = 0; i < ntuples; ++i) {
    const Tuple tuple = dec.Tup();
    const uint64_t nruns = dec.U64();
    EXPECT_GT(nruns, 0u) << "empty coverage kept for " << tuple.ToString();
    for (uint64_t j = 0; j < nruns; ++j) {
      const Timestamp start = dec.Ts();
      const Timestamp end = dec.Ts();
      runs.emplace_back(tuple, TimeInterval(start, end), dec.U32());
    }
  }
  EXPECT_TRUE(dec.ok());
  return runs;
}

constexpr uint32_t kEpochs = 4;

class DedupModel {
 public:
  void Push(const StreamElement& e) {
    auto covered = [&](int64_t x) {
      return std::any_of(runs_.begin(), runs_.end(),
                         [&](const StreamElement& r) {
                           return r.tuple == e.tuple &&
                                  r.interval.start.t <= x &&
                                  x < r.interval.end.t;
                         });
    };
    int64_t x = e.interval.start.t;
    while (x < e.interval.end.t) {
      if (covered(x)) {
        ++x;
        continue;
      }
      int64_t y = x;
      while (y < e.interval.end.t && !covered(y)) ++y;
      pending_.emplace_back(e.tuple, TimeInterval(Timestamp(x), Timestamp(y)),
                            e.epoch);
      x = y;
    }
    StreamElement merged = e;
    for (bool absorbed = true; absorbed;) {
      absorbed = false;
      for (auto it = runs_.begin(); it != runs_.end(); ++it) {
        if (!(it->tuple == e.tuple) ||
            merged.interval.end < it->interval.start ||
            it->interval.end < merged.interval.start) {
          continue;
        }
        merged.interval = TimeInterval(
            std::min(merged.interval.start, it->interval.start),
            std::max(merged.interval.end, it->interval.end));
        merged.epoch = std::min(merged.epoch, it->epoch);
        runs_.erase(it);
        absorbed = true;
        break;
      }
    }
    runs_.push_back(merged);
    Advance(e.interval.start);
  }

  void Advance(Timestamp t) {
    if (wm_ < t) wm_ = t;
    runs_.erase(std::remove_if(runs_.begin(), runs_.end(),
                               [&](const StreamElement& r) {
                                 return r.interval.end <= wm_;
                               }),
                runs_.end());
    auto held = std::stable_partition(
        pending_.begin(), pending_.end(),
        [&](const StreamElement& s) { return wm_ < s.interval.start; });
    released_.insert(released_.end(), held, pending_.end());
    pending_.erase(held, pending_.end());
  }

  /// A restored operator starts with a fresh input watermark.
  void Restore() { wm_ = Timestamp::MinInstant(); }

  void Check(const DuplicateElimination& d, const CollectorSink& sink) {
    EXPECT_EQ(SortedStrings(CoverageOf(d)), SortedStrings(runs_));
    EXPECT_EQ(d.StateUnits(), runs_.size() + pending_.size());
    EXPECT_EQ(d.StateBytes(), PayloadBytes(runs_) + PayloadBytes(pending_));
    EXPECT_EQ(d.QueueDepth(), pending_.size());
    for (uint32_t epoch = 0; epoch <= kEpochs; ++epoch) {
      const size_t below = static_cast<size_t>(std::count_if(
          runs_.begin(), runs_.end(),
          [&](const StreamElement& r) { return r.epoch < epoch; }));
      EXPECT_EQ(d.CountStateWithEpochBelow(epoch), below) << "epoch " << epoch;
    }
    Timestamp max_end = Timestamp::MinInstant();
    for (const StreamElement& r : runs_) {
      max_end = std::max(max_end, r.interval.end);
    }
    EXPECT_EQ(d.MaxStateEnd(), max_end);
    // Output released since the previous check, as a multiset.
    EXPECT_EQ(SortedStrings(sink.collected(), checked_),
              SortedStrings(released_, checked_));
    checked_ = released_.size();
  }

 private:
  MaterializedStream runs_;
  MaterializedStream pending_;
  MaterializedStream released_;
  size_t checked_ = 0;
  Timestamp wm_ = Timestamp::MinInstant();
};

void RunDedupDifferential(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937_64 rng(seed);
  DedupModel model;
  auto d = std::make_unique<DuplicateElimination>("d");
  Source src("s");
  CollectorSink sink("k");
  auto wire = [&] {
    src.ConnectTo(0, d.get(), 0);
    d->ConnectTo(0, &sink, 0);
  };
  wire();

  DisorderBuffer::Options dopts;
  dopts.delta = 6;
  DisorderBuffer admit(dopts);
  int64_t clock = 0;
  Timestamp announced = Timestamp::MinInstant();
  constexpr int kSteps = 500;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step == kSteps / 2) {
      StateEnc enc;
      d->CkptExport(&enc);
      auto restored = std::make_unique<DuplicateElimination>("d");
      StateDec dec(enc.bytes());
      ASSERT_TRUE(restored->CkptImport(&dec));
      src.DisconnectAllOutputs();
      d->DisconnectAllOutputs();
      d = std::move(restored);
      wire();
      model.Restore();
      model.Check(*d, sink);
    }
    clock += static_cast<int64_t>(rng() % 3);
    const int64_t start = clock - static_cast<int64_t>(rng() % 9);
    // Half the elements have a fixed length (monotone ends, like a RANGE
    // window); the rest end anywhere in the next 40 instants.
    const int64_t length =
        rng() % 2 == 0 ? 20 : 1 + static_cast<int64_t>(rng() % 40);
    MaterializedStream released;
    admit.Admit(El(static_cast<int64_t>(rng() % 4), start, start + length,
                   static_cast<uint32_t>(rng() % kEpochs)),
                &released);
    if (released.size() > 1 && rng() % 2 == 0) {
      TupleBatch batch = TupleBatch::FromStream(released, 0, released.size());
      src.InjectBatch(batch);
    } else {
      for (const StreamElement& e : released) src.Inject(e);
    }
    for (const StreamElement& e : released) model.Push(e);
    // A source announces only heartbeats above its last one, so a restored
    // operator hears of progress again only once the input moves on.
    if (announced < admit.watermark()) {
      announced = admit.watermark();
      src.InjectHeartbeat(announced);
      model.Advance(announced);
    }
    model.Check(*d, sink);
    if (::testing::Test::HasFailure()) return;
  }
  src.Close();
  model.Advance(Timestamp::MaxInstant());
  model.Check(*d, sink);
}

TEST(DedupTest, DifferentialAgainstBruteForceModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) RunDedupDifferential(seed);
}

}  // namespace
}  // namespace genmig
