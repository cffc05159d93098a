#include "ops/coalesce.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "ops/refpoint_merge.h"
#include "ops/sink.h"
#include "ops/source.h"

namespace genmig {
namespace {

using testutil::El;

constexpr int64_t kSplit = 50;

struct CoalesceHarness {
  Source old_src{"old_src"};
  Source new_src{"new_src"};
  Coalesce coalesce{"c", Timestamp(kSplit, 1)};
  CollectorSink sink{"k"};

  CoalesceHarness() {
    old_src.ConnectTo(0, &coalesce, Coalesce::kOldPort);
    new_src.ConnectTo(0, &coalesce, Coalesce::kNewPort);
    coalesce.ConnectTo(0, &sink, 0);
  }

  StreamElement OldEl(int64_t v, int64_t s) {
    return StreamElement(Tuple::OfInts({v}),
                         TimeInterval(Timestamp(s), Timestamp(kSplit, 1)));
  }
  StreamElement NewEl(int64_t v, int64_t e) {
    return StreamElement(Tuple::OfInts({v}),
                         TimeInterval(Timestamp(kSplit, 1), Timestamp(e)));
  }
};

TEST(CoalesceTest, MergesMatchingPairAcrossTSplit) {
  CoalesceHarness h;
  h.old_src.Inject(h.OldEl(7, 10));
  h.new_src.Inject(h.NewEl(7, 90));
  h.old_src.Close();
  h.new_src.Close();
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.collected()[0].interval, TimeInterval(10, 90));
  EXPECT_EQ(h.coalesce.coalesced_pairs(), 1u);
}

TEST(CoalesceTest, NonTouchingElementsPassThrough) {
  CoalesceHarness h;
  h.old_src.Inject(El(1, 5, 20));   // Ends below T_split.
  h.new_src.Inject(El(2, 60, 70));  // Starts above T_split.
  h.old_src.Close();
  h.new_src.Close();
  ASSERT_EQ(h.sink.count(), 2u);
  EXPECT_EQ(h.coalesce.coalesced_pairs(), 0u);
  EXPECT_TRUE(IsOrderedByStart(h.sink.collected()));
}

TEST(CoalesceTest, UnmatchedPendingReleasedAtEos) {
  CoalesceHarness h;
  h.old_src.Inject(h.OldEl(1, 10));  // Waits for a new-side partner.
  h.new_src.Inject(h.NewEl(2, 80));  // Waits for an old-side partner.
  EXPECT_EQ(h.sink.count(), 0u);
  h.old_src.Close();
  h.new_src.Close();
  ASSERT_EQ(h.sink.count(), 2u);
  EXPECT_EQ(h.sink.collected()[0].interval,
            TimeInterval(Timestamp(10), Timestamp(kSplit, 1)));
  EXPECT_EQ(h.sink.collected()[1].interval,
            TimeInterval(Timestamp(kSplit, 1), Timestamp(80)));
}

TEST(CoalesceTest, NewWatermarkPastSplitReleasesOldPending) {
  CoalesceHarness h;
  h.old_src.Inject(h.OldEl(1, 10));
  EXPECT_EQ(h.sink.count(), 0u);
  // New side progresses past T_split: no match can arrive any more.
  h.new_src.Inject(El(9, 60, 70));
  h.old_src.InjectHeartbeat(Timestamp(49));
  EXPECT_GE(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.collected()[0].tuple, Tuple::OfInts({1}));
}

TEST(CoalesceTest, MultisetMergeWithDuplicateTuples) {
  CoalesceHarness h;
  h.old_src.Inject(h.OldEl(7, 10));
  h.old_src.Inject(h.OldEl(7, 20));
  h.new_src.Inject(h.NewEl(7, 80));
  h.new_src.Inject(h.NewEl(7, 95));
  h.old_src.Close();
  h.new_src.Close();
  ASSERT_EQ(h.sink.count(), 2u);
  EXPECT_EQ(h.coalesce.coalesced_pairs(), 2u);
  // Snapshot content is preserved regardless of pairing: total validity of
  // tuple 7 equals (50-10) + (50-20) + (80-50) + (95-50).
  EXPECT_EQ(testutil::TotalValidity(h.sink.collected(), Tuple::OfInts({7})),
            (kSplit - 10) + (kSplit - 20) + (80 - kSplit) + (95 - kSplit));
}

TEST(CoalesceTest, OutputOrderedUnderSkew) {
  CoalesceHarness h;
  h.old_src.Inject(El(1, 5, 10));
  h.new_src.Inject(h.NewEl(3, 90));
  h.old_src.Inject(h.OldEl(3, 20));
  h.new_src.Inject(El(2, 60, 70));
  h.old_src.Inject(El(4, 30, 45));
  h.old_src.Close();
  h.new_src.Close();
  EXPECT_TRUE(IsOrderedByStart(h.sink.collected()));
  EXPECT_EQ(h.sink.count(), 4u);
}

TEST(CoalesceTest, MergedEpochIsMin) {
  CoalesceHarness h;
  StreamElement old_el = h.OldEl(7, 10);
  old_el.epoch = 4;
  StreamElement new_el = h.NewEl(7, 90);
  new_el.epoch = 9;
  h.old_src.Inject(old_el);
  h.new_src.Inject(new_el);
  h.old_src.Close();
  h.new_src.Close();
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.collected()[0].epoch, 4u);
}

TEST(CoalesceDeathTest, OldSideMustEndByTSplit) {
  CoalesceHarness h;
  EXPECT_DEATH(h.old_src.Inject(El(1, 10, 60)), "GENMIG_CHECK");
}

TEST(RefPointMergeTest, DropsNewResultsStartingAtTSplit) {
  Source old_src("o");
  Source new_src("n");
  RefPointMerge merge("m", Timestamp(kSplit, 1));
  CollectorSink sink("k");
  old_src.ConnectTo(0, &merge, RefPointMerge::kOldPort);
  new_src.ConnectTo(0, &merge, RefPointMerge::kNewPort);
  merge.ConnectTo(0, &sink, 0);

  // Old box produced the full-interval result; the new box's clipped twin
  // (reference point == T_split) is the duplicate and must be dropped.
  old_src.Inject(El(7, 10, 90));
  new_src.Inject(StreamElement(
      Tuple::OfInts({7}), TimeInterval(Timestamp(kSplit, 1), Timestamp(90))));
  new_src.Inject(El(8, 60, 70));
  old_src.Close();
  new_src.Close();
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_EQ(merge.dropped_count(), 1u);
  EXPECT_EQ(sink.collected()[0].interval, TimeInterval(10, 90));
  EXPECT_EQ(sink.collected()[1].tuple, Tuple::OfInts({8}));
}

TEST(RefPointMergeDeathTest, OldResultPastTSplitAborts) {
  Source old_src("o");
  RefPointMerge merge("m", Timestamp(kSplit, 1));
  CollectorSink sink("k");
  old_src.ConnectTo(0, &merge, RefPointMerge::kOldPort);
  merge.ConnectTo(0, &sink, 0);
  EXPECT_DEATH(old_src.Inject(El(1, 60, 70)), "GENMIG_CHECK");
}

}  // namespace
}  // namespace genmig
