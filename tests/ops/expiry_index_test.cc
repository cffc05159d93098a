#include "ops/expiry_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

namespace genmig {
namespace {

using Index = ExpiryIndex<int>;
using Popped = std::vector<std::pair<int64_t, int>>;

Popped PopUpTo(Index* index, int64_t watermark) {
  Popped out;
  index->PopExpired(Timestamp(watermark), [&](const Index::Entry& e) {
    out.emplace_back(e.end.t, e.handle);
  });
  return out;
}

TEST(ExpiryIndexTest, EmptyIndexFrontAndBack) {
  Index index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Front(), Timestamp::MaxInstant());
  EXPECT_EQ(index.Back(), Timestamp::MinInstant());
  EXPECT_TRUE(PopUpTo(&index, 1000).empty());
}

TEST(ExpiryIndexTest, MonotoneEndsStayInTheFifo) {
  Index index;
  for (int i = 0; i < 100; ++i) index.Push(Timestamp(10 + i), i);
  EXPECT_EQ(index.size(), 100u);
  EXPECT_EQ(index.heap_size(), 0u);
  EXPECT_EQ(index.Front(), Timestamp(10));
  EXPECT_EQ(index.Back(), Timestamp(109));
  // Interleave pops and pushes so the ring wraps around.
  Popped popped = PopUpTo(&index, 49);
  ASSERT_EQ(popped.size(), 40u);
  EXPECT_EQ(popped.front(), std::make_pair(int64_t{10}, 0));
  EXPECT_EQ(popped.back(), std::make_pair(int64_t{49}, 39));
  for (int i = 100; i < 130; ++i) index.Push(Timestamp(10 + i), i);
  EXPECT_EQ(index.heap_size(), 0u);
  EXPECT_EQ(index.Front(), Timestamp(50));
  EXPECT_EQ(index.Back(), Timestamp(139));
  popped = PopUpTo(&index, 200);
  ASSERT_EQ(popped.size(), 90u);
  for (size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].second, static_cast<int>(40 + i));
  }
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.Back(), Timestamp::MinInstant());
}

TEST(ExpiryIndexTest, OutOfOrderInsertGoesToTheHeap) {
  Index index;
  index.Push(Timestamp(20), 0);
  index.Push(Timestamp(30), 1);
  index.Push(Timestamp(15), 2);  // Below the ring's newest end.
  index.Push(Timestamp(25), 3);
  EXPECT_EQ(index.heap_size(), 2u);
  EXPECT_EQ(index.Front(), Timestamp(15));
  EXPECT_EQ(index.Back(), Timestamp(30));
  EXPECT_EQ(PopUpTo(&index, 14), Popped{});
  EXPECT_EQ(PopUpTo(&index, 25),
            (Popped{{15, 2}, {20, 0}, {25, 3}}));
  EXPECT_EQ(index.heap_size(), 0u);
  EXPECT_EQ(index.Front(), Timestamp(30));
  EXPECT_EQ(index.Back(), Timestamp(30));
  // In-order pushes go to the ring again while the heap is empty.
  index.Push(Timestamp(40), 4);
  EXPECT_EQ(index.heap_size(), 0u);
  EXPECT_EQ(PopUpTo(&index, 40), (Popped{{30, 1}, {40, 4}}));
  EXPECT_TRUE(index.empty());
}

TEST(ExpiryIndexTest, EqualEndTimestamps) {
  Index index;
  for (int i = 0; i < 4; ++i) index.Push(Timestamp(7), i);
  index.Push(Timestamp(9), 4);
  index.Push(Timestamp(7), 5);  // Equal to others, below the newest.
  EXPECT_EQ(index.heap_size(), 1u);
  Popped popped = PopUpTo(&index, 7);
  ASSERT_EQ(popped.size(), 5u);
  std::vector<int> handles;
  for (const auto& [end, handle] : popped) {
    EXPECT_EQ(end, 7);
    handles.push_back(handle);
  }
  std::sort(handles.begin(), handles.end());
  EXPECT_EQ(handles, (std::vector<int>{0, 1, 2, 3, 5}));
  EXPECT_EQ(index.Front(), Timestamp(9));
  EXPECT_EQ(index.Back(), Timestamp(9));
}

TEST(ExpiryIndexTest, PopsExactlyTheExpiredEntriesInEndOrder) {
  // Random ends, partly in order, against a sorted reference.
  std::mt19937_64 rng(5);
  Index index;
  std::vector<std::pair<int64_t, int>> held;
  int64_t watermark = 0;
  int next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng() % 3 != 0) {
      const int64_t base = watermark + 1 + static_cast<int64_t>(step % 50);
      const int64_t end =
          rng() % 2 == 0 ? base + 50 : base + static_cast<int64_t>(rng() % 40);
      index.Push(Timestamp(end), next);
      held.emplace_back(end, next++);
    } else {
      watermark += static_cast<int64_t>(rng() % 5);
      const Popped popped = PopUpTo(&index, watermark);
      for (size_t i = 1; i < popped.size(); ++i) {
        ASSERT_LE(popped[i - 1].first, popped[i].first);
      }
      Popped expected;
      for (const auto& entry : held) {
        if (entry.first <= watermark) expected.push_back(entry);
      }
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const auto& entry) {
                                  return entry.first <= watermark;
                                }),
                 held.end());
      Popped sorted = popped;
      std::sort(sorted.begin(), sorted.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(sorted, expected) << "watermark " << watermark;
    }
    ASSERT_EQ(index.size(), held.size());
    int64_t lo = Timestamp::MaxInstant().t;
    int64_t hi = Timestamp::MinInstant().t;
    for (const auto& entry : held) {
      lo = std::min(lo, entry.first);
      hi = std::max(hi, entry.first);
    }
    ASSERT_EQ(index.Front().t, lo);
    ASSERT_EQ(index.Back().t, hi);
  }
}

}  // namespace
}  // namespace genmig
