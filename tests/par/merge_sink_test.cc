#include "par/merge_sink.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"
#include "stream/state_codec.h"

namespace genmig {
namespace {

using testutil::El;

/// One output element, shipped the way a shard ships a scalar output: as a
/// one-row batch.
par::ShardOutMsg Elem(int shard, const StreamElement& e) {
  par::ShardOutMsg m;
  m.kind = par::ShardOutMsg::Kind::kBatch;
  m.shard = shard;
  m.batch.Append(e);
  return m;
}

par::ShardOutMsg Wm(int shard, Timestamp t) {
  par::ShardOutMsg m;
  m.kind = par::ShardOutMsg::Kind::kWatermark;
  m.shard = shard;
  m.time = t;
  return m;
}

par::ShardOutMsg Eos(int shard) {
  par::ShardOutMsg m;
  m.kind = par::ShardOutMsg::Kind::kEos;
  m.shard = shard;
  return m;
}

/// Feeds `msgs` through a MergeSink and returns the merged output.
MaterializedStream MergeOf(int shards,
                           const std::vector<par::ShardOutMsg>& msgs) {
  par::BoundedQueue<par::ShardOutMsg> q(256);
  CollectorSink out("sink");
  par::MergeSink sink(shards, &q, &out, /*registry=*/nullptr);
  sink.Start();
  for (const auto& m : msgs) q.Push(m);
  q.Close();
  sink.Join();
  return out.collected();
}

bool SortedByKey(const MaterializedStream& s) {
  return std::is_sorted(s.begin(), s.end(),
                        [](const StreamElement& a, const StreamElement& b) {
                          if (a.interval.start != b.interval.start) {
                            return a.interval.start < b.interval.start;
                          }
                          if (a.interval.end != b.interval.end) {
                            return a.interval.end < b.interval.end;
                          }
                          return a.tuple < b.tuple;
                        });
}

TEST(MergeSinkTest, InterleavesTwoShardsInKeyOrder) {
  // Shard 0 produces starts {1, 5, 9}, shard 1 produces {2, 5, 7}; arrival
  // order is adversarial (all of shard 1 first).
  const auto out = MergeOf(
      2, {Elem(1, El(10, 2, 3)), Elem(1, El(11, 5, 6)), Elem(1, El(12, 7, 8)),
          Eos(1), Elem(0, El(20, 1, 2)), Elem(0, El(21, 5, 6)),
          Elem(0, El(22, 9, 10)), Eos(0)});
  ASSERT_EQ(out.size(), 6u);
  EXPECT_TRUE(SortedByKey(out));
  EXPECT_TRUE(IsOrderedByStart(out));
  EXPECT_EQ(out[0].interval.start, Timestamp(1));
  EXPECT_EQ(out[5].interval.start, Timestamp(9));
}

TEST(MergeSinkTest, OutputIndependentOfArrivalInterleaving) {
  const std::vector<par::ShardOutMsg> a = {
      Elem(0, El(1, 1, 4)), Elem(1, El(2, 1, 3)), Elem(0, El(3, 2, 5)),
      Elem(1, El(4, 2, 6)), Eos(0), Eos(1)};
  // Same multiset per shard, different global arrival order.
  const std::vector<par::ShardOutMsg> b = {
      Elem(1, El(2, 1, 3)), Elem(1, El(4, 2, 6)), Eos(1),
      Elem(0, El(1, 1, 4)), Elem(0, El(3, 2, 5)), Eos(0)};
  EXPECT_EQ(MergeOf(2, a), MergeOf(2, b));
}

TEST(MergeSinkTest, EqualKeysBreakTiesByShardThenSeq) {
  // Identical (start, end, tuple) from both shards: shard id orders them, so
  // the output is still deterministic.
  const auto out = MergeOf(2, {Elem(1, El(7, 3, 4)), Elem(0, El(7, 3, 4)),
                               Eos(0), Eos(1)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], out[1]);
}

TEST(MergeSinkTest, WatermarkReleasesWithoutElements) {
  // Shard 1 sends only watermarks; shard 0's elements below the min live
  // watermark must still flow (no starvation by an idle shard).
  const auto out =
      MergeOf(2, {Elem(0, El(1, 1, 2)), Elem(0, El(2, 8, 9)), Wm(1, Timestamp(100)),
                  Eos(0), Eos(1)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(IsOrderedByStart(out));
}

TEST(MergeSinkTest, EosShardIsExcludedFromWatermarkMin) {
  // Shard 1 ends immediately at watermark MinInstant; its watermark must not
  // hold back shard 0 forever.
  const auto out = MergeOf(2, {Eos(1), Elem(0, El(5, 10, 11)), Eos(0)});
  ASSERT_EQ(out.size(), 1u);
}

TEST(MergeSinkTest, SingleShardPassThroughPreservesStream) {
  const auto out = MergeOf(1, {Elem(0, El(1, 1, 5)), Elem(0, El(2, 3, 4)),
                               Elem(0, El(3, 3, 9)), Eos(0)});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(IsOrderedByStart(out));
}

/// Several output rows shipped as one batch, the way a shard ships a
/// batched box's output.
par::ShardOutMsg Rows(int shard, const std::vector<StreamElement>& rows) {
  par::ShardOutMsg m;
  m.kind = par::ShardOutMsg::Kind::kBatch;
  m.shard = shard;
  for (const StreamElement& e : rows) m.batch.Append(e);
  return m;
}

TEST(MergeSinkTest, MultiRowBatchesMergeAsTheirRowsWould) {
  // Equal starts out of key order inside a batch, and a run of start 4
  // that spans two of shard 0's batches.
  const std::vector<par::ShardOutMsg> batched = {
      Rows(0, {El(9, 2, 7), El(3, 2, 5), El(5, 4, 9)}),
      Rows(1, {El(4, 2, 5), El(1, 4, 6), El(8, 4, 6)}),
      Wm(1, Timestamp(6)),
      Rows(0, {El(2, 4, 6), El(7, 6, 8)}),
      Eos(0), Eos(1)};
  const std::vector<par::ShardOutMsg> one_row = {
      Elem(0, El(9, 2, 7)), Elem(0, El(3, 2, 5)), Elem(0, El(5, 4, 9)),
      Elem(1, El(4, 2, 5)), Elem(1, El(1, 4, 6)), Elem(1, El(8, 4, 6)),
      Wm(1, Timestamp(6)),
      Elem(0, El(2, 4, 6)), Elem(0, El(7, 6, 8)),
      Eos(0), Eos(1)};
  const MaterializedStream out = MergeOf(2, batched);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_TRUE(SortedByKey(out));
  EXPECT_EQ(out, MergeOf(2, one_row));
}

TEST(MergeSinkTest, ReleasesReachTheSinkInKeyOrderAndEosComesLast) {
  par::BoundedQueue<par::ShardOutMsg> q(16);
  CollectorSink out("sink");
  par::MergeSink sink(2, &q, &out, nullptr);
  sink.Start();
  // Shard 1's watermark releases starts below 4; the rest waits for the
  // final flush.
  q.Push(Rows(0, {El(3, 1, 4), El(1, 5, 6)}));
  q.Push(Rows(1, {El(2, 1, 3), El(4, 2, 9)}));
  q.Push(Wm(1, Timestamp(4)));
  q.Push(Rows(1, {El(5, 5, 7)}));
  q.Push(Eos(0));
  q.Push(Eos(1));
  q.Close();
  sink.Join();
  // The sink refuses a push after its EOS, so the final flush's rows being
  // in it means the EOS came after them.
  EXPECT_TRUE(out.finished());
  const MaterializedStream expected = {El(2, 1, 3), El(3, 1, 4), El(4, 2, 9),
                                       El(1, 5, 6), El(5, 5, 7)};
  EXPECT_EQ(out.collected(), expected);
}

TEST(MergeSinkTest, CheckpointImportAcceptsHeldRowsInAnyOrder) {
  // A "merge" blob whose held-back rows are not in arrival order (a
  // checkpoint may list them in any order).
  StateEnc enc;
  enc.U32(2);
  for (int s = 0; s < 2; ++s) {
    enc.Ts(Timestamp(3));
    enc.Bool(false);
    enc.U64(3);  // Rows seen from the shard so far.
  }
  const std::vector<std::tuple<StreamElement, uint32_t, uint64_t>> held = {
      {El(6, 5, 9), 1, 2}, {El(2, 3, 8), 0, 1}, {El(4, 3, 6), 1, 1},
      {El(7, 4, 9), 0, 2}};
  enc.U64(held.size());
  for (const auto& [e, shard, seq] : held) {
    enc.Elem(e);
    enc.U32(shard);
    enc.U64(seq);
  }
  enc.Stream({El(1, 1, 2)});  // Already merged before the cut.

  par::BoundedQueue<par::ShardOutMsg> q(16);
  CollectorSink merged("sink");
  par::MergeSink sink(2, &q, &merged, nullptr);
  ASSERT_TRUE(sink.CkptImport(enc.Take()));
  sink.Start();
  q.Push(Elem(0, El(5, 4, 5)));
  q.Push(Eos(0));
  q.Push(Eos(1));
  q.Close();
  sink.Join();
  const MaterializedStream& out = merged.collected();
  ASSERT_EQ(out.size(), 6u);
  EXPECT_TRUE(SortedByKey(out));
  EXPECT_EQ(out[0], El(1, 1, 2));
  EXPECT_EQ(out[5], El(6, 5, 9));
}

TEST(MergeSinkTest, EosSeenCountsShards) {
  par::BoundedQueue<par::ShardOutMsg> q(16);
  CollectorSink out("sink");
  par::MergeSink sink(3, &q, &out, nullptr);
  sink.Start();
  q.Push(Eos(0));
  q.Push(Eos(2));
  q.Push(Eos(1));
  q.Close();
  sink.Join();
  EXPECT_EQ(sink.eos_seen(), 3);
  EXPECT_TRUE(out.collected().empty());
}

}  // namespace
}  // namespace genmig
