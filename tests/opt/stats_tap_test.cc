#include "opt/stats_tap.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "../test_util.h"
#include "ops/sink.h"
#include "ops/source.h"

namespace genmig {
namespace {

using testutil::El;

TEST(StatsTapTest, PassThrough) {
  StatsTap tap("t", 100);
  auto out = testutil::RunUnary(&tap, {El(1, 0, 5), El(2, 3, 9)});
  EXPECT_EQ(out.size(), 2u);
}

TEST(StatsTapTest, RateOverHorizon) {
  Source src("s");
  StatsTap tap("t", 100);
  CollectorSink sink("k");
  src.ConnectTo(0, &tap, 0);
  tap.ConnectTo(0, &sink, 0);
  // 10 elements over 100 units -> rate 0.1.
  for (int i = 0; i < 10; ++i) src.Inject(El(i, i * 10, i * 10 + 1));
  EXPECT_NEAR(tap.Rate(), 0.1, 0.02);
}

TEST(StatsTapTest, OldArrivalsFallOutOfTheHorizon) {
  Source src("s");
  StatsTap tap("t", 50);
  CollectorSink sink("k");
  src.ConnectTo(0, &tap, 0);
  tap.ConnectTo(0, &sink, 0);
  for (int i = 0; i < 20; ++i) src.Inject(El(i % 3, i, i + 1));
  // Jump far ahead: the burst leaves the horizon.
  src.Inject(El(0, 1000, 1001));
  EXPECT_NEAR(tap.Rate(), 1.0 / 50.0, 0.01);
  EXPECT_DOUBLE_EQ(tap.Distinct(0), 1.0);
}

TEST(StatsTapTest, DistinctPerColumn) {
  Source src("s");
  StatsTap tap("t", 1000);
  CollectorSink sink("k");
  src.ConnectTo(0, &tap, 0);
  tap.ConnectTo(0, &sink, 0);
  for (int i = 0; i < 30; ++i) {
    src.Inject(StreamElement(Tuple::OfInts({i % 5, i % 2}),
                             TimeInterval(i, i + 1)));
  }
  EXPECT_DOUBLE_EQ(tap.Distinct(0), 5.0);
  EXPECT_DOUBLE_EQ(tap.Distinct(1), 2.0);
  EXPECT_DOUBLE_EQ(tap.Distinct(7), 0.0);  // No such column.
}

TEST(StatsTapTest, SnapshotFeedsCatalog) {
  Source src("s");
  StatsTap tap("t", 100);
  CollectorSink sink("k");
  src.ConnectTo(0, &tap, 0);
  tap.ConnectTo(0, &sink, 0);
  for (int i = 0; i < 10; ++i) src.Inject(El(i % 4, i * 10, i * 10 + 1));
  const SourceStats stats = tap.Snapshot();
  EXPECT_GT(stats.rate, 0.0);
  EXPECT_DOUBLE_EQ(stats.DistinctOf(0), 4.0);
}


std::string CkptBytes(const StatsTap& tap) {
  StateEnc enc;
  tap.CkptExport(&enc);
  return enc.Take();
}

TEST(StatsTapTest, BatchesMatchRowByRowReplayAtEveryBoundary) {
  // Irregular gaps and a short horizon: arrivals leave the horizon inside
  // batches and the distinct-map sweep fires mid-batch, too.
  std::mt19937_64 rng(41);
  MaterializedStream rows;
  int64_t t = 0;
  for (int i = 0; i < 3000; ++i) {
    t += static_cast<int64_t>(rng() % 4);
    rows.emplace_back(Tuple::OfInts({static_cast<int64_t>(rng() % 90),
                                     static_cast<int64_t>(rng() % 7)}),
                      TimeInterval(t, t + 1));
  }
  Source batch_src("bs");
  Source row_src("rs");
  StatsTap batched("batched", 60);
  StatsTap replayed("replayed", 60);
  CountingSink batch_sink("bk");
  CountingSink row_sink("rk");
  batch_src.ConnectTo(0, &batched, 0);
  row_src.ConnectTo(0, &replayed, 0);
  batched.ConnectTo(0, &batch_sink, 0);
  replayed.ConnectTo(0, &row_sink, 0);

  size_t pos = 0;
  size_t boundaries = 0;
  while (pos < rows.size()) {
    const size_t n = std::min<size_t>(1 + rng() % 300, rows.size() - pos);
    TupleBatch batch = TupleBatch::FromStream(rows, pos, n);
    batch_src.InjectBatch(batch);
    for (size_t i = pos; i < pos + n; ++i) row_src.Inject(rows[i]);
    pos += n;
    ++boundaries;

    const SourceStats b = batched.Snapshot();
    const SourceStats r = replayed.Snapshot();
    ASSERT_EQ(b.rate, r.rate) << "after row " << pos;
    ASSERT_EQ(b.distinct_per_column, r.distinct_per_column)
        << "after row " << pos;
    ASSERT_EQ(CkptBytes(batched), CkptBytes(replayed)) << "after row " << pos;
  }
  EXPECT_EQ(batch_sink.count(), rows.size());
  EXPECT_EQ(row_sink.count(), rows.size());
  EXPECT_GT(boundaries, 10u);
}

}  // namespace
}  // namespace genmig
