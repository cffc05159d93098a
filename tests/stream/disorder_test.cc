// Property tests of the bounded out-of-order ingestion stage
// (stream/disorder.h) and its integration points: watermark monotonicity, the
// no-admission-below-watermark rule, adaptive-delta convergence, the
// zero-drop oracle identity of bounded shuffles, the one-pass Reorder, and
// the executor's disordered feeds. Sharded runs over reordered streams are
// tested with the coordinator (tests/par/coordinator_test.cc).

#include "stream/disorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "../test_util.h"
#include "engine/dsms.h"
#include "ops/sink.h"
#include "plan/executor.h"
#include "stream/csv.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using testutil::El;

MaterializedStream OrderedKeyed(size_t count, uint64_t seed) {
  return ToPhysicalStream(GenerateKeyedStream(count, /*period=*/3,
                                              /*num_keys=*/7, seed));
}

// --- DisorderBuffer core invariants ----------------------------------------

TEST(DisorderBufferTest, InOrderInputPassesThroughLosslessly) {
  const MaterializedStream input = OrderedKeyed(200, 1);
  DisorderBuffer::Options opt;
  opt.delta = 0;  // In-order input needs no allowance at all.
  DisorderBuffer buffer(opt);
  MaterializedStream out;
  for (const StreamElement& e : input) {
    EXPECT_TRUE(buffer.Admit(e, &out));
  }
  buffer.FlushAll(&out);
  EXPECT_EQ(out, input);
  EXPECT_EQ(buffer.stats().dropped_late, 0u);
  EXPECT_EQ(buffer.stats().released, input.size());
  EXPECT_EQ(buffer.watermark(), input.back().interval.start);
}

TEST(DisorderBufferTest, WatermarkIsMonotoneUnderRandomArrivalsAndAdaptation) {
  std::mt19937_64 rng(7);
  DisorderBuffer::Options opt;
  opt.delta = 8;
  opt.adaptive = true;
  opt.min_delta = 2;
  opt.max_delta = 64;
  opt.adapt_every = 32;
  DisorderBuffer buffer(opt);
  MaterializedStream out;
  Timestamp last_wm = buffer.watermark();
  int64_t t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += static_cast<int64_t>(rng() % 4);
    // Random bounded lateness: some arrivals dip below the running max.
    const int64_t start = std::max<int64_t>(0, t - static_cast<int64_t>(rng() % 30));
    buffer.Admit(El(1, start, start + 1), &out);
    EXPECT_LE(last_wm, buffer.watermark());
    last_wm = buffer.watermark();
    EXPECT_GE(buffer.delta(), opt.min_delta);
    EXPECT_LE(buffer.delta(), opt.max_delta);
  }
  buffer.FlushAll(&out);
  EXPECT_LE(last_wm, buffer.watermark());
  EXPECT_GT(buffer.stats().adaptations, 0u);
}

TEST(DisorderBufferTest, NoElementIsAdmittedBelowTheWatermark) {
  DisorderBuffer::Options opt;
  opt.delta = 5;
  DisorderBuffer buffer(opt);
  MaterializedStream out;
  EXPECT_TRUE(buffer.Admit(El(1, 100, 101), &out));
  // Watermark is now 95; anything below it must be dropped, not reordered.
  EXPECT_EQ(buffer.watermark(), Timestamp(95));
  EXPECT_FALSE(buffer.Admit(El(2, 90, 91), &out));
  EXPECT_TRUE(buffer.Admit(El(3, 95, 96), &out));  // At W: still admissible.
  buffer.FlushAll(&out);
  EXPECT_EQ(buffer.stats().dropped_late, 1u);
  ASSERT_EQ(out.size(), 2u);
  // The drop never surfaces and the released sequence is ordered.
  for (const StreamElement& e : out) {
    EXPECT_NE(e.tuple.field(0).AsInt64(), 2);
  }
  EXPECT_TRUE(IsOrderedByStart(out));
}

TEST(DisorderBufferTest, ReleasedSequenceIsOrderedAcrossDrains) {
  // Fuzz: arbitrary arrival disorder, fixed delta, many incremental drains.
  for (uint64_t seed : {11u, 12u, 13u}) {
    std::mt19937_64 rng(seed);
    DisorderBuffer::Options opt;
    opt.delta = 16;
    DisorderBuffer buffer(opt);
    MaterializedStream out;
    int64_t t = 0;
    for (int i = 0; i < 1000; ++i) {
      t += static_cast<int64_t>(rng() % 3);
      const int64_t start =
          std::max<int64_t>(0, t - static_cast<int64_t>(rng() % 40));
      buffer.Admit(El(start, start, start + 1), &out);
    }
    buffer.FlushAll(&out);
    EXPECT_TRUE(IsOrderedByStart(out)) << "seed=" << seed;
    EXPECT_EQ(buffer.stats().admitted, buffer.stats().released);
  }
}

TEST(DisorderBufferTest, BoundedShuffleWithSufficientDeltaIsLossless) {
  // The fuzz harness's oracle identity: delta >= realized max lateness
  // reproduces the ordered stream exactly, with zero drops.
  const MaterializedStream ordered = OrderedKeyed(500, 21);
  for (size_t window : {1u, 5u, 40u}) {
    const DisorderedArrivals shuffled =
        ApplyBoundedShuffle(ordered, window, /*seed=*/window);
    DisorderBuffer::Options opt;
    opt.delta = shuffled.max_lateness;
    DisorderBuffer buffer(opt);
    MaterializedStream out;
    for (const StreamElement& e : shuffled.arrivals) {
      EXPECT_TRUE(buffer.Admit(e, &out));
    }
    buffer.FlushAll(&out);
    EXPECT_EQ(out, ordered) << "window=" << window;
    EXPECT_EQ(buffer.stats().dropped_late, 0u);
  }
}

TEST(DisorderBufferTest, AdaptiveDeltaConvergesTowardObservedLateness) {
  // Phase 1: heavy disorder — delta retargets to headroom * p99 of the
  // observed lateness. Phase 2: a long in-order tail — the cumulative
  // histogram keeps delta from spiking back above the phase-1 target.
  const MaterializedStream ordered = OrderedKeyed(2000, 31);
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered, 30, 5);
  DisorderBuffer::Options opt;
  opt.delta = 512;  // Start far too wide.
  opt.adaptive = true;
  opt.min_delta = 1;
  opt.max_delta = 4096;
  opt.adapt_every = 64;
  DisorderBuffer buffer(opt);
  MaterializedStream out;
  for (const StreamElement& e : shuffled.arrivals) buffer.Admit(e, &out);
  // After the disordered phase, delta tracks the observed lateness: at most
  // headroom x the realized maximum, rounded up to the histogram's next
  // power-of-two bucket edge (quantiles interpolate inside log buckets).
  int64_t bucket_upper = 1;
  while (bucket_upper < shuffled.max_lateness) bucket_upper <<= 1;
  EXPECT_GT(buffer.stats().adaptations, 0u);
  EXPECT_GE(buffer.delta(), 1);
  EXPECT_LE(buffer.delta(),
            static_cast<int64_t>(opt.headroom *
                                 static_cast<double>(bucket_upper)) +
                1);
  const int64_t after_disorder = buffer.delta();
  // In-order tail: the lateness histogram is cumulative, so delta cannot
  // spike back up; it stays at or below the disordered-phase target.
  int64_t t = ordered.back().interval.start.t;
  for (int i = 0; i < 2000; ++i) {
    t += 3;
    buffer.Admit(El(1, t, t + 1), &out);
  }
  EXPECT_LE(buffer.delta(), after_disorder);
  buffer.FlushAll(&out);
  EXPECT_TRUE(IsOrderedByStart(out));
}

TEST(DisorderBufferTest, StatsAccounting) {
  DisorderBuffer::Options opt;
  opt.delta = 2;
  DisorderBuffer buffer(opt);
  MaterializedStream out;
  buffer.Admit(El(1, 10, 11), &out);
  buffer.Admit(El(2, 9, 10), &out);   // Lateness 1: admitted.
  buffer.Admit(El(3, 1, 2), &out);    // Lateness 9: dropped.
  buffer.FlushAll(&out);
  const DisorderBuffer::Stats& s = buffer.stats();
  EXPECT_EQ(s.arrived, 3u);
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.dropped_late, 1u);
  EXPECT_EQ(s.released, 2u);
  EXPECT_EQ(s.max_lateness, 9);
  EXPECT_EQ(buffer.lateness().count(), 3u);
}

TEST(DisorderBufferTest, ReorderIsOneAdaptivePassOfTheBuffer) {
  // Reorder releases exactly what one buffer pass over the same arrivals
  // releases, with its drops and delta adaptations: it is what the sharded
  // router reads in place of the arrivals.
  const MaterializedStream ordered = OrderedKeyed(1500, 41);
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered, 40, 6);
  DisorderBuffer::Options opt;
  opt.delta = 2;  // Tight at first: some arrivals drop before it widens.
  opt.adaptive = true;
  opt.adapt_every = 64;
  DisorderBuffer buffer(opt);
  MaterializedStream expected;
  for (const StreamElement& e : shuffled.arrivals) buffer.Admit(e, &expected);
  buffer.FlushAll(&expected);
  ASSERT_GT(buffer.stats().dropped_late, 0u);
  ASSERT_GT(buffer.stats().adaptations, 0u);

  const MaterializedStream reordered = Reorder(shuffled.arrivals, opt);
  EXPECT_EQ(reordered, expected);
  EXPECT_TRUE(IsOrderedByStart(reordered));
  EXPECT_EQ(reordered.size(), ordered.size() - buffer.stats().dropped_late);
}

// --- Adversarial generators -------------------------------------------------

TEST(DisorderGeneratorTest, ZipfSkewMakesKeyZeroHottest) {
  std::mt19937_64 rng(3);
  ZipfDistribution zipf(/*num_keys=*/50, /*skew=*/1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) {
    const int64_t k = zipf(rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 50);
    ++counts[static_cast<size_t>(k)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 50 * 4);  // Far above the uniform share.
}

TEST(DisorderGeneratorTest, ZipfZeroSkewIsRoughlyUniform) {
  std::mt19937_64 rng(4);
  ZipfDistribution zipf(/*num_keys=*/10, /*skew=*/0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[static_cast<size_t>(zipf(rng))];
  for (int c : counts) {
    EXPECT_GT(c, 1400);
    EXPECT_LT(c, 2600);
  }
}

TEST(DisorderGeneratorTest, ZipfStreamIsOrderedAndKeyed) {
  auto s = GenerateZipfStream(300, /*period=*/5, /*num_keys=*/20,
                              /*skew=*/1.0, /*seed=*/9);
  ASSERT_EQ(s.size(), 300u);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].t, static_cast<int64_t>(i) * 5);
    const int64_t k = s[i].tuple.field(0).AsInt64();
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 20);
  }
}

TEST(DisorderGeneratorTest, AdversarialProfilesProduceMonotoneTimestamps) {
  for (RateProfile profile :
       {RateProfile::kConstant, RateProfile::kBursty, RateProfile::kDiurnal}) {
    AdversarialStreamSpec spec;
    spec.count = 400;
    spec.profile = profile;
    spec.zipf_skew = 0.8;
    auto s = GenerateAdversarialStream(spec);
    ASSERT_EQ(s.size(), 400u);
    for (size_t i = 1; i < s.size(); ++i) {
      EXPECT_LE(s[i - 1].t, s[i].t);
    }
  }
}

TEST(DisorderGeneratorTest, BurstyProfileHasIdleGaps) {
  AdversarialStreamSpec spec;
  spec.count = 200;
  spec.profile = RateProfile::kBursty;
  spec.period = 10;
  spec.burst_len = 20;
  spec.burst_idle_factor = 10;
  auto s = GenerateAdversarialStream(spec);
  int64_t max_gap = 0;
  for (size_t i = 1; i < s.size(); ++i) {
    max_gap = std::max(max_gap, s[i].t - s[i - 1].t);
  }
  EXPECT_GE(max_gap, 100);  // At least one idle stretch between bursts.
}

TEST(DisorderGeneratorTest, BoundedShuffleIsAPermutationWithBoundedOvertake) {
  const MaterializedStream ordered = OrderedKeyed(300, 41);
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered, 10, 6);
  ASSERT_EQ(shuffled.arrivals.size(), ordered.size());
  MaterializedStream sorted = shuffled.arrivals;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const StreamElement& a, const StreamElement& b) {
                     return a.interval.start < b.interval.start;
                   });
  EXPECT_EQ(sorted, ordered);
  EXPECT_GT(shuffled.max_lateness, 0);
  // Window 0 must be the identity.
  EXPECT_EQ(ApplyBoundedShuffle(ordered, 0, 6).arrivals, ordered);
  EXPECT_EQ(ApplyBoundedShuffle(ordered, 0, 6).max_lateness, 0);
}

TEST(DisorderGeneratorTest, LateFractionDelaysOnlyAFraction) {
  const MaterializedStream ordered = OrderedKeyed(400, 51);
  const DisorderedArrivals late =
      ApplyLateFraction(ordered, /*fraction=*/0.1, /*delay=*/50, /*seed=*/8);
  ASSERT_EQ(late.arrivals.size(), ordered.size());
  // Timestamps are untouched — only the arrival order moves.
  MaterializedStream sorted = late.arrivals;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const StreamElement& a, const StreamElement& b) {
                     return a.interval.start < b.interval.start;
                   });
  EXPECT_EQ(sorted, ordered);
  EXPECT_GT(late.max_lateness, 0);
  EXPECT_LE(late.max_lateness, 50);
  // Only a delayed element can arrive late (below an earlier arrival's
  // start): the punctual majority keeps its relative order. With a 10%
  // draw, well under a quarter of the stream arrives late.
  size_t late_count = 0;
  int64_t max_seen = late.arrivals.front().interval.start.t;
  for (const StreamElement& e : late.arrivals) {
    if (e.interval.start.t < max_seen) ++late_count;
    max_seen = std::max(max_seen, e.interval.start.t);
  }
  EXPECT_GT(late_count, 0u);
  EXPECT_LT(late_count, ordered.size() / 4);
}

// --- CSV trace ingestion ----------------------------------------------------

TEST(DisorderCsvTest, ParseCsvTraceAcceptsLateLines) {
  const Schema schema = Schema::OfInts({"v"});
  const std::string text = "10,1\n12,2\n11,3\n# comment\n20,4\n";
  Result<CsvTrace> trace = ParseCsvTrace(text, schema);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace.value().arrivals.size(), 4u);
  EXPECT_EQ(trace.value().arrivals[2].t, 11);
  EXPECT_EQ(trace.value().max_lateness, 1);  // 12 arrived before 11.
  // The strict parser must keep rejecting the same text.
  EXPECT_FALSE(ParseCsv(text, schema).ok());
}

// Raw registration must accept arrival order — the whole point of the API.
// (ToPhysicalStream would CHECK-fail on the backwards timestamp.)
TEST(DisorderCsvTest, RawDisorderedRegistrationMatchesOrderedRun) {
  std::vector<TimedTuple> raw;
  for (int64_t t = 0; t < 300; t += 5) {
    raw.push_back({Tuple::OfInts({t % 7}), t});
  }
  std::swap(raw[10], raw[13]);  // One late arrival, lateness 15.
  std::swap(raw[40], raw[41]);

  auto run = [](Dsms& dsms) {
    auto id = dsms.InstallQuery("SELECT DISTINCT x FROM T [RANGE 40]");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    dsms.RunToCompletion();
    return dsms.Results(id.value());
  };

  Dsms base;
  std::vector<TimedTuple> sorted = raw;
  std::sort(sorted.begin(), sorted.end(),
            [](const TimedTuple& a, const TimedTuple& b) { return a.t < b.t; });
  base.RegisterRawStream("T", Schema::OfInts({"x"}), sorted);

  Dsms late;
  DisorderBuffer::Options opt;
  opt.delta = 15;
  late.RegisterRawDisorderedStream("T", Schema::OfInts({"x"}), raw, opt);

  const MaterializedStream want = run(base);
  const MaterializedStream got = run(late);
  EXPECT_EQ(late.DisorderStats("T").stats.dropped_late, 0u);
  EXPECT_EQ(got, want);
}

// --- Executor integration ---------------------------------------------------

TEST(DisorderExecutorTest, DisorderedFeedMatchesOrderedRun) {
  const MaterializedStream ordered = OrderedKeyed(400, 61);
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered, 25, 62);

  auto run = [](auto&& add_feed) {
    Executor exec;
    CollectorSink sink("sink");
    const int feed = add_feed(exec);
    exec.ConnectFeed(feed, &sink, 0);
    exec.RunToCompletion();
    EXPECT_TRUE(exec.finished());
    return sink.collected();
  };
  const MaterializedStream base = run(
      [&](Executor& e) { return e.AddFeed("S", ordered); });
  DisorderBuffer::Options opt;
  opt.delta = shuffled.max_lateness;
  const MaterializedStream disordered = run([&](Executor& e) {
    return e.AddDisorderedFeed("S", shuffled.arrivals, opt);
  });
  EXPECT_EQ(disordered, base);
}

TEST(DisorderExecutorTest, DroppedElementsDoNotStallCompletion) {
  const MaterializedStream ordered = OrderedKeyed(300, 71);
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered, 30, 72);
  DisorderBuffer::Options opt;
  opt.delta = 1;  // Far too tight: most late arrivals drop.
  Executor exec;
  CollectorSink sink("sink");
  const int feed = exec.AddDisorderedFeed("S", shuffled.arrivals, opt);
  exec.ConnectFeed(feed, &sink, 0);
  exec.RunToCompletion();
  EXPECT_TRUE(exec.finished());
  const DisorderBuffer* buffer = exec.feed_buffer(feed);
  ASSERT_NE(buffer, nullptr);
  EXPECT_GT(buffer->stats().dropped_late, 0u);
  EXPECT_EQ(sink.count() + buffer->stats().dropped_late, ordered.size());
  EXPECT_TRUE(IsOrderedByStart(sink.collected()));
}

TEST(DisorderExecutorTest, BatchedInjectionMatchesScalar) {
  const MaterializedStream ordered = OrderedKeyed(400, 81);
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered, 20, 82);
  DisorderBuffer::Options opt;
  opt.delta = shuffled.max_lateness;
  auto run = [&](size_t batch_size) {
    Executor::Options eopt;
    eopt.batch_size = batch_size;
    Executor exec(eopt);
    CollectorSink sink("sink");
    const int feed = exec.AddDisorderedFeed("S", shuffled.arrivals, opt);
    exec.ConnectFeed(feed, &sink, 0);
    exec.RunToCompletion();
    return sink.collected();
  };
  EXPECT_EQ(run(64), run(0));
  EXPECT_EQ(run(64), ordered);
}

}  // namespace
}  // namespace genmig
