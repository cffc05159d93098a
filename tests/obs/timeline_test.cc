// Timeline samples in the event journal: ring retention, window queries,
// interval latency quantiles, the JSONL round trip of a sample event, and
// the end-to-end acceptance scenario — a Fig. 4-style join migration whose
// sink p99 latency spike during the migration window is captured by the
// timeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "migration/controller.h"
#include "migration/join_tree.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "ops/sink.h"
#include "ops/stateless.h"
#include "plan/executor.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using obs::EventJournal;
using obs::LatencyHistogram;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::TimelineSampler;

// --- ApproxQuantile ---------------------------------------------------------

TEST(ApproxQuantileTest, EmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 0.0);
}

TEST(ApproxQuantileTest, ZeroSamplesStayZero) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Record(0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.99), 0.0);
}

TEST(ApproxQuantileTest, InterpolatesWithinBucketAndClampsToMax) {
  LatencyHistogram h;
  // 100 ns lands in bucket [64, 128).
  for (int i = 0; i < 3; ++i) h.Record(100);
  const double p50 = h.ApproxQuantile(0.5);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 100.0);  // Never above the observed max.
  // The geometric interpolation would place p99 above 100 ns inside the
  // bucket; the clamp pins it to the observed maximum instead.
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 100.0);
}

TEST(ApproxQuantileTest, MonotoneAcrossMixedBuckets) {
  LatencyHistogram h;
  for (int i = 0; i < 50; ++i) h.Record(1);
  for (int i = 0; i < 30; ++i) h.Record(1000);
  for (int i = 0; i < 20; ++i) h.Record(1 << 20);
  double prev = -1.0;
  for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double q = h.ApproxQuantile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
  // Tail quantile reaches the top bucket, median stays in the low ones.
  EXPECT_LT(h.ApproxQuantile(0.5), 2048.0);
  EXPECT_GE(h.ApproxQuantile(0.95), 1 << 19);
}

TEST(ApproxQuantileTest, QuantileFromCountsMatchesHistogram) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(5000);
  // The static form sees the same bucket counts, so away from the max-clamp
  // the two agree exactly.
  EXPECT_DOUBLE_EQ(
      LatencyHistogram::QuantileFromCounts(h.counts(), h.count(), 0.25),
      h.ApproxQuantile(0.25));
  // Single-bucket edge: rank at the very first sample.
  std::array<uint64_t, LatencyHistogram::kBuckets> counts{};
  counts[1] = 10;  // 10 samples of 1 ns.
  const double q =
      LatencyHistogram::QuantileFromCounts(counts, 10, 0.5);
  EXPECT_GE(q, 1.0);
  EXPECT_LT(q, 2.0);
}

// --- Samples in the journal ring ------------------------------------------

MetricSample SampleAt(int64_t t, uint64_t sink_count, double p99,
                      uint64_t queue, uint64_t bytes) {
  MetricSample s;
  s.wall_ns = static_cast<uint64_t>(t) + 1;
  s.app_time = Timestamp(t);
  s.sink_count = sink_count;
  s.sink_p99_ns = p99;
  s.queue_depth = queue;
  s.state_bytes = bytes;
  return s;
}

TEST(TimeSeriesRingTest, DropsOldestBeyondCapacity) {
  EventJournal journal(EventJournal::Options{4, ""});
  EXPECT_TRUE(obs::Samples(journal).empty());
  for (int64_t t = 0; t < 6; ++t) {
    journal.Append(obs::SampleEvent(SampleAt(t, 0, 0.0, 0, 0)));
  }
  const std::vector<MetricSample> ring = obs::Samples(journal);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(journal.capacity(), 4u);
  EXPECT_EQ(journal.total_appended(), 6u);
  EXPECT_EQ(ring.at(0).app_time.t, 2);  // 0 and 1 were dropped.
  EXPECT_EQ(ring.at(3).app_time.t, 5);
  EXPECT_EQ(ring.back().app_time.t, 5);
}

TEST(TimeSeriesRingTest, WindowQueriesAreInclusive) {
  const std::vector<MetricSample> ring = {
      SampleAt(100, 5, 1000.0, 2, 64), SampleAt(200, 0, 0.0, 9, 128),
      SampleAt(300, 3, 8000.0, 1, 32), SampleAt(400, 7, 2000.0, 4, 256)};

  EXPECT_DOUBLE_EQ(
      obs::MaxSinkP99Between(ring, Timestamp(100), Timestamp(300)), 8000.0);
  EXPECT_DOUBLE_EQ(
      obs::MaxSinkP99Between(ring, Timestamp(301), Timestamp(400)), 2000.0);
  // Samples without sink traffic contribute no latency...
  EXPECT_DOUBLE_EQ(
      obs::MaxSinkP99Between(ring, Timestamp(150), Timestamp(250)), 0.0);
  // ...but do contribute to the other gauges.
  EXPECT_EQ(obs::MaxQueueDepthBetween(ring, Timestamp(150), Timestamp(250)),
            9u);
  EXPECT_EQ(obs::MaxStateBytesBetween(ring, Timestamp(100), Timestamp(400)),
            256u);
  EXPECT_EQ(obs::SamplesWithSinkTrafficBetween(ring, Timestamp(100),
                                               Timestamp(400)),
            3u);
  EXPECT_EQ(obs::SamplesWithSinkTrafficBetween(ring, Timestamp(500),
                                               Timestamp(900)),
            0u);
}

TEST(MetricSampleTest, JsonlRoundTripKeepsEveryField) {
  MetricSample s;
  s.wall_ns = 123456789;
  s.app_time = Timestamp(4000, 2);
  s.migration_active = true;
  s.elements_in = 1000;
  s.elements_out = 640;
  s.state_bytes = 1 << 20;
  s.queue_depth = 17;
  s.watermark_lag_max = 33;
  s.backpressure_ns = 9000000001;
  s.sink_count = 12;
  s.sink_p50_ns = 1234.5;
  s.sink_p99_ns = 98765.4321;
  // The top bucket's upper bound is UINT64_MAX: the largest value a sample
  // carries through the journal's double-valued numbers.
  s.sink_max_ns =
      LatencyHistogram::BucketUpperNs(LatencyHistogram::kBuckets - 1);
  s.op_elements_out = {0, 7, 123456789012, 3};

  obs::JournalEvent decoded;
  ASSERT_TRUE(EventJournal::FromJsonl(
      EventJournal::ToJsonl(obs::SampleEvent(s)), &decoded));
  EXPECT_EQ(decoded.kind, obs::JournalEvent::Kind::kSample);
  MetricSample back;
  ASSERT_TRUE(obs::SampleFromEvent(decoded, &back));
  EXPECT_EQ(back.wall_ns, s.wall_ns);
  EXPECT_EQ(back.app_time, s.app_time);
  EXPECT_EQ(back.migration_active, s.migration_active);
  EXPECT_EQ(back.elements_in, s.elements_in);
  EXPECT_EQ(back.elements_out, s.elements_out);
  EXPECT_EQ(back.state_bytes, s.state_bytes);
  EXPECT_EQ(back.queue_depth, s.queue_depth);
  EXPECT_EQ(back.watermark_lag_max, s.watermark_lag_max);
  EXPECT_EQ(back.backpressure_ns, s.backpressure_ns);
  EXPECT_EQ(back.sink_count, s.sink_count);
  EXPECT_DOUBLE_EQ(back.sink_p50_ns, s.sink_p50_ns);
  EXPECT_DOUBLE_EQ(back.sink_p99_ns, s.sink_p99_ns);
  EXPECT_EQ(back.sink_max_ns, s.sink_max_ns);
  EXPECT_EQ(back.op_elements_out, s.op_elements_out);

  // Other kinds are not samples.
  obs::JournalEvent other;
  other.kind = obs::JournalEvent::Kind::kTriggerEval;
  EXPECT_FALSE(obs::SampleFromEvent(other, &back));
}

// --- TimelineSampler --------------------------------------------------------

TEST(TimelineSamplerTest, SamplesCarryIntervalLatency) {
  MetricsRegistry registry;
  obs::OperatorMetrics* sink = registry.Register("sink");
  EventJournal journal;
  TimelineSampler sampler(&registry, &journal);

  for (int i = 0; i < 10; ++i) sink->e2e_ns.Record(100);
  sink->elements_in = 10;
  sampler.Sample(Timestamp(1000), /*migration_active=*/false);
  std::vector<MetricSample> ring = obs::Samples(journal);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.back().sink_count, 10u);
  EXPECT_FALSE(ring.back().migration_active);
  // Interval quantiles interpolate inside the bucket [64, 128) that holds
  // the 100 ns recordings (no per-interval max to clamp to).
  EXPECT_GE(ring.back().sink_p99_ns, 64.0);
  EXPECT_LT(ring.back().sink_p99_ns, 128.0);

  // Only the 5 slow recordings land in the second interval.
  for (int i = 0; i < 5; ++i) sink->e2e_ns.Record(1 << 20);
  sampler.Sample(Timestamp(2000), /*migration_active=*/true);
  ring = obs::Samples(journal);
  ASSERT_EQ(ring.size(), 2u);
  const MetricSample& s = ring.back();
  EXPECT_TRUE(s.migration_active);
  EXPECT_EQ(s.sink_count, 5u);
  EXPECT_GE(s.sink_p50_ns, static_cast<double>(1 << 19));
  EXPECT_GE(s.sink_max_ns, uint64_t{1} << 19);

  // An idle interval has no sink traffic.
  sampler.Sample(Timestamp(3000), /*migration_active=*/false);
  EXPECT_EQ(obs::Samples(journal).back().sink_count, 0u);
}

TEST(TimelineSamplerTest, RebaselinesAfterRegistryReset) {
  MetricsRegistry registry;
  obs::OperatorMetrics* sink = registry.Register("sink");
  EventJournal journal;
  TimelineSampler sampler(&registry, &journal);

  for (int i = 0; i < 8; ++i) sink->e2e_ns.Record(50);
  sampler.Sample(Timestamp(1), false);
  registry.Reset();
  for (int i = 0; i < 3; ++i) sink->e2e_ns.Record(50);
  // The cumulative count went backwards (8 -> 3): the sampler must
  // re-baseline instead of underflowing the interval difference.
  sampler.Sample(Timestamp(2), false);
  EXPECT_EQ(obs::Samples(journal).back().sink_count, 3u);
}

// --- Acceptance: latency spike during migration is on the timeline ----------

// Fig. 4-style workload: 2-way NLJ equi-join, w = 1000, one element per 2
// time units per stream, GenMig migration at t = 4000. The coalesce merge
// buffers results for the overlap window, so stamped elements arriving
// during the migration sit in the merge buffer for the wall-clock time it
// takes to process the stream that advances the watermark past them — orders
// of magnitude above the direct-path latency before the migration.
TEST(TimelineAcceptanceTest, MigrationWindowP99ExceedsPreMigrationBaseline) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  constexpr Duration kWindow = 1000;
  constexpr int64_t kMigrationStart = 4000;

  auto eq = [](const Tuple& l, const Tuple& r) {
    return l.field(0) == r.field(0);
  };
  auto old_plan = BuildJoinTree(JoinShape::LeftDeep(2), 2, eq, 0);
  auto new_plan = BuildJoinTree(JoinShape::RightDeep(2), 2, eq, 0);

  MigrationController controller("ctrl", std::move(old_plan.box));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);

  MetricsRegistry registry;
  EventJournal journal;
  obs::MigrationTracer tracer(&journal);
  controller.AttachMetricsRecursive(&registry);
  controller.SetTracer(&tracer);
  sink.AttachMetrics(&registry);

  Executor exec;
  StatelessChain w0("w0", StatelessChain::Window(kWindow));
  StatelessChain w1("w1", StatelessChain::Window(kWindow));
  const int f0 = exec.AddRawFeed("S0", GenerateKeyedStream(3000, 2, 16, 11));
  const int f1 = exec.AddRawFeed("S1", GenerateKeyedStream(3000, 2, 16, 12));
  exec.ConnectFeed(f0, &w0, 0);
  exec.ConnectFeed(f1, &w1, 0);
  // Attached sources stamp ingress; without this the sink e2e histogram
  // (and therefore every sample's sink_count) stays empty.
  exec.source(f0)->AttachMetrics(&registry);
  exec.source(f1)->AttachMetrics(&registry);
  w0.ConnectTo(0, &controller, 0);
  w1.ConnectTo(0, &controller, 1);
  w0.AttachMetrics(&registry);
  w1.AttachMetrics(&registry);

  obs::TimelineSampler sampler(&registry, &journal);
  int64_t last_sample = INT64_MIN;
  exec.after_step = [&]() {
    const int64_t t = exec.current_time().t;
    if (last_sample == INT64_MIN || t - last_sample >= 250) {
      last_sample = t;
      sampler.Sample(exec.current_time(),
                     controller.migration_in_progress());
    }
  };

  exec.RunUntil(Timestamp(kMigrationStart));
  MigrationController::GenMigOptions opts;
  opts.window = kWindow;
  controller.StartGenMig(std::move(new_plan.box), opts);
  exec.RunToCompletion();
  sampler.Sample(exec.current_time(), controller.migration_in_progress());

  ASSERT_EQ(controller.migrations_completed(), 1);
  const std::vector<MetricSample> timeline = obs::Samples(journal);
  const auto records = tracer.RecordsFor(0);
  ASSERT_GE(records.size(), 2u);
  const Timestamp mig_start = records.front().app_time;
  const Timestamp mig_end = records.back().app_time;
  ASSERT_GE(mig_end.t, mig_start.t);

  // The timeline captured stamped sink traffic inside the migration window
  // (allow a little slack past the end for the final merge flush).
  const Timestamp probe_end(mig_end.t + 500);
  ASSERT_GE(obs::SamplesWithSinkTrafficBetween(timeline, mig_start, probe_end),
            1u)
      << "no stamped element reached the sink during the migration window";

  // And the coalesce merge's hold-back is on the timeline: the queue depth
  // sampled inside the migration window exceeds the steady-state depth over
  // [2000, 4000). Queue depth is sampled on application-time progress, so
  // the comparison is deterministic; the wall-clock latency spike it causes
  // is reported by bench/fig4_output_rate.
  const uint64_t baseline_depth = obs::MaxQueueDepthBetween(
      timeline, Timestamp(2000), Timestamp(kMigrationStart - 1));
  const uint64_t migration_depth =
      obs::MaxQueueDepthBetween(timeline, mig_start, probe_end);
  EXPECT_GT(migration_depth, baseline_depth)
      << "migration hold-back not visible in the queue-depth time-series";

  // Bonus invariants: migration flagged on at least one sample, and the
  // whole-run sink histogram saw every stamped element the samples did.
  size_t flagged = 0;
  for (size_t i = 0; i < timeline.size(); ++i) {
    if (timeline.at(i).migration_active) ++flagged;
  }
  EXPECT_GE(flagged, 1u);
  const obs::OperatorMetrics* sm = registry.FindByName("sink");
  ASSERT_NE(sm, nullptr);
  EXPECT_GT(sm->e2e_ns.count(), 0u);
}

// --- Journal spill ---------------------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(TimelineSpillWriterTest, SamplerAppendsToSpill) {
  MetricsRegistry registry;
  obs::OperatorMetrics* m = registry.Register("op");
  const std::string path = testing::TempDir() + "spill_sampler.jsonl";
  EventJournal journal(EventJournal::Options{4, path});
  TimelineSampler sampler(&registry, &journal);
  // The ring holds 4 samples; the spill keeps all 6.
  for (int i = 0; i < 6; ++i) {
    ++m->elements_out;
    sampler.Sample(Timestamp(i), /*migration_active=*/false);
  }
  journal.Flush();
  EXPECT_EQ(obs::Samples(journal).size(), 4u);
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 6u);
  for (size_t i = 0; i < lines.size(); ++i) {
    obs::JournalEvent ev;
    ASSERT_TRUE(EventJournal::FromJsonl(lines[i], &ev)) << lines[i];
    MetricSample s;
    ASSERT_TRUE(obs::SampleFromEvent(ev, &s)) << lines[i];
    EXPECT_EQ(s.app_time.t, static_cast<int64_t>(i));
    EXPECT_EQ(s.op_elements_out, std::vector<uint64_t>{i + 1});
  }
}

}  // namespace
}  // namespace genmig
