// Lag-attribution tests of the shard-parallel executor (ISSUE 9): per-shard
// watermark-lag gauges, queue backpressure counters, and the agreement
// between the per-shard watermarks and the disorder horizon in sharded runs
// over a reordered disordered stream.

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "../test_util.h"
#include "par/coordinator.h"
#include "par/shard_queue.h"
#include "ref/checker.h"
#include "ref/eval.h"
#include "stream/disorder.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using namespace logical;  // NOLINT: test readability.
using testutil::El;

Schema OneCol() { return Schema::OfInts({"x"}); }

par::InputMap RandomFeeds(uint64_t seed, int n, int64_t keys,
                          std::vector<std::string> names) {
  std::mt19937_64 rng(seed);
  par::InputMap inputs;
  std::vector<int64_t> t(names.size(), 0);
  for (int i = 0; i < n; ++i) {
    for (size_t s = 0; s < names.size(); ++s) {
      t[s] += static_cast<int64_t>(rng() % 5);
      inputs[names[s]].push_back(
          El(static_cast<int64_t>(rng() % keys), t[s], t[s] + 1));
    }
  }
  return inputs;
}

TEST(BoundedQueueBackpressureTest, BlockedPushIsCountedAndTimed) {
  par::BoundedQueue<int> queue(1);
  queue.Push(1);  // Fills the queue; uncontended, must not count.
  EXPECT_EQ(queue.blocked_count(), 0u);
  EXPECT_EQ(queue.blocked_ns(), 0u);

  std::thread consumer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::deque<int> items;
    ASSERT_TRUE(queue.PopAll(&items));
  });
  queue.Push(2);  // Queue full until the consumer drains: the slow path.
  consumer.join();
  EXPECT_EQ(queue.blocked_count(), 1u);
  // The producer provably waited for most of the consumer's sleep.
  EXPECT_GT(queue.blocked_ns(), 1'000'000u);
}

TEST(ShardLagTest, WatermarksConvergeAndLagGaugesClearAtEos) {
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), 20),
                       Window(SourceNode("B", OneCol()), 20), 0, 0);
  const par::InputMap inputs = RandomFeeds(91, 80, 4, {"A", "B"});
  obs::MetricsRegistry registry;
  par::Coordinator::Options options;
  options.shards = 2;
  options.queue_capacity = 8;  // Small: exercises backpressure paths.
  options.registry = &registry;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  ASSERT_TRUE(coordinator.Run(inputs).ok());

  // The router published the max routed start as the lag reference.
  int64_t max_start = 0;
  for (const auto& [name, stream] : inputs) {
    for (const StreamElement& e : stream) {
      max_start = std::max(max_start, e.interval.start.t);
    }
  }
  EXPECT_EQ(coordinator.source_front().t, max_start);

  for (int k = 0; k < coordinator.shards(); ++k) {
    // EOS on every port drives the shard watermark to MaxInstant, and a
    // watermark past the source front means zero lag.
    EXPECT_EQ(coordinator.shard_watermark(k), Timestamp::MaxInstant())
        << "shard " << k;
    EXPECT_EQ(coordinator.shard_watermark_lag(k), 0) << "shard " << k;
  }

#ifndef GENMIG_NO_METRICS
  // Per-shard lag slots exist and ended clean; backpressure mirrors the
  // input queue counters.
  for (int k = 0; k < coordinator.shards(); ++k) {
    const std::string slot = "s" + std::to_string(k) + "/lag";
    const obs::OperatorMetrics* m = registry.FindByName(slot);
    ASSERT_NE(m, nullptr) << slot;
    EXPECT_EQ(m->watermark_lag.load(), 0u) << slot;
    EXPECT_GE(m->peak_watermark_lag.load(), m->watermark_lag.load());
  }
#endif
}

// Acceptance criterion (ISSUE 9): in sharded disordered runs the per-shard
// watermark story must agree with the disorder horizon. The router reads
// the disordered stream reordered (as a Dsms executor releases it), so at the
// broadcast the horizon — the smallest start any stream can still deliver —
// is the max routed start: the broadcast T_split clears it by the window,
// every shard splits there, and the gauges drain to zero by EOS.
TEST(ShardLagTest, DisorderedShardsRespectTheDisorderHorizon) {
  constexpr Duration kWindow = 15;
  auto plan = EquiJoin(Window(SourceNode("A", OneCol()), kWindow),
                       Window(SourceNode("B", OneCol()), kWindow), 0, 0);
  par::InputMap ordered = RandomFeeds(92, 70, 4, {"A", "B"});
  const MaterializedStream oracle =
      ref::SnapshotNormalForm(ref::EvalPlanToStream(*plan, ordered));

  // Shuffle stream A within a lateness bound and reorder it; B stays
  // ordered.
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered["A"], 12, 93);
  DisorderBuffer::Options disorder;
  disorder.delta = shuffled.max_lateness;
  par::InputMap inputs = ordered;
  inputs["A"] = Reorder(shuffled.arrivals, disorder);
  // Dropped-late count zero: delta covered the shuffle bound, so the
  // disordered run is still snapshot-equivalent to the ordered oracle.
  ASSERT_EQ(inputs["A"].size(), ordered["A"].size());

  par::Coordinator::Options options;
  options.shards = 2;
  CollectorSink sink("sink");
  par::Coordinator coordinator(plan, &sink, options);
  const Timestamp at(60);
  ASSERT_TRUE(coordinator.ScheduleGenMig(plan, at).ok());
  ASSERT_TRUE(coordinator.Run(inputs).ok());
  const MaterializedStream& out = sink.collected();

  ASSERT_EQ(coordinator.migrations_completed(), 1);
  // The horizon at the broadcast: the first routed start at or past `at`.
  Timestamp horizon = Timestamp::MaxInstant();
  for (const auto& [name, stream] : inputs) {
    for (const StreamElement& e : stream) {
      if (at <= e.interval.start && e.interval.start < horizon) {
        horizon = e.interval.start;
      }
    }
  }
  ASSERT_NE(horizon, Timestamp::MaxInstant()) << "no start at or past `at`";
  // T_split waited for the disorder horizon plus the window.
  EXPECT_GE(coordinator.t_split().t, horizon.t + kWindow);
  EXPECT_EQ(ref::SnapshotNormalForm(out), oracle);

  for (int k = 0; k < coordinator.shards(); ++k) {
    EXPECT_EQ(coordinator.shard_watermark(k), Timestamp::MaxInstant())
        << "shard " << k;
    EXPECT_EQ(coordinator.shard_watermark_lag(k), 0) << "shard " << k;
  }
}

}  // namespace
}  // namespace genmig
