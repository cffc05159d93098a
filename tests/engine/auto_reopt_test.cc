// Engine-level tests of the cost-feedback auto-migration loop
// (calibrate -> cost -> trigger, DESIGN.md): crossover-to-arm latency on a
// skewed-rate workload, snapshot equivalence of auto-migrated output, and
// the oscillation guard under rates that keep flipping back and forth.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "engine/dsms.h"
#include "stream/generator.h"
#include "ref/checker.h"
#include "ref/eval.h"

namespace genmig {
namespace {

using testutil::El;

/// A keyed stream whose arrival period flips from `period_before` to
/// `period_after` at application time `flip` (the Figure-4 skewed-rate
/// workload shape: stream rates trade places, so the optimal join order
/// changes while key distributions stay put).
MaterializedStream PiecewiseRate(int64_t t_end, int64_t period_before,
                                 int64_t period_after, int64_t flip,
                                 int64_t keys, uint64_t seed) {
  MaterializedStream out;
  std::mt19937_64 rng(seed);
  for (int64_t t = 0; t < t_end;) {
    out.push_back(El(static_cast<int64_t>(
                         rng() % static_cast<uint64_t>(keys)),
                     t, t + 1));
    t += t < flip ? period_before : period_after;
  }
  return out;
}

/// Application times of every completed migration recorded by the tracer.
std::vector<int64_t> CompletionTimes(const obs::MigrationTracer& tracer) {
  std::vector<int64_t> times;
  for (const obs::TraceRecord& record : tracer.records()) {
    if (record.event == obs::MigrationEvent::kCompleted) {
      times.push_back(record.app_time.t);
    }
  }
  return times;
}

constexpr const char* kChainQuery =
    "SELECT A.x, B.x, C.x FROM A [RANGE 2000], B [RANGE 2000], "
    "C [RANGE 2000] WHERE A.x = B.x AND B.x = C.x";

TEST(AutoReoptTest, StatusStaysEmptyWhileLoopIsOff) {
  Dsms dsms;  // calibration_period defaults to 0.
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(100, 5, 4, 1)));
  auto id = dsms.InstallQuery("SELECT * FROM S [RANGE 50]");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();
  const Dsms::AutoReoptStatus& status = dsms.AutoStatus(id.value());
  EXPECT_EQ(status.calibrations, 0u);
  EXPECT_EQ(status.fires, 0);
  EXPECT_EQ(status.last_armed, Timestamp::MinInstant());
}

TEST(AutoReoptTest, ArmsWithinOneCalibrationPeriodOfCrossover) {
  // Skewed-rate workload: A and B start slow with C fast, so the installed
  // left-deep plan (A |x| B first) is optimal; at kFlip the rates trade
  // places (10x) and pairing C first becomes much cheaper.
  constexpr int64_t kFlip = 15000;
  constexpr int64_t kEnd = 30000;
  Dsms::Options options;
  options.stats_horizon = 2000;
  options.calibration_period = 1000;
  options.migration_cooldown = 5000;
  Dsms dsms(options);
  dsms.RegisterStream("A", Schema::OfInts({"x"}),
                      PiecewiseRate(kEnd, 40, 4, kFlip, 200, 31));
  dsms.RegisterStream("B", Schema::OfInts({"x"}),
                      PiecewiseRate(kEnd, 40, 4, kFlip, 200, 32));
  dsms.RegisterStream("C", Schema::OfInts({"x"}),
                      PiecewiseRate(kEnd, 4, 40, kFlip, 200, 33));
  auto id = dsms.InstallQuery(kChainQuery);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();

  const Dsms::AutoReoptStatus& status = dsms.AutoStatus(id.value());
  EXPECT_GT(status.calibrations, 10u);
  ASSERT_GE(status.fires, 1);
  EXPECT_GE(dsms.Info(id.value()).migrations_completed, 1);
  ASSERT_NE(status.last_crossover, Timestamp::MinInstant());
  ASSERT_NE(status.last_armed, Timestamp::MinInstant());
  // The cost crossover is only visible after the flip...
  EXPECT_GE(status.last_crossover.t, kFlip);
  // ...and the trigger reacts within one calibration period of seeing it
  // (small slack: the fire is stamped on the next executor step).
  EXPECT_LE(status.last_armed.t - status.last_crossover.t,
            options.calibration_period + 50);
  EXPECT_TRUE(IsOrderedByStart(dsms.Results(id.value())));
  EXPECT_GT(dsms.Results(id.value()).size(), 0u);
}

TEST(AutoReoptTest, EveryFireIsACalibrationPassDecision) {
  // bench/auto_trigger's 4-way skewed chain with a hair-trigger margin: one
  // migration early on, a second due right after the flip at 20000. The
  // cool-down ends between two passes that both see the ratio over the
  // margin, so the second fire is held back by one pass.
  constexpr int64_t kFlip = 20000;
  constexpr int64_t kEnd = 40000;
  constexpr Duration kCooldown = 18500;
  Dsms::Options options;
  options.stats_horizon = 2000;
  options.calibration_period = 1000;
  options.cost_margin = 0.05;
  options.cost_hysteresis = 0.025;
  options.migration_cooldown = kCooldown;
  Dsms dsms(options);
  dsms.RegisterStream("A", Schema::OfInts({"x"}),
                      PiecewiseRate(kEnd, 40, 4, kFlip, 200, 71));
  dsms.RegisterStream("B", Schema::OfInts({"x"}),
                      PiecewiseRate(kEnd, 40, 4, kFlip, 200, 72));
  dsms.RegisterStream("C", Schema::OfInts({"x"}),
                      PiecewiseRate(kEnd, 4, 40, kFlip, 200, 73));
  dsms.RegisterStream("D", Schema::OfInts({"x"}),
                      PiecewiseRate(kEnd, 4, 40, kFlip, 200, 74));
  auto id = dsms.InstallQuery(
      "SELECT A.x, B.x, C.x, D.x FROM A [RANGE 2000], B [RANGE 2000], "
      "C [RANGE 2000], D [RANGE 2000] "
      "WHERE A.x = B.x AND B.x = C.x AND C.x = D.x");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();

  std::vector<int64_t> passes;
  std::vector<int64_t> fires;
  std::vector<std::pair<int64_t, double>> armed_ratios;
  for (const obs::JournalEvent& ev :
       dsms.journal().SnapshotKind(obs::JournalEvent::Kind::kTriggerEval)) {
    if (ev.Num("fired") == 1.0) {
      fires.push_back(ev.app_time.t);
    } else {
      passes.push_back(ev.app_time.t);
      if (ev.Num("armed") == 1.0) {
        armed_ratios.emplace_back(ev.app_time.t, ev.Num("ratio"));
      }
    }
  }
  // One count three ways: journal, status, and the migrations the tracer
  // saw (the loop started every migration of this run).
  const Dsms::AutoReoptStatus& status = dsms.AutoStatus(id.value());
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(static_cast<int>(fires.size()), status.fires);
  EXPECT_EQ(static_cast<int>(fires.size()), dsms.tracer().migration_count());
  EXPECT_EQ(status.last_armed.t, fires.back());
  // Each fire carries the app time of the pass that decided it.
  for (const int64_t fire : fires) {
    EXPECT_NE(std::find(passes.begin(), passes.end(), fire), passes.end())
        << "fire at " << fire << " is not a calibration pass";
  }
  // The second fire was due inside the cool-down (an armed pass over the
  // margin) and lands at the first pass after the cool-down ends.
  const std::vector<int64_t> completions = CompletionTimes(dsms.tracer());
  ASSERT_GE(completions.size(), 1u);
  const int64_t cooldown_end = completions[0] + kCooldown;
  bool held_back = false;
  for (const auto& [t, ratio] : armed_ratios) {
    held_back |= t > completions[0] && t < cooldown_end &&
                 ratio >= 1.0 + options.cost_margin;
  }
  EXPECT_TRUE(held_back);
  EXPECT_GE(fires[1], cooldown_end);
  EXPECT_LE(fires[1], cooldown_end + options.calibration_period);
}

TEST(AutoReoptTest, AutoMigratedOutputIsSnapshotEquivalent) {
  // Small variant of the skewed-rate workload so the O(n^2) snapshot
  // checker stays cheap: the auto-migrated run must produce output
  // snapshot-equivalent to an identical engine with the loop disabled.
  constexpr int64_t kFlip = 3000;
  constexpr int64_t kEnd = 7000;
  const auto kStreamA = PiecewiseRate(kEnd, 20, 5, kFlip, 60, 41);
  const auto kStreamB = PiecewiseRate(kEnd, 20, 5, kFlip, 60, 42);
  const auto kStreamC = PiecewiseRate(kEnd, 5, 20, kFlip, 60, 43);
  const char* query =
      "SELECT A.x, B.x, C.x FROM A [RANGE 400], B [RANGE 400], "
      "C [RANGE 400] WHERE A.x = B.x AND B.x = C.x";

  auto run = [&](Duration calibration_period) {
    Dsms::Options options;
    options.stats_horizon = 800;
    options.calibration_period = calibration_period;
    options.migration_cooldown = 2000;
    auto dsms = std::make_unique<Dsms>(options);
    dsms->RegisterStream("A", Schema::OfInts({"x"}), kStreamA);
    dsms->RegisterStream("B", Schema::OfInts({"x"}), kStreamB);
    dsms->RegisterStream("C", Schema::OfInts({"x"}), kStreamC);
    auto id = dsms->InstallQuery(query);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    dsms->RunToCompletion();
    return std::make_pair(std::move(dsms), id.value());
  };

  auto [auto_dsms, auto_id] = run(/*calibration_period=*/500);
  auto [base_dsms, base_id] = run(/*calibration_period=*/0);
  ASSERT_GE(auto_dsms->AutoStatus(auto_id).fires, 1);
  EXPECT_GE(auto_dsms->Info(auto_id).migrations_completed, 1);
  EXPECT_EQ(base_dsms->Info(base_id).migrations_completed, 0);
  const Status eq = ref::CheckSnapshotEquivalence(
      auto_dsms->Results(auto_id), base_dsms->Results(base_id));
  EXPECT_TRUE(eq.ok()) << eq.ToString();
}

/// A and B fast on odd 4000-unit segments, C on even ones: the best join
/// order flips every segment.
MaterializedStream Flipping(int64_t end, bool fast_on_odd, uint64_t seed) {
  constexpr int64_t kSegment = 4000;
  MaterializedStream out;
  std::mt19937_64 rng(seed);
  for (int64_t t = 0; t < end;) {
    out.push_back(El(static_cast<int64_t>(rng() % 200), t, t + 1));
    const bool odd = (t / kSegment) % 2 == 1;
    t += odd == fast_on_odd ? 4 : 40;
  }
  return out;
}

TEST(AutoReoptTest, MigrationCountsStayExactAfterJournalDropsPhases) {
  // A 4-event journal overwrites the phase events of every migration but
  // the last; each migration count the engine reports stays exact.
  Dsms::Options options;
  options.stats_horizon = 2000;
  options.calibration_period = 1000;
  options.cost_margin = 0.01;
  options.cost_hysteresis = 0.0;
  options.migration_cooldown = 0;
  options.journal_capacity = 4;
  Dsms dsms(options);
  dsms.RegisterStream("A", Schema::OfInts({"x"}), Flipping(20000, true, 51));
  dsms.RegisterStream("B", Schema::OfInts({"x"}), Flipping(20000, true, 52));
  dsms.RegisterStream("C", Schema::OfInts({"x"}), Flipping(20000, false, 53));
  auto id = dsms.InstallQuery(kChainQuery);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();

  const int completed = dsms.Info(id.value()).migrations_completed;
  ASSERT_GE(completed, 2);
  const int started = dsms.AutoStatus(id.value()).fires;
  EXPECT_GE(started, completed);
  EXPECT_EQ(dsms.journal().size(), 4u);
  EXPECT_LT(dsms.tracer().records().size(), 6u * static_cast<size_t>(started))
      << "the ring should have dropped phase events";

  EXPECT_EQ(dsms.tracer().migration_count(), started);
  EXPECT_EQ(dsms.Stats().migrations, started);
  EXPECT_NE(dsms.StatusJson().find("\"migrations_total\": " +
                                   std::to_string(started) + ","),
            std::string::npos);
#ifndef GENMIG_NO_METRICS
  EXPECT_NE(dsms.MetricsText().find("\ngenmig_engine_migrations_total " +
                                    std::to_string(started) + "\n"),
            std::string::npos);
#endif
}

TEST(AutoReoptTest, HysteresisAndCooldownPreventThrash) {
  // Adversarial workload: the rates of {A, B} and C trade places every 4000
  // time units, so the "best" plan keeps flipping. The shipped trigger must
  // never complete two migrations closer than the cool-down; the naive
  // configuration (no hysteresis, no cool-down, hair-trigger margin)
  // demonstrates the thrash this guards against.
  constexpr int64_t kEnd = 40000;
  constexpr Duration kCooldown = 10000;

  auto run = [&](double margin, double hysteresis, Duration cooldown) {
    Dsms::Options options;
    options.stats_horizon = 2000;
    options.calibration_period = 1000;
    options.cost_margin = margin;
    options.cost_hysteresis = hysteresis;
    options.migration_cooldown = cooldown;
    auto dsms = std::make_unique<Dsms>(options);
    dsms->RegisterStream("A", Schema::OfInts({"x"}), Flipping(kEnd, true, 51));
    dsms->RegisterStream("B", Schema::OfInts({"x"}), Flipping(kEnd, true, 52));
    dsms->RegisterStream("C", Schema::OfInts({"x"}),
                         Flipping(kEnd, false, 53));
    auto id = dsms->InstallQuery(kChainQuery);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    dsms->RunToCompletion();
    return dsms;
  };

  auto guarded = run(0.25, 0.1, kCooldown);
  const std::vector<int64_t> completions = CompletionTimes(guarded->tracer());
  // Zero thrash: consecutive completed migrations at least a cool-down
  // apart, and the total bounded by the horizon over the cool-down.
  EXPECT_LE(completions.size(), static_cast<size_t>(kEnd / kCooldown) + 1);
  for (size_t i = 1; i < completions.size(); ++i) {
    EXPECT_GE(completions[i] - completions[i - 1], kCooldown)
        << "thrash between migrations " << i - 1 << " and " << i;
  }

  auto naive = run(0.01, 0.0, 0);
  const std::vector<int64_t> naive_completions =
      CompletionTimes(naive->tracer());
  // Without the guards the same workload thrashes: more migrations overall,
  // including pairs closer than the cool-down window.
  ASSERT_GE(naive_completions.size(), 2u);
  EXPECT_GT(naive_completions.size(), completions.size());
  int64_t min_gap = kEnd;
  for (size_t i = 1; i < naive_completions.size(); ++i) {
    min_gap = std::min(min_gap,
                       naive_completions[i] - naive_completions[i - 1]);
  }
  EXPECT_LT(min_gap, kCooldown);
}

}  // namespace
}  // namespace genmig
