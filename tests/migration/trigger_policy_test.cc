// Unit tests for CostRatioPolicy, the engine's migrate-or-not rule: the
// margin/hysteresis latch, the cool-down, and the oscillation bounds the
// header comment argues, against a naive threshold rule that thrashes.

#include "migration/trigger_policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace genmig {
namespace {

constexpr Timestamp kNever = Timestamp::MinInstant();

// --- CostRatioPolicy ---------------------------------------------------------

TEST(CostRatioPolicyTest, FiresOnMarginAndLatchesUntilHysteresisDip) {
  CostRatioPolicy::Options opt;
  opt.margin = 0.25;      // Fire at ratio >= 1.25.
  opt.hysteresis = 0.1;   // Re-arm at ratio <= 1.15.
  opt.cooldown = 0;
  CostRatioPolicy policy(opt);

  EXPECT_FALSE(policy.ShouldFire(Timestamp(0), kNever));  // No signal.
  policy.UpdateSignal(1.2);
  EXPECT_FALSE(policy.ShouldFire(Timestamp(10), kNever));  // Below margin.
  policy.UpdateSignal(1.3);
  EXPECT_TRUE(policy.ShouldFire(Timestamp(20), kNever));
  EXPECT_FALSE(policy.armed());
  // Hovering above the re-arm threshold can never fire again.
  policy.UpdateSignal(1.4);
  EXPECT_FALSE(policy.ShouldFire(Timestamp(30), kNever));
  policy.UpdateSignal(1.2);  // 1.2 > 1.15: still latched.
  EXPECT_FALSE(policy.ShouldFire(Timestamp(40), kNever));
  // A genuine dip through the hysteresis band re-arms...
  policy.UpdateSignal(1.1);
  EXPECT_TRUE(policy.armed());
  EXPECT_FALSE(policy.ShouldFire(Timestamp(50), kNever));  // 1.1 < 1.25.
  // ...and a genuine climb back over the margin fires again.
  policy.UpdateSignal(1.5);
  EXPECT_TRUE(policy.ShouldFire(Timestamp(60), kNever));
  EXPECT_EQ(policy.fires(), 2);
}

TEST(CostRatioPolicyTest, CooldownBlocksWithoutConsumingTheArming) {
  CostRatioPolicy::Options opt;
  opt.margin = 0.25;
  opt.hysteresis = 0.1;
  opt.cooldown = 100;
  CostRatioPolicy policy(opt);

  policy.UpdateSignal(1.5);
  EXPECT_TRUE(policy.ShouldFire(Timestamp(10), kNever));
  const Timestamp completed(20);
  // Dip (re-arm), then a new over-margin signal inside the cool-down.
  policy.UpdateSignal(1.0);
  policy.UpdateSignal(1.6);
  EXPECT_FALSE(policy.ShouldFire(Timestamp(40), completed));
  EXPECT_TRUE(policy.armed());  // Not consumed by the blocked attempt.
  // A sustained improvement still migrates once the window elapses.
  EXPECT_TRUE(policy.ShouldFire(Timestamp(120), completed));
}

// --- Oscillation (regression for A->B->A thrash) -----------------------------

/// Feeds `ratio_at(t)` to `decide(ratio, t, last_completed)` on a fixed tick
/// grid, treating every firing as an instantly completed migration (the
/// worst case for oscillation). Returns the fire times.
template <typename RatioFn, typename DecideFn>
std::vector<int64_t> SimulateFires(const RatioFn& ratio_at,
                                   const DecideFn& decide, int64_t horizon,
                                   int64_t tick) {
  std::vector<int64_t> fires;
  Timestamp last_completed = kNever;
  for (int64_t t = 0; t <= horizon; t += tick) {
    if (decide(ratio_at(t), Timestamp(t), last_completed)) {
      fires.push_back(t);
      last_completed = Timestamp(t);
    }
  }
  return fires;
}

/// The shipped rule as a SimulateFires decision.
auto Guarded(CostRatioPolicy& policy) {
  return [&policy](double ratio, Timestamp now, Timestamp last_completed) {
    policy.UpdateSignal(ratio);
    return policy.ShouldFire(now, last_completed);
  };
}

/// The naive rule an engine without hysteresis or cool-down would use: fire
/// whenever the latest ratio clears 1.25. Exists to demonstrate the thrash
/// the shipped CostRatioPolicy provably avoids.
const auto kNaive = [](double ratio, Timestamp, Timestamp) {
  return ratio >= 1.25;
};

TEST(OscillationTest, CooldownBoundsFullRatioFlips) {
  // Adversarial signal: the plans genuinely trade places every tick, so the
  // ratio flips between 1.5 and 0.5 — hysteresis alone cannot help (each
  // flip is a genuine dip), the cool-down must bound the migration rate.
  const auto flip = [](int64_t t) { return (t / 10) % 2 == 1 ? 1.5 : 0.5; };
  constexpr int64_t kHorizon = 1000;
  constexpr Duration kCooldown = 200;

  CostRatioPolicy::Options opt;
  opt.margin = 0.25;
  opt.hysteresis = 0.1;
  opt.cooldown = kCooldown;
  CostRatioPolicy guarded(opt);
  const std::vector<int64_t> fires =
      SimulateFires(flip, Guarded(guarded), kHorizon, 10);
  // At most one migration per cool-down window.
  ASSERT_FALSE(fires.empty());
  EXPECT_LE(fires.size(), static_cast<size_t>(kHorizon / kCooldown) + 1);
  for (size_t i = 1; i < fires.size(); ++i) {
    EXPECT_GE(fires[i] - fires[i - 1], kCooldown);
  }

  const std::vector<int64_t> naive_fires =
      SimulateFires(flip, kNaive, kHorizon, 10);
  // The naive rule migrates on every over-threshold tick: thrash.
  EXPECT_GE(naive_fires.size(), 10 * fires.size());
  ASSERT_GE(naive_fires.size(), 2u);
  EXPECT_LT(naive_fires[1] - naive_fires[0], kCooldown);
}

TEST(OscillationTest, HysteresisKillsHoveringSignals) {
  // Measurement noise hovering around the fire threshold (amplitude smaller
  // than the hysteresis band): one migration, then silence — even with the
  // cool-down disabled.
  const auto hover = [](int64_t t) { return (t / 10) % 2 == 1 ? 1.31 : 1.21; };
  CostRatioPolicy::Options opt;
  opt.margin = 0.25;      // Fire at 1.25.
  opt.hysteresis = 0.1;   // Re-arm at 1.15 — the signal never gets there.
  opt.cooldown = 0;
  CostRatioPolicy guarded(opt);
  const std::vector<int64_t> fires =
      SimulateFires(hover, Guarded(guarded), 1000, 10);
  EXPECT_EQ(fires.size(), 1u);

  const std::vector<int64_t> naive_fires =
      SimulateFires(hover, kNaive, 1000, 10);
  EXPECT_GE(naive_fires.size(), 40u);  // Thrashes on every high tick.
}

}  // namespace
}  // namespace genmig
