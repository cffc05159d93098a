// CostRatioPolicy: the migrate-or-not rule of the engine's cost-feedback
// loop (DESIGN.md Sec. 8).
//
// Dsms::CalibrateAndArm costs the running plan against the best candidate
// once per calibration period, feeds the ratio running / candidate into
// UpdateSignal, and — while the query hosts a single plan — starts a GenMig
// migration in the same pass when ShouldFire says so. The policy knows
// neither the engine nor the controller: it is a latch over the ratio series
// plus a cool-down clock.
//
// Oscillation argument. Let m = margin, h = hysteresis (0 < h <= m), c =
// cooldown.
//  1. Cool-down bound: ShouldFire returns false within c application-time
//     units of the last completed migration, so completions are at least c
//     apart — at most one migration per cool-down window, mechanically.
//  2. Hysteresis latch: firing disarms the policy; it only re-arms once the
//     ratio drops to <= 1 + m - h. A signal that merely hovers around the
//     fire threshold 1 + m (measurement noise smaller than h) can therefore
//     never fire twice: the second firing requires a genuine dip through the
//     full hysteresis band followed by a genuine climb back over the margin.
//  3. Fresh signal: every decision uses the ratio computed in the same
//     calibration pass, and the first pass after a completed migration
//     already costs the new plan — a ratio computed for the *old* plan can
//     never trigger a migration of the new plan.

#ifndef GENMIG_MIGRATION_TRIGGER_POLICY_H_
#define GENMIG_MIGRATION_TRIGGER_POLICY_H_

#include "time/timestamp.h"

namespace genmig {

class CostRatioPolicy {
 public:
  struct Options {
    /// Fire when running/candidate >= 1 + margin.
    double margin = 0.25;
    /// Re-arm only when the ratio drops to <= 1 + margin - hysteresis.
    double hysteresis = 0.1;
    /// No firing within this many application-time units of the last
    /// completed migration (0 disables the cool-down).
    Duration cooldown = 0;
  };

  CostRatioPolicy() : CostRatioPolicy(Options{}) {}
  explicit CostRatioPolicy(Options options) : options_(options) {}

  /// Feeds the newest calibrated cost ratio; re-arms the latch once the
  /// ratio dips to rearm_threshold().
  void UpdateSignal(double ratio);

  /// True => migrate now. `now` is the deciding pass's application time,
  /// `last_completed` that of the last completed migration (MinInstant when
  /// none). Firing latches the policy disarmed; a cool-down block does not.
  bool ShouldFire(Timestamp now, Timestamp last_completed);

  bool armed() const { return armed_; }
  int fires() const { return fires_; }
  double fire_threshold() const { return 1.0 + options_.margin; }
  double rearm_threshold() const {
    return 1.0 + options_.margin - options_.hysteresis;
  }

 private:
  Options options_;
  double ratio_ = 0.0;
  bool armed_ = true;
  int fires_ = 0;
};

}  // namespace genmig

#endif  // GENMIG_MIGRATION_TRIGGER_POLICY_H_
