#include "migration/trigger_policy.h"

namespace genmig {

void CostRatioPolicy::UpdateSignal(double ratio) {
  ratio_ = ratio;
  if (!armed_ && ratio <= rearm_threshold()) armed_ = true;
}

bool CostRatioPolicy::ShouldFire(Timestamp now, Timestamp last_completed) {
  if (!armed_ || ratio_ < fire_threshold()) return false;
  // The cool-down does not consume the arming: a *sustained* improvement
  // still migrates once the window elapses, while a transient spike has
  // been re-costed (and typically retracted) by then.
  if (options_.cooldown > 0 && last_completed != Timestamp::MinInstant() &&
      now.t - last_completed.t < options_.cooldown) {
    return false;
  }
  armed_ = false;  // Hysteresis latch: re-armed by UpdateSignal only.
  ++fires_;
  return true;
}

}  // namespace genmig
