// CostCalibrator: folds obs::MetricsRegistry observations of a running plan
// into calibrated rate/selectivity estimates for the cost model.
//
// This is the "calibrate" stage of the engine's calibrate -> cost -> trigger
// loop (DESIGN.md): every calibration period the engine reads the exact
// per-operator element counters (plus the sampled state/latency gauges) of
// the hosted box, differences them against the previous reading and folds the
// resulting rate samples into per-subplan observations. The cost model then
// prices the *running* plan from these measured rates and candidate rewrites
// from calibrated estimates — shared subtrees are matched structurally, so a
// rewrite is only charged estimates for the operators it actually changes.
//
// Observations are keyed by PlanSignature (a canonical string of the logical
// subtree), not by operator-instance name: instance names repeat across
// migrations ("hashjoin#1" exists in both the old and the new box), while the
// signature identifies the computation independent of which box performs it.
//
// Robustness rules:
//  * EWMA folding — each new rate sample moves the observation by
//    Options::sample_weight, smoothing scheduling jitter.
//  * Staleness window — observations older than Options::stale_after (per the
//    calibrator's own observation clock) stop overriding the cost model, so a
//    plan change or a skipped pass (mid-migration) degrades gracefully to
//    estimates instead of serving frozen rates.
//  * Counter resets — a counter that moves backwards (a fresh operator
//    instance after a migration re-used the slot key) re-baselines without
//    folding a bogus negative rate.
//  * Missing slots — operators without a metric slot (created mid-migration
//    with no registry attached, or compiled out via GENMIG_NO_METRICS) are
//    skipped; their observations age out instead of folding garbage.

#ifndef GENMIG_OPT_CALIBRATOR_H_
#define GENMIG_OPT_CALIBRATOR_H_

#include <cstdint>
#include <map>
#include <string>

#include "opt/cost.h"
#include "plan/box.h"
#include "plan/logical.h"
#include "stream/state_codec.h"
#include "time/timestamp.h"

namespace genmig {

/// Canonical structural signature of a logical subplan: two subtrees have
/// equal signatures iff they compute the same operator tree over the same
/// sources. Used to carry observations from a running plan to the matching
/// subtrees of candidate rewrites.
std::string PlanSignature(const LogicalNode& node);

class CostCalibrator : public PlanObservations {
 public:
  struct Options {
    /// Observations whose last sample is older than this (application time,
    /// measured against the calibrator's observation clock) no longer
    /// override the cost model.
    Duration stale_after = 5000;
    /// EWMA weight of the newest sample: folded = w * sample + (1-w) * old.
    double sample_weight = 0.5;
    /// Two counter readings closer together than this (application time)
    /// are not differenced into a rate sample (guards division by ~0).
    Duration min_sample_span = 1;
    /// Feed calibrated per-element CPU cost (the EWMA of the operators'
    /// sampled push-latency means) into the cost model: Lookup then fills
    /// NodeObservation::cpu_ns_per_element, and EstimatePlan replaces the
    /// node's structural self-cost with measured work (see opt/cost.h,
    /// kCostUnitNs). Off by default: measured nanoseconds and structural
    /// units rank plans on different scales, so this is opt-in per engine.
    bool use_cpu_cost = false;
  };

  /// One subplan's folded observation.
  struct Observation {
    double in_rate = 0.0;       // Input elements per time unit (EWMA).
    double out_rate = 0.0;      // Output elements per time unit (EWMA).
    double selectivity = 1.0;   // out/in element ratio (EWMA).
    double state_bytes = 0.0;   // Latest sampled state gauge.
    double push_mean_ns = 0.0;  // Mean push latency (EWMA over readings).
    uint64_t samples = 0;       // Rate samples folded so far.
    Timestamp last_update = Timestamp::MinInstant();
  };

  CostCalibrator() : CostCalibrator(Options{}) {}
  explicit CostCalibrator(Options options) : options_(options) {}

  // --- Observation ingestion ----------------------------------------------

  /// Folds one raw counter reading for `key`. `elements_in`/`elements_out`
  /// are cumulative (monotone) counters; the calibrator differences
  /// consecutive readings into rate samples. `state_bytes`/`push_mean_ns`
  /// are gauges, taken as-is. A counter going backwards re-baselines the
  /// slot without producing a sample (the operator instance was replaced).
  void ObserveCounters(const std::string& key, uint64_t elements_in,
                       uint64_t elements_out, uint64_t state_bytes,
                       double push_mean_ns, Timestamp now);

  /// Observes every operator of a running plan under the logical node it
  /// implements: `stripped` must be the window-stripped logical plan `box`
  /// was compiled from, and Box::op_nodes() (recorded by CompilePlan) pairs
  /// each operator with its node's post-order index. A stateless chain is
  /// observed under its top node, so its in-rate is the chain's input and
  /// its push time the whole chain's; the nodes below stay unobserved.
  /// Operators without a metric slot are skipped. Returns the number of
  /// slots read (0 under GENMIG_NO_METRICS, for a hand-wired box, or for a
  /// plan whose root is not the box output's node).
  size_t ObservePlanBox(const LogicalNode& stripped, const Box& box,
                        Timestamp now);

  /// Advances the observation clock without folding samples. Call when an
  /// observation pass is skipped (e.g. mid-migration) so existing
  /// observations still age toward staleness.
  void AdvanceTime(Timestamp now) {
    if (last_observation_ < now) last_observation_ = now;
  }

  // --- Calibrated outputs --------------------------------------------------

  /// Observation for `key` if it has at least one sample and is fresh at
  /// `as_of`; nullptr otherwise.
  const Observation* Fresh(const std::string& key, Timestamp as_of) const;

  /// Last raw observation for `key` regardless of staleness.
  const Observation* Raw(const std::string& key) const;

  /// Copy of `base` with each source's rate replaced by its observed input
  /// rate where a fresh observation exists (distinct-value statistics are
  /// kept from `base`).
  StatsCatalog Calibrated(const StatsCatalog& base) const;

  /// PlanObservations: keyed by PlanSignature, fresh as of the latest
  /// observation pass.
  const NodeObservation* Lookup(const LogicalNode& node) const override;

  Timestamp last_observation() const { return last_observation_; }
  const Options& options() const { return options_; }

  // --- Checkpointing (ISSUE 10) -------------------------------------------
  // The folded observations and counter baselines ARE the control loop's
  // memory: restoring them cold would re-baseline every slot and silence the
  // cost trigger for a full staleness window after recovery.
  void CkptExport(StateEnc* enc) const;
  bool CkptImport(StateDec* dec);

 private:
  struct Slot {
    // Raw counter baseline of the previous reading.
    uint64_t last_in = 0;
    uint64_t last_out = 0;
    Timestamp last_read = Timestamp::MinInstant();
    bool have_baseline = false;
    Observation obs;
  };

  void Fold(double* value, double sample, bool first) const {
    *value = first ? sample
                   : options_.sample_weight * sample +
                         (1.0 - options_.sample_weight) * *value;
  }

  Options options_;
  std::map<std::string, Slot> slots_;
  Timestamp last_observation_ = Timestamp::MinInstant();
  /// Scratch for Lookup's returned pointer (valid until the next Lookup).
  mutable NodeObservation lookup_scratch_;
};

}  // namespace genmig

#endif  // GENMIG_OPT_CALIBRATOR_H_
