// DisorderBuffer: bounded out-of-order ingestion (ROADMAP "scenario
// diversity"). Real streams arrive late; the paper's physical-stream model
// (Definition 3) requires elements ordered by start timestamp. This stage
// sits between an arrival-ordered source and the engine: it admits elements
// whose start lies at or above a monotone low-watermark W, holds them in a
// reordering heap, and releases them in timestamp order once W passes them.
//
// Watermark discipline
// --------------------
//   W = max(W_prev, max_arrived_start - delta)
//
// where delta is the bounded-lateness allowance in application-time units.
// The max with W_prev keeps W monotone even when an adaptive delta widens.
// Invariants (property-tested in tests/stream/disorder_test.cc):
//   * W never decreases.
//   * An element is admitted iff start >= W at arrival; later ones are
//     dropped and counted (never emitted — "no element after its watermark").
//   * The released sequence is ordered by start (a valid physical stream),
//     and every released element has start >= the W that was current when
//     the preceding heartbeat at W was announced — so announcing W downstream
//     as a heartbeat is always a sound promise.
//
// Adaptive delta: the observed lateness of every arrival (max_arrived_start
// - start, clamped at 0) is recorded in a log-bucket histogram
// (obs::LatencyHistogram — the buckets are powers of two of whatever unit is
// fed in; here application-time units, not nanoseconds). Every adapt_every
// arrivals delta is retargeted to headroom * quantile(q), clamped to
// [min_delta, max_delta]: it tightens when the stream runs nearly in order
// (smaller reordering latency) and widens when lateness grows (fewer drops).

#ifndef GENMIG_STREAM_DISORDER_H_
#define GENMIG_STREAM_DISORDER_H_

#include <cstdint>
#include <functional>

#include "obs/metrics.h"
#include "stream/element.h"
#include "stream/ordered_buffer.h"

namespace genmig {

class DisorderBuffer {
 public:
  struct Options {
    /// Bounded-lateness allowance in application-time units: an element may
    /// arrive up to `delta` time units after a later-timestamped element and
    /// still be admitted. With adaptation enabled this is the initial value.
    int64_t delta = 64;
    /// Adaptive delta: retarget delta from the observed lateness quantile.
    bool adaptive = false;
    /// Clamp range for the adaptive delta.
    int64_t min_delta = 0;
    int64_t max_delta = 1 << 20;
    /// Lateness quantile the adaptive delta tracks.
    double quantile = 0.99;
    /// Multiplicative slack over the tracked quantile.
    double headroom = 1.25;
    /// Arrivals between adaptation steps.
    uint64_t adapt_every = 128;
    /// Invoked after every completed delta retarget (on the admitting
    /// thread) with (old_delta, new_delta, tracked lateness quantile value,
    /// arrivals so far). The engine wires this into the decision journal
    /// (obs/journal.h kDisorderAdapt).
    std::function<void(int64_t old_delta, int64_t new_delta, double quantile,
                       uint64_t arrivals)>
        on_adapt;
  };

  struct Stats {
    uint64_t arrived = 0;
    uint64_t admitted = 0;
    uint64_t dropped_late = 0;  ///< start < W at arrival; never emitted.
    uint64_t released = 0;
    uint64_t adaptations = 0;   ///< Completed delta retargets.
    int64_t max_lateness = 0;   ///< Largest observed arrival lateness.
  };

  DisorderBuffer() : DisorderBuffer(Options{}) {}
  explicit DisorderBuffer(Options options);

  /// Offers one arrival. Returns true when admitted, false when dropped as
  /// too late. Elements released by the watermark advance (ordered by start)
  /// are appended to `out`.
  bool Admit(const StreamElement& element, MaterializedStream* out);

  /// End of arrivals: releases everything still buffered, in order, and
  /// advances the watermark to the largest arrival start (the final
  /// heartbeat promise downstream).
  void FlushAll(MaterializedStream* out);

  /// Monotone low-watermark: no future *released* element starts below it.
  /// MinInstant until the first arrival.
  Timestamp watermark() const { return watermark_; }
  /// Current bounded-lateness allowance (fixed, or adaptive).
  int64_t delta() const { return delta_; }
  size_t buffered() const { return heap_.size(); }
  const Stats& stats() const { return stats_; }
  /// Observed-lateness histogram (application-time units, log buckets).
  const obs::LatencyHistogram& lateness() const { return lateness_; }
  const Options& options() const { return options_; }

  // --- Checkpointing (ISSUE 10) --------------------------------------------
  // Everything that influences future admit/release decisions is captured:
  // the watermark and buffered front, the (possibly adapted) delta, the
  // counters that pace adaptation, and the lateness histogram the next
  // retarget will read — so a restored buffer drops/admits/adapts exactly
  // like the uninterrupted run.
  void CkptExport(StateEnc* enc) const;
  bool CkptImport(StateDec* dec);

 private:
  void AdvanceWatermark(MaterializedStream* out);
  void MaybeAdapt();

  Options options_;
  int64_t delta_;
  Timestamp watermark_ = Timestamp::MinInstant();
  Timestamp max_arrived_ = Timestamp::MinInstant();
  OrderedOutputBuffer heap_;
  obs::LatencyHistogram lateness_;
  Stats stats_;
};

/// One pass of a fresh DisorderBuffer built from `options` over `arrivals`:
/// the released rows, ordered by start, without the arrivals it dropped as
/// too late. Feeds ordered-only consumers such as par::Coordinator.
MaterializedStream Reorder(const MaterializedStream& arrivals,
                           DisorderBuffer::Options options);

}  // namespace genmig

#endif  // GENMIG_STREAM_DISORDER_H_
