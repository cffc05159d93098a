// Metric time-series: periodic snapshots of the registry in the event
// journal, so tests and benches can ask *what happened over time* — "what did
// queue depth / p99 end-to-end latency do during the migration window?" —
// instead of only reading cumulative totals after the run. This is the
// instrument behind Fig. 4-style latency-during-migration plots (the paper
// argues for GenMig over Parallel Track precisely in terms of runtime
// behaviour during the migration: output stall, memory spike, drain time).
//
// Data flow: sources stamp a sampled ingress wall-clock onto elements
// (ops/source.h), sinks fold ingress→egress deltas into per-sink
// OperatorMetrics::e2e_ns histograms (ops/sink.h), and a TimelineSampler —
// driven from the Dsms reoptimization hook or any executor after_step —
// periodically snapshots the registry into a kSample event of an
// EventJournal (obs/journal.h), which bounds retention and spills the full
// history. Per-sample latency quantiles are *interval* quantiles: the
// sampler differences the cumulative e2e histogram between consecutive
// samples, so a sample reflects only the elements that arrived since the
// previous one. The Chrome-trace exporter (obs/export.h) renders the
// samples as counter tracks.

#ifndef GENMIG_OBS_TIMELINE_H_
#define GENMIG_OBS_TIMELINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "time/timestamp.h"

namespace genmig {
namespace obs {

/// One periodic snapshot of the registry.
struct MetricSample {
  /// Wall clock of the snapshot (MonotonicNowNs domain, shared with ingress
  /// stamps and migration trace records).
  uint64_t wall_ns = 0;
  /// Application time at the snapshot (executor progress).
  Timestamp app_time;
  /// True while any query's migration controller is mid-migration.
  bool migration_active = false;

  // Registry-wide cumulative counters at the snapshot.
  uint64_t elements_in = 0;
  uint64_t elements_out = 0;
  uint64_t state_bytes = 0;
  /// Sum of sampled reordering/merge-buffer depths across operators.
  uint64_t queue_depth = 0;
  /// Max per-shard watermark lag across slots (ISSUE 9 lag attribution;
  /// 0 outside the shard executor).
  uint64_t watermark_lag_max = 0;
  /// Sum of cumulative backpressure-blocked nanoseconds across queues.
  uint64_t backpressure_ns = 0;

  // Interval end-to-end latency over (previous sample, this sample].
  uint64_t sink_count = 0;    ///< Stamped elements that reached sinks.
  double sink_p50_ns = 0.0;
  double sink_p99_ns = 0.0;
  uint64_t sink_max_ns = 0;   ///< Max bucket upper bound seen this interval.

  /// Cumulative elements_out per registry slot (index-aligned with
  /// MetricsRegistry::operators()); the exporter turns consecutive samples
  /// into per-operator rate tracks.
  std::vector<uint64_t> op_elements_out;
};

/// Journal encoding of a sample: one kSample event whose nums carry every
/// field above, the per-operator counts as "op_out.<slot>".
JournalEvent SampleEvent(const MetricSample& sample);
/// Decodes a kSample event; false for any other event.
bool SampleFromEvent(const JournalEvent& event, MetricSample* out);
/// The samples `journal` retains, oldest first.
std::vector<MetricSample> Samples(const EventJournal& journal);

// --- Window queries over samples with from <= app_time <= to ---------------
/// Max interval sink p99 in the window (0 if no sample has sink traffic).
double MaxSinkP99Between(const std::vector<MetricSample>& samples,
                         Timestamp from, Timestamp to);
uint64_t MaxQueueDepthBetween(const std::vector<MetricSample>& samples,
                              Timestamp from, Timestamp to);
uint64_t MaxStateBytesBetween(const std::vector<MetricSample>& samples,
                              Timestamp from, Timestamp to);
/// Samples inside the window that saw at least one stamped sink arrival.
size_t SamplesWithSinkTrafficBetween(const std::vector<MetricSample>& samples,
                                     Timestamp from, Timestamp to);

/// Snapshots a MetricsRegistry into kSample events of a journal. Keeps the
/// previous cumulative e2e bucket counts so each sample carries interval
/// latency quantiles. Owns neither side; single-threaded like the engine.
class TimelineSampler {
 public:
  TimelineSampler(const MetricsRegistry* registry, EventJournal* journal)
      : registry_(registry), journal_(journal) {}

  /// Takes one sample. `migration_active` is the caller's knowledge of
  /// whether a migration is in flight at this instant.
  void Sample(Timestamp app_time, bool migration_active);

  /// Forget the cumulative baseline (call after MetricsRegistry::Reset so
  /// the next interval does not underflow).
  void Rebaseline();

 private:
  const MetricsRegistry* registry_;
  EventJournal* journal_;
  std::array<uint64_t, LatencyHistogram::kBuckets> prev_e2e_{};
  uint64_t prev_e2e_count_ = 0;
};

}  // namespace obs
}  // namespace genmig

#endif  // GENMIG_OBS_TIMELINE_H_
