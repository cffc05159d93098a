// Exporters: serialize a MetricsRegistry (and optionally the migration
// phases and timeline samples of an EventJournal) to JSON or Chrome-trace
// JSON. The plain JSON layout is what bench/ writes into
// BENCH_*.json and what examples/quickstart --stats prints:
//
// {
//   "operators": [ { "name": ..., "elements_in": ..., "elements_out": ...,
//                    "negatives_in": ..., "state_inserts": ...,
//                    "peak_state_bytes": ..., "push_ns": {"count": ...,
//                    "mean": ..., "p50": ..., "p99": ..., "max": ...,
//                    "buckets": [[upper_ns, count], ...] },
//                    "e2e_ns": {...} (sinks with stamped traffic) }, ... ],
//   "totals": { "elements_in": ..., "elements_out": ... },
//   "migrations": [ { "id": ..., "events": [ { "event": ...,
//                     "app_time": ..., "wall_ns": ..., "detail": ... } ],
//                     "phase_ns": { "requested_to_split_installed": ...,
//                                   ... , "total": ... } }, ... ]
// }
//
// p50/p99 are log-bucket interpolated (LatencyHistogram::ApproxQuantile).

#ifndef GENMIG_OBS_EXPORT_H_
#define GENMIG_OBS_EXPORT_H_

#include <string>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace genmig {
namespace obs {

/// "migrations" lists every migration with a phase event retained in
/// `journal`, by id.
std::string ToJson(const MetricsRegistry& registry,
                   const EventJournal* journal = nullptr);

/// Chrome-trace / Perfetto JSON ({"traceEvents": [...]}; load the file in
/// chrome://tracing or https://ui.perfetto.dev). Renders
///   * one enclosing duration span per migration plus one child span per
///     consecutive MigrationEvent pair (requested→split_installed→...),
///     with T_split / buffer sizes from the trace details in span args;
///   * an instant per trace record;
///   * counter tracks from the timeline samples: queue depth, state bytes,
///     interval sink e2e p50/p99 latency, per-operator output rates.
/// Phases and samples come from one `journal` snapshot. All timestamps
/// share the obs::MonotonicNowNs domain (exported in µs). `journal` is
/// optional; a registry alone yields a valid (metadata-only) trace.
std::string ToChromeTrace(const MetricsRegistry& registry,
                          const EventJournal* journal = nullptr);

/// Writes `content` to `path`; returns false (and leaves errno) on failure.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace obs
}  // namespace genmig

#endif  // GENMIG_OBS_EXPORT_H_
