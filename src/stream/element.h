// Physical stream elements (Definition 3): a tuple plus a half-open validity
// interval [tS, tE). A physical stream is non-decreasingly ordered by start
// timestamps; the engine checks this invariant at every operator boundary.

#ifndef GENMIG_STREAM_ELEMENT_H_
#define GENMIG_STREAM_ELEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "time/interval.h"

namespace genmig {

/// One element of a physical (interval-based) stream.
struct StreamElement {
  Tuple tuple;
  TimeInterval interval;

  /// Parallel-Track lineage (Section 3.1). The migration controller stamps
  /// every source element with its current migration epoch; operators
  /// propagate the MINIMUM epoch of all contributing elements. During a PT
  /// migration that started at epoch E, an element is "old" iff its epoch is
  /// < E — i.e. at least one contributing element arrived before migration
  /// start. PT drops old-box results that are not old (the new box also
  /// produces them). Outside PT migrations the field is ignored.
  uint32_t epoch = 0;

  /// Observability: wall-clock ingress stamp (obs::MonotonicNowNs) of the
  /// sampled source element this element derives from; 0 means unstamped.
  /// Sources stamp every kSampleEvery-th injected element, operators carry
  /// the stamp through to derived results, and sinks record the difference
  /// to now as end-to-end latency — the user-visible snapshot latency,
  /// including any migration stall. Transient metadata like `epoch`.
  uint64_t ingress_ns = 0;

  StreamElement() = default;
  StreamElement(Tuple t, TimeInterval iv, uint32_t ep = 0)
      : tuple(std::move(t)), interval(iv), epoch(ep) {}

  /// Value-payload bytes (Figure 5 style memory accounting: values only, no
  /// timestamp overhead).
  size_t PayloadBytes() const { return tuple.PayloadBytes(); }

  /// Elements are compared by content for test assertions; the lineage flag
  /// is transient metadata and excluded.
  bool operator==(const StreamElement& other) const {
    return tuple == other.tuple && interval == other.interval;
  }
  bool operator!=(const StreamElement& other) const {
    return !(*this == other);
  }

  std::string ToString() const {
    std::string out = tuple.ToString() + "@" + interval.ToString();
    if (epoch != 0) out += " [e" + std::to_string(epoch) + "]";
    return out;
  }
};

// Feeds and operator queues hold elements contiguously; a wider element
// slows every walk over them (see DESIGN.md "Row layout").
static_assert(sizeof(StreamElement) <= 88, "StreamElement stays compact");

/// A materialized stream: elements in non-decreasing tS order.
using MaterializedStream = std::vector<StreamElement>;

/// True iff `stream` satisfies the physical-stream ordering invariant.
bool IsOrderedByStart(const MaterializedStream& stream);

/// Raw input element: a tuple with an application timestamp but no interval
/// (Section 2.2, "Input Stream Conversion").
struct TimedTuple {
  Tuple tuple;
  int64_t t = 0;
};

/// Converts a raw, timestamp-ordered input stream into a physical stream by
/// mapping (e, t) to (e, [t, t+1)) — "+1 indicates a time period at finest
/// time granularity".
MaterializedStream ToPhysicalStream(const std::vector<TimedTuple>& raw);

/// Same mapping for a raw stream in *arrival* order: timestamps may go
/// backwards (late data), so the result is NOT a valid physical stream —
/// feed it through a DisorderBuffer (e.g. RegisterDisorderedStream).
MaterializedStream ToPhysicalArrivals(const std::vector<TimedTuple>& raw);

}  // namespace genmig

#endif  // GENMIG_STREAM_ELEMENT_H_
