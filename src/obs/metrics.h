// Observability: per-operator runtime metrics (ROADMAP "measurement layer").
//
// The migration controller decides *whether* and *when* to swap a running
// plan, but the paper's premise — the old plan has become inefficient — is
// only observable with live per-operator cost signals. This registry is the
// read path for that decision: every operator carries counters (elements
// in/out, negatives, state size, queue depth) and a sampled push-latency
// histogram; migration phase transitions are recorded by obs::MigrationTracer
// (trace.h) and everything is serialized by obs::exporter (export.h).
//
// Overhead contract
// -----------------
//  * Detached (no registry): one pointer test per push — unmeasurable.
//  * Attached: counter increments per push; clock reads and virtual state
//    probes only every kSampleEvery-th push. Counted by
//    tests/obs/hot_path_test.cc; the 5% wall-clock budget on the operator
//    micro-benchmarks is enforced nightly by bench/metrics_guard.cc.
//  * Compiled out (-DGENMIG_NO_METRICS): the operator-base hooks vanish
//    entirely; this registry still links (empty) so call sites need no #ifs.
//
// Threading contract (src/par shard executor)
// -------------------------------------------
//  * Every counter/gauge is a RelaxedU64 — a relaxed std::atomic<uint64_t>
//    with single-writer load+store increments (a plain mov pair on x86, so
//    the metrics_guard budget is unaffected). Each slot has exactly ONE
//    writer (the operator instance, which lives on one shard thread);
//    any thread may read a slot concurrently and sees a torn-free value.
//  * Register() is mutex-guarded: shard threads register migration-machinery
//    slots concurrently. Slot pointers stay stable (deque storage).
//  * operators() iteration is snapshot-free and must only run while no
//    concurrent Register() is possible (single-threaded phases, or after the
//    shard threads joined). The Total*/Find* helpers take the lock.

#ifndef GENMIG_OBS_METRICS_H_
#define GENMIG_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace genmig {
namespace obs {

/// Relaxed atomic uint64_t with value semantics. Increments are
/// single-writer (load + store, not lock-prefixed RMW): each metric slot is
/// written by exactly one thread, so the non-atomic read-modify-write is
/// race-free while concurrent readers still get torn-free loads.
class RelaxedU64 {
 public:
  RelaxedU64() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for uint64_t.
  RelaxedU64(uint64_t v) : v_(v) {}
  RelaxedU64(const RelaxedU64& other) : v_(other.load()) {}
  RelaxedU64& operator=(const RelaxedU64& other) {
    store(other.load());
    return *this;
  }
  RelaxedU64& operator=(uint64_t v) {
    store(v);
    return *this;
  }
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for uint64_t.
  operator uint64_t() const { return load(); }

  uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(uint64_t v) { v_.store(v, std::memory_order_relaxed); }

  uint64_t operator++() {  // Single-writer only.
    const uint64_t next = load() + 1;
    store(next);
    return next;
  }
  uint64_t operator++(int) {  // Single-writer only.
    const uint64_t prev = load();
    store(prev + 1);
    return prev;
  }
  RelaxedU64& operator+=(uint64_t delta) {  // Single-writer only.
    store(load() + delta);
    return *this;
  }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Push-latency histogram with power-of-two nanosecond buckets: bucket i
/// counts samples in [2^(i-1), 2^i) ns (bucket 0 counts 0 ns; the last
/// bucket absorbs everything above its lower bound). Single writer per
/// histogram; concurrent readers see torn-free (if slightly skewed between
/// buckets and count) values.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // Up to ~2^39 ns ≈ 9 minutes.

  static size_t BucketOf(uint64_t ns) {
    const size_t width = static_cast<size_t>(std::bit_width(ns));
    return width < kBuckets ? width : kBuckets - 1;
  }
  /// Upper bound (exclusive) of bucket `i` in nanoseconds.
  static uint64_t BucketUpperNs(size_t i) {
    return i >= kBuckets - 1 ? UINT64_MAX : uint64_t{1} << i;
  }

  void Record(uint64_t ns) {
    ++counts_[BucketOf(ns)];
    ++count_;
    sum_ns_ += ns;
    if (ns > max_ns_.load()) max_ns_.store(ns);
  }

  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_ns_; }
  uint64_t max_ns() const { return max_ns_; }
  uint64_t bucket(size_t i) const { return counts_[i]; }
  double MeanNs() const {
    const uint64_t n = count_;
    return n == 0 ? 0.0
                  : static_cast<double>(sum_ns_.load()) /
                        static_cast<double>(n);
  }
  /// Upper bound of the bucket containing the p-quantile (p in [0, 1]).
  uint64_t ApproxQuantileNs(double p) const;

  /// Log-bucket interpolated p-quantile: positions the rank geometrically
  /// inside its bucket [2^(i-1), 2^i) instead of snapping to the upper
  /// bound, and clamps to the observed maximum. Bucket 0 (0 ns) maps to 0.
  double ApproxQuantile(double p) const;

  /// The interpolation behind ApproxQuantile on a raw bucket array — usable
  /// on interval histograms (differences of two cumulative snapshots, see
  /// obs::TimelineSampler) that never existed as a LatencyHistogram.
  static double QuantileFromCounts(const std::array<uint64_t, kBuckets>& counts,
                                   uint64_t count, double p);

  /// Torn-free plain-array snapshot of the bucket counts.
  std::array<uint64_t, kBuckets> counts() const {
    std::array<uint64_t, kBuckets> snap;
    for (size_t i = 0; i < kBuckets; ++i) snap[i] = counts_[i].load();
    return snap;
  }

  void Reset() {
    for (RelaxedU64& c : counts_) c.store(0);
    count_.store(0);
    sum_ns_.store(0);
    max_ns_.store(0);
  }

  /// Replaces the histogram contents with a previously taken snapshot
  /// (checkpoint restore; the DisorderBuffer's adaptive delta must resume
  /// from the same lateness distribution it was tracking at the cut).
  void ImportSnapshot(const std::array<uint64_t, kBuckets>& counts,
                      uint64_t count, uint64_t sum_ns, uint64_t max_ns) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i].store(counts[i]);
    count_.store(count);
    sum_ns_.store(sum_ns);
    max_ns_.store(max_ns);
  }

 private:
  std::array<RelaxedU64, kBuckets> counts_{};
  RelaxedU64 count_;
  RelaxedU64 sum_ns_;
  RelaxedU64 max_ns_;
};

/// Counters of one operator instance. The operator bases update them inline
/// on the hot path; exactly one thread writes a given slot.
struct OperatorMetrics {
  std::string name;

  // Data-path counters (exact).
  RelaxedU64 elements_in;
  RelaxedU64 elements_out;
  RelaxedU64 heartbeats_in;
  /// Number of whole-batch pushes (PushBatch calls); elements_in already
  /// includes their rows, so batches_in / elements_in gives the achieved
  /// batching factor per operator.
  RelaxedU64 batches_in;
  /// PN streams only: negative elements among elements_in / elements_out.
  RelaxedU64 negatives_in;
  RelaxedU64 negatives_out;

  // State-churn counters (exact; maintained by stateful operators).
  RelaxedU64 state_inserts;
  RelaxedU64 state_expires;

  // Gauges sampled every kSampleEvery-th push (plus peaks over samples).
  RelaxedU64 state_units;
  RelaxedU64 state_bytes;
  RelaxedU64 peak_state_units;
  RelaxedU64 peak_state_bytes;
  /// Elements held back in reordering/merge buffers awaiting watermark.
  RelaxedU64 queue_depth;
  RelaxedU64 peak_queue_depth;

  // Lag attribution (ISSUE 9): written by the shard executor / queues.
  /// Application-time distance between the source front (what the router has
  /// routed) and this operator's watermark — how far the operator lags the
  /// stream head. 0 for operators outside the shard executor.
  RelaxedU64 watermark_lag;
  RelaxedU64 peak_watermark_lag;
  /// Cumulative wall-clock nanoseconds a producer spent blocked pushing into
  /// this operator's bounded input queue (backpressure), and how many pushes
  /// blocked at all. Only the slow path is timed; uncontended pushes cost
  /// nothing extra.
  RelaxedU64 backpressure_ns;
  RelaxedU64 backpressure_events;

  /// Sampled wall-clock latency of one PushElement (element handling +
  /// watermark advance + progress publication).
  LatencyHistogram push_ns;

  /// Sinks only: end-to-end latency of ingress-stamped elements (source
  /// stamp to sink arrival, obs::MonotonicNowNs domain). Empty on every
  /// non-terminal operator.
  LatencyHistogram e2e_ns;

  /// Sampled execution spans for the Perfetto export: a bounded ring of
  /// (start, duration) pairs in the obs::MonotonicNowNs domain, recorded on
  /// the same one-in-kSampleEvery pushes that feed push_ns (and once per
  /// PushBatch). The ring overwrites in place, so long runs retain the most
  /// recent kCapacity spans; `total` counts every span ever recorded.
  struct SpanRing {
    static constexpr size_t kCapacity = 128;
    struct Span {
      RelaxedU64 start_ns;
      RelaxedU64 dur_ns;
    };
    std::array<Span, kCapacity> spans{};
    RelaxedU64 total;  // Next slot = total % kCapacity. Single writer.

    void Record(uint64_t start_ns, uint64_t dur_ns) {
      Span& s = spans[total.load() % kCapacity];
      s.start_ns.store(start_ns);
      s.dur_ns.store(dur_ns);
      ++total;
    }
    size_t size() const {
      const uint64_t n = total.load();
      return n < kCapacity ? static_cast<size_t>(n) : kCapacity;
    }
  };
  SpanRing push_spans;

  void SampleState(uint64_t units, uint64_t bytes, uint64_t queue) {
    state_units = units;
    state_bytes = bytes;
    queue_depth = queue;
    if (units > peak_state_units.load()) peak_state_units = units;
    if (bytes > peak_state_bytes.load()) peak_state_bytes = bytes;
    if (queue > peak_queue_depth.load()) peak_queue_depth = queue;
  }
};

/// Owns the per-operator metric slots. Slots are stable for the registry's
/// lifetime (deque storage), so operators keep raw pointers. Operators
/// created later (e.g. the split/coalesce machinery of a migration) register
/// their own fresh slots; names may therefore repeat across migrations —
/// each slot describes one operator *instance*. In the parallel executor,
/// shard runtimes prefix their slot names with "s<k>/" so per-shard series
/// stay distinguishable in exports.
class MetricsRegistry {
 public:
  /// Every kSampleEvery-th push records latency and state gauges.
  static constexpr uint64_t kSampleEvery = 64;
  static constexpr uint64_t kSampleMask = kSampleEvery - 1;

  OperatorMetrics* Register(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.emplace_back();
    slots_.back().name = name;
    return &slots_.back();
  }

  /// Unsynchronized iteration — only while no concurrent Register() can run
  /// (see the threading contract in the file header).
  const std::deque<OperatorMetrics>& operators() const { return slots_; }

  /// Lock-guarded slot discovery for readers that run concurrently with
  /// Register() (the telemetry scrape thread, the timeline sampler during
  /// shard-parallel runs). The returned pointers are stable (deque storage)
  /// and every field behind them is torn-free to read while written.
  std::vector<const OperatorMetrics*> SnapshotSlots() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const OperatorMetrics*> out;
    out.reserve(slots_.size());
    for (const OperatorMetrics& m : slots_) out.push_back(&m);
    return out;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

  /// First slot with `name` (nullptr if absent). Instances registered later
  /// shadow earlier ones only in LastByName.
  const OperatorMetrics* FindByName(const std::string& name) const;
  const OperatorMetrics* LastByName(const std::string& name) const;

  // --- Registry-wide aggregates ------------------------------------------
  uint64_t TotalElementsIn() const;
  uint64_t TotalElementsOut() const;
  uint64_t TotalStateBytes() const;

  /// Zeroes every slot's counters (slots and attachments stay valid).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::deque<OperatorMetrics> slots_;
};

}  // namespace obs
}  // namespace genmig

#endif  // GENMIG_OBS_METRICS_H_
