#include "obs/timeline.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

#include "obs/clock.h"

namespace genmig {
namespace obs {

namespace {

constexpr char kOpOutPrefix[] = "op_out.";

struct U64Field {
  const char* key;
  uint64_t MetricSample::*field;
};
constexpr U64Field kU64Fields[] = {
    {"elements_in", &MetricSample::elements_in},
    {"elements_out", &MetricSample::elements_out},
    {"state_bytes", &MetricSample::state_bytes},
    {"queue_depth", &MetricSample::queue_depth},
    {"watermark_lag_max", &MetricSample::watermark_lag_max},
    {"backpressure_ns", &MetricSample::backpressure_ns},
    {"sink_count", &MetricSample::sink_count},
    {"sink_max_ns", &MetricSample::sink_max_ns},
};

template <typename Fn>
void ForEachBetween(const std::vector<MetricSample>& samples, Timestamp from,
                    Timestamp to, Fn&& fn) {
  for (const MetricSample& s : samples) {
    if (s.app_time < from || s.app_time > to) continue;
    fn(s);
  }
}

}  // namespace

JournalEvent SampleEvent(const MetricSample& s) {
  JournalEvent e;
  e.kind = JournalEvent::Kind::kSample;
  e.wall_ns = s.wall_ns;
  e.app_time = s.app_time;
  e.subject = "timeline";
  e.nums.reserve(std::size(kU64Fields) + 3 + s.op_elements_out.size());
  e.nums.emplace_back("migration_active", s.migration_active ? 1.0 : 0.0);
  for (const U64Field& f : kU64Fields) {
    e.nums.emplace_back(f.key, static_cast<double>(s.*f.field));
  }
  e.nums.emplace_back("sink_p50_ns", s.sink_p50_ns);
  e.nums.emplace_back("sink_p99_ns", s.sink_p99_ns);
  for (size_t i = 0; i < s.op_elements_out.size(); ++i) {
    e.nums.emplace_back(kOpOutPrefix + std::to_string(i),
                        static_cast<double>(s.op_elements_out[i]));
  }
  return e;
}

bool SampleFromEvent(const JournalEvent& event, MetricSample* out) {
  if (event.kind != JournalEvent::Kind::kSample) return false;
  *out = MetricSample{};
  out->wall_ns = event.wall_ns;
  out->app_time = event.app_time;
  for (const auto& [key, v] : event.nums) {
    if (key.rfind(kOpOutPrefix, 0) == 0) {
      const size_t slot = std::strtoul(
          key.c_str() + sizeof(kOpOutPrefix) - 1, nullptr, 10);
      if (slot >= event.nums.size()) continue;  // Not an encoded slot.
      if (slot >= out->op_elements_out.size()) {
        out->op_elements_out.resize(slot + 1);
      }
      out->op_elements_out[slot] = JsonU64(v);
    } else if (key == "migration_active") {
      out->migration_active = v != 0.0;
    } else if (key == "sink_p50_ns") {
      out->sink_p50_ns = v;
    } else if (key == "sink_p99_ns") {
      out->sink_p99_ns = v;
    } else {
      for (const U64Field& f : kU64Fields) {
        if (key == f.key) out->*f.field = JsonU64(v);
      }
    }
  }
  return true;
}

std::vector<MetricSample> Samples(const EventJournal& journal) {
  std::vector<MetricSample> out;
  MetricSample s;
  for (const JournalEvent& e :
       journal.SnapshotKind(JournalEvent::Kind::kSample)) {
    if (SampleFromEvent(e, &s)) out.push_back(std::move(s));
  }
  return out;
}

double MaxSinkP99Between(const std::vector<MetricSample>& samples,
                         Timestamp from, Timestamp to) {
  double best = 0.0;
  ForEachBetween(samples, from, to, [&](const MetricSample& s) {
    if (s.sink_count > 0) best = std::max(best, s.sink_p99_ns);
  });
  return best;
}

uint64_t MaxQueueDepthBetween(const std::vector<MetricSample>& samples,
                              Timestamp from, Timestamp to) {
  uint64_t best = 0;
  ForEachBetween(samples, from, to, [&](const MetricSample& s) {
    best = std::max(best, s.queue_depth);
  });
  return best;
}

uint64_t MaxStateBytesBetween(const std::vector<MetricSample>& samples,
                              Timestamp from, Timestamp to) {
  uint64_t best = 0;
  ForEachBetween(samples, from, to, [&](const MetricSample& s) {
    best = std::max(best, s.state_bytes);
  });
  return best;
}

size_t SamplesWithSinkTrafficBetween(const std::vector<MetricSample>& samples,
                                     Timestamp from, Timestamp to) {
  size_t n = 0;
  ForEachBetween(samples, from, to,
                 [&](const MetricSample& s) { n += s.sink_count > 0; });
  return n;
}

void TimelineSampler::Sample(Timestamp app_time, bool migration_active) {
  MetricSample s;
  s.wall_ns = MonotonicNowNs();
  s.app_time = app_time;
  s.migration_active = migration_active;

  std::array<uint64_t, LatencyHistogram::kBuckets> e2e{};
  uint64_t e2e_count = 0;
  // SnapshotSlots: shard threads may Register migration machinery while the
  // engine thread samples (metrics.h threading contract).
  const std::vector<const OperatorMetrics*> slots = registry_->SnapshotSlots();
  s.op_elements_out.reserve(slots.size());
  for (const OperatorMetrics* slot : slots) {
    const OperatorMetrics& m = *slot;
    s.elements_in += m.elements_in;
    s.elements_out += m.elements_out;
    s.state_bytes += m.state_bytes;
    s.queue_depth += m.queue_depth;
    s.watermark_lag_max = std::max<uint64_t>(s.watermark_lag_max,
                                             m.watermark_lag);
    s.backpressure_ns += m.backpressure_ns;
    s.op_elements_out.push_back(m.elements_out);
    if (m.e2e_ns.count() > 0) {
      for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        e2e[i] += m.e2e_ns.bucket(i);
      }
      e2e_count += m.e2e_ns.count();
    }
  }

  // Counters went backwards => the registry was Reset between samples; the
  // cumulative baseline is meaningless, start over from zero.
  if (e2e_count < prev_e2e_count_) Rebaseline();

  std::array<uint64_t, LatencyHistogram::kBuckets> interval{};
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    interval[i] = e2e[i] - prev_e2e_[i];
    if (interval[i] > 0) s.sink_max_ns = LatencyHistogram::BucketUpperNs(i);
  }
  s.sink_count = e2e_count - prev_e2e_count_;
  s.sink_p50_ns =
      LatencyHistogram::QuantileFromCounts(interval, s.sink_count, 0.5);
  s.sink_p99_ns =
      LatencyHistogram::QuantileFromCounts(interval, s.sink_count, 0.99);
  prev_e2e_ = e2e;
  prev_e2e_count_ = e2e_count;

  journal_->Append(SampleEvent(s));
}

void TimelineSampler::Rebaseline() {
  prev_e2e_.fill(0);
  prev_e2e_count_ = 0;
}

}  // namespace obs
}  // namespace genmig
