#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace genmig {
namespace obs {
namespace {

void AppendKeyU64(std::string* out, const char* key, uint64_t value,
                  bool trailing_comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %" PRIu64 "%s", key, value,
                trailing_comma ? ", " : "");
  *out += buf;
}

void AppendHistogram(std::string* out, const LatencyHistogram& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"count\": %" PRIu64 ", \"mean\": %.1f, \"p50\": %.1f"
                ", \"p99\": %.1f, \"max\": %" PRIu64 ", \"buckets\": [",
                h.count(), h.MeanNs(), h.ApproxQuantile(0.5),
                h.ApproxQuantile(0.99), h.max_ns());
  *out += buf;
  bool first = true;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) *out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "[%" PRIu64 ", %" PRIu64 "]",
                  LatencyHistogram::BucketUpperNs(i), h.bucket(i));
    *out += buf;
  }
  *out += "]}";
}

void AppendOperator(std::string* out, const OperatorMetrics& m) {
  *out += "{\"name\": ";
  AppendJsonString(out, m.name);
  *out += ", ";
  AppendKeyU64(out, "elements_in", m.elements_in);
  AppendKeyU64(out, "elements_out", m.elements_out);
  AppendKeyU64(out, "heartbeats_in", m.heartbeats_in);
  AppendKeyU64(out, "batches_in", m.batches_in);
  AppendKeyU64(out, "negatives_in", m.negatives_in);
  AppendKeyU64(out, "negatives_out", m.negatives_out);
  AppendKeyU64(out, "state_inserts", m.state_inserts);
  AppendKeyU64(out, "state_expires", m.state_expires);
  AppendKeyU64(out, "state_units", m.state_units);
  AppendKeyU64(out, "state_bytes", m.state_bytes);
  AppendKeyU64(out, "peak_state_units", m.peak_state_units);
  AppendKeyU64(out, "peak_state_bytes", m.peak_state_bytes);
  AppendKeyU64(out, "queue_depth", m.queue_depth);
  AppendKeyU64(out, "peak_queue_depth", m.peak_queue_depth);
  *out += "\"push_ns\": ";
  AppendHistogram(out, m.push_ns);
  if (m.e2e_ns.count() > 0) {  // Sinks with stamped traffic only.
    *out += ", \"e2e_ns\": ";
    AppendHistogram(out, m.e2e_ns);
  }
  *out += "}";
}

std::string PhaseKey(MigrationEvent from, MigrationEvent to) {
  return std::string(MigrationEventName(from)) + "_to_" +
         MigrationEventName(to);
}

void AppendMigration(std::string* out, int id,
                     const std::vector<TraceRecord>& records) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"id\": %d, \"events\": [", id);
  *out += buf;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i) *out += ", ";
    const TraceRecord& r = records[i];
    *out += "{\"event\": ";
    AppendJsonString(out, MigrationEventName(r.event));
    std::snprintf(buf, sizeof(buf),
                  ", \"app_time\": %" PRId64 ", \"wall_ns\": %" PRIu64
                  ", \"detail\": ",
                  r.app_time.t, r.wall_ns);
    *out += buf;
    AppendJsonString(out, r.detail);
    *out += "}";
  }
  *out += "], \"phase_ns\": {";
  bool first = true;
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    const int64_t ns =
        PhaseNs(records, records[i].event, records[i + 1].event);
    if (ns < 0) continue;
    if (!first) *out += ", ";
    first = false;
    AppendJsonString(out, PhaseKey(records[i].event, records[i + 1].event));
    std::snprintf(buf, sizeof(buf), ": %" PRId64, ns);
    *out += buf;
  }
  if (records.size() >= 2) {
    if (!first) *out += ", ";
    std::snprintf(buf, sizeof(buf), "\"total\": %" PRId64,
                  static_cast<int64_t>(records.back().wall_ns -
                                       records.front().wall_ns));
    *out += buf;
  }
  *out += "}}";
}

/// What the exporters read from a journal, decoded from one Snapshot():
/// phase records grouped by migration id, and the timeline samples.
struct JournalView {
  std::map<int, std::vector<TraceRecord>> migrations;
  std::vector<MetricSample> samples;
};

JournalView Decode(const EventJournal* journal) {
  JournalView view;
  if (journal == nullptr) return view;
  TraceRecord record;
  MetricSample sample;
  for (const JournalEvent& e : journal->Snapshot()) {
    if (TraceRecordFromEvent(e, &record)) {
      view.migrations[record.migration_id].push_back(record);
    } else if (SampleFromEvent(e, &sample)) {
      view.samples.push_back(std::move(sample));
    }
  }
  return view;
}

}  // namespace

std::string ToJson(const MetricsRegistry& registry,
                   const EventJournal* journal) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"operators\": [";
  bool first = true;
  for (const OperatorMetrics& m : registry.operators()) {
    if (!first) out += ",";
    first = false;
    out += "\n    ";
    AppendOperator(&out, m);
  }
  out += "\n  ],\n  \"totals\": {";
  AppendKeyU64(&out, "elements_in", registry.TotalElementsIn());
  AppendKeyU64(&out, "elements_out", registry.TotalElementsOut());
  AppendKeyU64(&out, "state_bytes", registry.TotalStateBytes(),
               /*trailing_comma=*/false);
  out += "},\n  \"migrations\": [";
  first = true;
  for (const auto& [id, records] : Decode(journal).migrations) {
    if (!first) out += ",";
    first = false;
    out += "\n    ";
    AppendMigration(&out, id, records);
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string ToChromeTrace(const MetricsRegistry& registry,
                          const EventJournal* journal) {
  const JournalView view = Decode(journal);
  std::string out;
  out.reserve(8192);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first_event = true;
  char buf[256];
  auto begin_event = [&] {
    out += first_event ? "\n " : ",\n ";
    first_event = false;
  };
  auto us = [](uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;  // Chrome traces use µs.
  };

  // Track metadata: engine migrations on tid 1, shard-local migrations on
  // tid 1 + lane (one lane per shard), counters attach to the process.
  begin_event();
  out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\","
         " \"args\": {\"name\": \"genmig\"}}";
  begin_event();
  out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": \"thread_name\","
         " \"args\": {\"name\": \"migrations\"}}";
  std::map<int, bool> lanes_named;
  for (const auto& [id, records] : view.migrations) {
    const int lane = records.front().lane;
    if (lane <= 0 || lanes_named[lane]) continue;
    lanes_named[lane] = true;
    begin_event();
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": "
                  "\"thread_name\", \"args\": {\"name\": \"shard %d "
                  "migrations\"}}",
                  1 + lane, lane - 1);
    out += buf;
  }

  for (const auto& [id, records] : view.migrations) {
    const int tid = 1 + records.front().lane;
    if (records.size() >= 2) {
      // Enclosing span: whole migration. Complete ("X") events on one tid
      // nest by containment, so the per-phase children render inside it.
      begin_event();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"cat\": "
                    "\"migration\", \"name\": ",
                    tid);
      out += buf;
      AppendJsonString(&out, "migration #" + std::to_string(id) + " (" +
                                 records.front().detail + ")");
      std::snprintf(buf, sizeof(buf),
                    ", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"app_start\": %" PRId64 ", \"app_end\": %" PRId64
                    "}}",
                    us(records.front().wall_ns),
                    us(records.back().wall_ns - records.front().wall_ns),
                    records.front().app_time.t, records.back().app_time.t);
      out += buf;
    }
    // One child span per consecutive event pair (phase).
    for (size_t i = 0; i + 1 < records.size(); ++i) {
      const TraceRecord& a = records[i];
      const TraceRecord& b = records[i + 1];
      begin_event();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"cat\": "
                    "\"migration-phase\", \"name\": ",
                    tid);
      out += buf;
      AppendJsonString(&out, std::string(MigrationEventName(a.event)) +
                                 "→" + MigrationEventName(b.event));
      std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f",
                    us(a.wall_ns), us(b.wall_ns - a.wall_ns));
      out += buf;
      out += ", \"args\": {\"detail\": ";
      AppendJsonString(&out, a.detail.empty() ? b.detail : a.detail);
      out += "}}";
    }
    // Plus an instant per record (visible even for 1-record traces).
    for (const TraceRecord& r : records) {
      begin_event();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\": \"i\", \"pid\": 1, \"tid\": %d, \"s\": \"t\", "
                    "\"cat\": \"migration\", \"name\": ",
                    tid);
      out += buf;
      AppendJsonString(&out, MigrationEventName(r.event));
      std::snprintf(buf, sizeof(buf),
                    ", \"ts\": %.3f, \"args\": {\"app_time\": %" PRId64
                    ", \"detail\": ",
                    us(r.wall_ns), r.app_time.t);
      out += buf;
      AppendJsonString(&out, r.detail);
      out += "}}";
    }
  }

  // Sampled per-operator push spans: one lane per operator instance on a
  // second process ("operators"), so data-path activity lines up against the
  // migration phases above (shared MonotonicNowNs domain).
  {
    const std::deque<OperatorMetrics>& ops = registry.operators();
    bool named_process = false;
    int tid = 0;
    for (const OperatorMetrics& m : ops) {
      ++tid;
      const size_t count = m.push_spans.size();
      if (count == 0) continue;
      if (!named_process) {
        named_process = true;
        begin_event();
        out += "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": "
               "\"process_name\", \"args\": {\"name\": \"operators\"}}";
      }
      begin_event();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\": \"M\", \"pid\": 2, \"tid\": %d, \"name\": "
                    "\"thread_name\", \"args\": {\"name\": ",
                    tid);
      out += buf;
      AppendJsonString(&out, m.name);
      out += "}}";
      // Snapshot then sort: the ring overwrites in place, so slots are not
      // in start order once it wraps.
      std::vector<std::pair<uint64_t, uint64_t>> spans;
      spans.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        spans.emplace_back(m.push_spans.spans[i].start_ns.load(),
                           m.push_spans.spans[i].dur_ns.load());
      }
      std::sort(spans.begin(), spans.end());
      for (const auto& [start_ns, dur_ns] : spans) {
        begin_event();
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\": \"X\", \"pid\": 2, \"tid\": %d, \"cat\": "
                      "\"op-push\", \"name\": ",
                      tid);
        out += buf;
        AppendJsonString(&out, m.name);
        std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f}",
                      us(start_ns), us(dur_ns));
        out += buf;
      }
    }
  }

  {
    auto counter = [&](uint64_t wall_ns, const char* name, const char* key,
                       double value) {
      begin_event();
      out += "{\"ph\": \"C\", \"pid\": 1, \"name\": ";
      AppendJsonString(&out, name);
      std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"args\": {\"%s\": %.3f}}",
                    us(wall_ns), key, value);
      out += buf;
    };
    const std::deque<OperatorMetrics>& ops = registry.operators();
    for (size_t i = 0; i < view.samples.size(); ++i) {
      const MetricSample& s = view.samples[i];
      counter(s.wall_ns, "queue_depth", "elements",
              static_cast<double>(s.queue_depth));
      counter(s.wall_ns, "state_bytes", "bytes",
              static_cast<double>(s.state_bytes));
      counter(s.wall_ns, "migration_active", "active",
              s.migration_active ? 1.0 : 0.0);
      // Interval latency: only meaningful when stamped traffic arrived.
      if (s.sink_count > 0) {
        begin_event();
        out += "{\"ph\": \"C\", \"pid\": 1, \"name\": \"sink_e2e_ns\"";
        std::snprintf(buf, sizeof(buf),
                      ", \"ts\": %.3f, \"args\": {\"p50\": %.1f, \"p99\": "
                      "%.1f}}",
                      us(s.wall_ns), s.sink_p50_ns, s.sink_p99_ns);
        out += buf;
      }
      if (i == 0) continue;
      // Per-operator output rates from consecutive cumulative counts.
      const MetricSample& prev = view.samples[i - 1];
      const double dt_s =
          static_cast<double>(s.wall_ns - prev.wall_ns) / 1e9;
      if (dt_s <= 0.0) continue;
      const size_t n = std::min(
          {s.op_elements_out.size(), prev.op_elements_out.size(), ops.size()});
      for (size_t j = 0; j < n; ++j) {
        const uint64_t cur = s.op_elements_out[j];
        const uint64_t old = prev.op_elements_out[j];
        if (cur <= old) continue;  // Idle (or registry reset): no track spam.
        counter(s.wall_ns, ("out_rate/" + ops[j].name).c_str(),
                "elements_per_s", static_cast<double>(cur - old) / dt_s);
      }
    }
  }

  out += "\n]}\n";
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  return written == content.size() && close_rc == 0;
}

}  // namespace obs
}  // namespace genmig
