// EventJournal: the engine's one log of control-rate events.
//
// Metrics (metrics.h) answer "how fast is the engine right now"; the journal
// answers "why did the engine migrate at t=X" and "what did the engine do
// around it". It records every *decision point* of the adaptive control loop
// and every periodic metric sample as a structured event:
//
//   kTriggerEval     — one calibrate->cost->trigger evaluation: policy name,
//                      estimated running/candidate plan cost, ratio, margin,
//                      hysteresis/armed state, and whether the trigger fired.
//   kMigrationPhase  — one MigrationTracer state transition (kRequested ..
//                      kCompleted) with the migration id, lane and T_split.
//   kDisorderAdapt   — a DisorderBuffer retargeted its slack delta from the
//                      observed lateness quantile.
//   kCheckpoint      — a durable-state cycle (src/ckpt) began, committed or
//                      aborted: sequence number, bytes, duration.
//   kSample          — one TimelineSampler snapshot (obs/timeline.h).
//
// MigrationTracer (obs/trace.h) and the timeline functions are typed views
// over these events; they keep no store of their own. Events are rare (one
// trigger evaluation per calibration period, one sample per timeline
// period, a handful of phase transitions per migration), so the journal is
// mutex guarded and deliberately NOT on the per-element hot path — asserted
// by tests/obs/hot_path_test.cc. Storage: a bounded ring (old events overwritten)
// plus an optional line-buffered JSONL spill file that keeps the full
// history. Each event serializes to one self-contained JSON object per line,
// so `python3 -m json.tool` validates any line and tools can tail the spill
// live. FromJsonl() parses the journal's own output (and any flat JSON
// object of the same shape), which lets tests replay a journal file and
// reconstruct a migration timeline without the process that wrote it.

#ifndef GENMIG_OBS_JOURNAL_H_
#define GENMIG_OBS_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "time/timestamp.h"

namespace genmig {
namespace obs {

struct JournalEvent {
  enum class Kind : uint8_t {
    kTriggerEval,
    kMigrationPhase,
    kDisorderAdapt,
    kCheckpoint,
    kSample,
  };

  Kind kind = Kind::kTriggerEval;
  /// Monotonic append index, stamped by EventJournal::Append (dense over the
  /// journal's lifetime even after the ring overwrote the event itself).
  uint64_t seq = 0;
  /// obs::MonotonicNowNs at append (stamped by Append when left 0).
  uint64_t wall_ns = 0;
  /// Application time of the decision (watermark / T_split context).
  Timestamp app_time;
  /// What the event is about: query name, stream name, migration strategy.
  std::string subject;
  /// Numeric payload, e.g. {"ratio", 1.62}, {"t_split", 1001}.
  std::vector<std::pair<std::string, double>> nums;
  /// String payload, e.g. {"policy", "cost_ratio"}, {"phase", "kCompleted"}.
  std::vector<std::pair<std::string, std::string>> strs;

  /// First matching key, or `fallback` / empty string when absent.
  double Num(const std::string& key, double fallback = 0.0) const;
  std::string Str(const std::string& key) const;
  bool HasNum(const std::string& key) const;
};

/// Appends `s` as a quoted JSON string: `"`, `\`, newline, carriage return
/// and tab get their short escapes, other control bytes \u00XX; bytes
/// >= 0x80 pass through, so UTF-8 stays UTF-8.
void AppendJsonString(std::string* out, const std::string& s);

/// `v` clamped into uint64_t (JSON numbers are doubles, and casting a
/// negative or out-of-range double to an integer is undefined).
uint64_t JsonU64(double v);

const char* JournalKindName(JournalEvent::Kind kind);
/// False iff `name` is not a journal kind.
bool JournalKindFromName(const std::string& name, JournalEvent::Kind* out);

/// Bounded thread-safe event ring with optional JSONL spill. Appends take a
/// mutex — fine for decision-rate events, never per element.
class EventJournal {
 public:
  struct Options {
    /// Events retained in memory; older events survive only in the spill.
    size_t capacity = 4096;
    /// When non-empty: every event is also appended (line buffered) to this
    /// JSONL file, truncated at construction.
    std::string spill_path;
  };

  EventJournal() : EventJournal(Options()) {}
  explicit EventJournal(Options options);
  ~EventJournal();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Stamps seq (always) and wall_ns (when 0), stores the event in the ring
  /// and appends one JSONL line to the spill file if configured.
  void Append(JournalEvent event);

  /// Copies of the retained events, oldest first.
  std::vector<JournalEvent> Snapshot() const;
  std::vector<JournalEvent> SnapshotKind(JournalEvent::Kind kind) const;

  /// Events ever appended (>= size(); the ring drops the overflow).
  uint64_t total_appended() const;
  size_t size() const;
  size_t capacity() const { return options_.capacity; }
  const std::string& spill_path() const { return options_.spill_path; }

  /// Flushes the spill file (no-op without one).
  void Flush();

  // --- JSONL (de)serialization -------------------------------------------

  /// One JSON object, no trailing newline. Keys: seq, kind, wall_ns, app_t,
  /// app_eps, subject, num{...}, str{...}. Always valid JSON (strings are
  /// escaped, non-finite doubles serialize as 0).
  static std::string ToJsonl(const JournalEvent& event);

  /// Parses one line produced by ToJsonl. Returns false on malformed input
  /// or unknown kind; blank lines are rejected.
  static bool FromJsonl(const std::string& line, JournalEvent* out);

  /// Parses a whole JSONL document (e.g. a spill file's contents); skips
  /// blank lines, fails (empty optional semantics via bool) on the first
  /// malformed line when `strict`, silently drops it otherwise.
  static std::vector<JournalEvent> ParseJsonl(const std::string& text,
                                              bool strict = false,
                                              bool* ok = nullptr);

 private:
  Options options_;
  mutable std::mutex mu_;
  std::deque<JournalEvent> ring_;
  uint64_t total_ = 0;
  std::FILE* spill_ = nullptr;
};

}  // namespace obs
}  // namespace genmig

#endif  // GENMIG_OBS_JOURNAL_H_
