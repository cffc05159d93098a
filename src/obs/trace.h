// MigrationTracer: timestamps every state transition of a dynamic plan
// migration, in both application time (the controller's watermark) and wall
// time. One trace per migration, identified by a monotonically increasing id;
// the GenMig lifecycle produces the canonical sequence
//
//   kRequested -> kSplitInstalled -> kOldBoxDrained -> kCoalesceDone
//              -> kReferencePointSwitch -> kCompleted
//
// (Algorithm 1: request, splits wired and T_split fixed, old box received
// EOS, the merge emptied, inputs/outputs rewired to the new box, done).
// Parallel Track and Moving States record the subset that applies to them.
// The tracer is deliberately strategy-agnostic: it stores what the
// controllers report, so a bench/test can reconstruct per-phase durations
// without knowing controller internals.
//
// The tracer keeps no records of its own: every transition is one
// kMigrationPhase event in an EventJournal (obs/journal.h), and the readers
// below decode the journal's retained events. Retention is the journal's
// ring; its spill file holds the full history.

#ifndef GENMIG_OBS_TRACE_H_
#define GENMIG_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "time/timestamp.h"

namespace genmig {
namespace obs {

enum class MigrationEvent : uint8_t {
  kRequested,             // Start* called; GenMig begins monitoring.
  kSplitInstalled,        // Split operators wired, T_split fixed (GenMig) /
                          // both boxes running (PT) / states seeded (MS).
  kOldBoxDrained,         // Old box received EOS on every input.
  kCoalesceDone,          // The merge operator emptied.
  kReferencePointSwitch,  // Inputs/outputs rewired directly to the new box.
  kCompleted,             // Migration over; controller back to direct mode.
};

const char* MigrationEventName(MigrationEvent event);

struct TraceRecord {
  int migration_id = 0;
  /// Display lane (Chrome-trace tid offset): 0 for the single-threaded
  /// engine, 1 + shard id for shard-local migrations in src/par.
  int lane = 0;
  MigrationEvent event = MigrationEvent::kRequested;
  /// Application time at the transition (controller watermark).
  Timestamp app_time;
  /// Wall clock in the shared obs::MonotonicNowNs domain, so trace records
  /// line up with ingress stamps and timeline samples in exports.
  uint64_t wall_ns = 0;
  /// Free-form context: strategy name, T_split, buffer sizes.
  std::string detail;
};

/// Decodes a kMigrationPhase journal event; false for any other event.
bool TraceRecordFromEvent(const JournalEvent& event, TraceRecord* out);

/// Wall-clock nanoseconds between the first `from` and the first `to`
/// record of `records`, or -1 if either is missing.
int64_t PhaseNs(const std::vector<TraceRecord>& records, MigrationEvent from,
                MigrationEvent to);

/// Thread-safe: shard-local controllers (src/par) record into one shared
/// tracer concurrently; the journal serializes the appends.
class MigrationTracer {
 public:
  /// Writes into `journal` (not owned; must outlive the tracer).
  explicit MigrationTracer(EventJournal* journal) : journal_(journal) {}

  MigrationTracer(const MigrationTracer&) = delete;
  MigrationTracer& operator=(const MigrationTracer&) = delete;

  /// Opens a new migration trace; `strategy` lands in the kRequested detail.
  /// Returns the migration id for subsequent Record calls (dense from 0).
  /// `lane` tags the kRequested record (0 = engine, 1 + k = shard k).
  int BeginMigration(const std::string& strategy, Timestamp app_time,
                     int lane = 0);

  /// Appends one kMigrationPhase event; the journal stamps its wall clock.
  void Record(int migration_id, MigrationEvent event, Timestamp app_time,
              std::string detail = "", int lane = 0);

  /// Retained phase records of every migration, in journal order.
  std::vector<TraceRecord> records() const;
  std::vector<TraceRecord> RecordsFor(int migration_id) const;
  /// Migrations ever begun; exact even after the journal dropped their
  /// phase events.
  int migration_count() const {
    return next_id_.load(std::memory_order_relaxed);
  }
  /// Display lane of `migration_id` (0 if none of its records is retained).
  int LaneOf(int migration_id) const;

  /// PhaseNs over RecordsFor(migration_id).
  int64_t PhaseNs(int migration_id, MigrationEvent from,
                  MigrationEvent to) const;

 private:
  EventJournal* journal_;
  std::atomic<int> next_id_{0};
};

}  // namespace obs
}  // namespace genmig

#endif  // GENMIG_OBS_TRACE_H_
