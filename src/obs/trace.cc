#include "obs/trace.h"

#include <cstdlib>
#include <utility>

namespace genmig {
namespace obs {

namespace {

constexpr MigrationEvent kEvents[] = {
    MigrationEvent::kRequested,     MigrationEvent::kSplitInstalled,
    MigrationEvent::kOldBoxDrained, MigrationEvent::kCoalesceDone,
    MigrationEvent::kReferencePointSwitch, MigrationEvent::kCompleted,
};

}  // namespace

const char* MigrationEventName(MigrationEvent event) {
  switch (event) {
    case MigrationEvent::kRequested:
      return "requested";
    case MigrationEvent::kSplitInstalled:
      return "split_installed";
    case MigrationEvent::kOldBoxDrained:
      return "old_box_drained";
    case MigrationEvent::kCoalesceDone:
      return "coalesce_done";
    case MigrationEvent::kReferencePointSwitch:
      return "reference_point_switch";
    case MigrationEvent::kCompleted:
      return "completed";
  }
  return "?";
}

bool TraceRecordFromEvent(const JournalEvent& event, TraceRecord* out) {
  if (event.kind != JournalEvent::Kind::kMigrationPhase) return false;
  const std::string phase = event.Str("phase");
  for (const MigrationEvent e : kEvents) {
    if (phase != MigrationEventName(e)) continue;
    out->migration_id = static_cast<int>(event.Num("migration_id"));
    out->lane = static_cast<int>(event.Num("lane"));
    out->event = e;
    out->app_time = event.app_time;
    out->wall_ns = event.wall_ns;
    out->detail = event.Str("detail");
    return true;
  }
  return false;
}

int64_t PhaseNs(const std::vector<TraceRecord>& records, MigrationEvent from,
                MigrationEvent to) {
  int64_t from_ns = -1;
  int64_t to_ns = -1;
  for (const TraceRecord& r : records) {
    const int64_t ns = static_cast<int64_t>(r.wall_ns);
    if (from_ns < 0 && r.event == from) from_ns = ns;
    if (to_ns < 0 && r.event == to) to_ns = ns;
  }
  if (from_ns < 0 || to_ns < 0) return -1;
  return to_ns - from_ns;
}

int MigrationTracer::BeginMigration(const std::string& strategy,
                                    Timestamp app_time, int lane) {
  const int id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Record(id, MigrationEvent::kRequested, app_time, strategy, lane);
  return id;
}

void MigrationTracer::Record(int migration_id, MigrationEvent event,
                             Timestamp app_time, std::string detail,
                             int lane) {
  JournalEvent e;
  e.kind = JournalEvent::Kind::kMigrationPhase;
  e.app_time = app_time;
  e.subject = MigrationEventName(event);
  e.nums.emplace_back("migration_id", static_cast<double>(migration_id));
  e.nums.emplace_back("lane", static_cast<double>(lane));
  e.strs.emplace_back("phase", MigrationEventName(event));
  if (!detail.empty()) {
    // Promote the controllers' "t_split=<t>" detail (GenMig
    // kSplitInstalled) to a first-class number so journal replays can
    // reconstruct the migration timeline without string scraping.
    constexpr const char kTsKey[] = "t_split=";
    if (detail.rfind(kTsKey, 0) == 0) {
      const char* t_split = detail.c_str() + sizeof(kTsKey) - 1;
      e.nums.emplace_back("t_split", std::strtod(t_split, nullptr));
    }
    e.strs.emplace_back("detail", std::move(detail));
  }
  journal_->Append(std::move(e));
}

std::vector<TraceRecord> MigrationTracer::records() const {
  std::vector<TraceRecord> out;
  TraceRecord r;
  for (const JournalEvent& e :
       journal_->SnapshotKind(JournalEvent::Kind::kMigrationPhase)) {
    if (TraceRecordFromEvent(e, &r)) out.push_back(r);
  }
  return out;
}

std::vector<TraceRecord> MigrationTracer::RecordsFor(int migration_id) const {
  std::vector<TraceRecord> out;
  for (TraceRecord& r : records()) {
    if (r.migration_id == migration_id) out.push_back(std::move(r));
  }
  return out;
}

int MigrationTracer::LaneOf(int migration_id) const {
  const std::vector<TraceRecord> records = RecordsFor(migration_id);
  return records.empty() ? 0 : records.front().lane;
}

int64_t MigrationTracer::PhaseNs(int migration_id, MigrationEvent from,
                                 MigrationEvent to) const {
  return obs::PhaseNs(RecordsFor(migration_id), from, to);
}

}  // namespace obs
}  // namespace genmig
