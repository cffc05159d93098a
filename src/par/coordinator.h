// Coordinator of the shard-parallel executor: routes inputs, broadcasts
// migrations, and assembles the deterministic merged output.
//
// Topology (N shards => N + 2 threads):
//
//              router thread                    shard threads    merge thread
//   inputs --> hash-partition per port --kBatch--> replica --+
//          +-> heartbeats to non-owners ---------> replica --+-> MergeSink
//          +-> kMigrate broadcast       ---------> replica --+   (k-way merge)
//
// The router reads its input streams in place and walks them in global
// temporal order. Every input stream must be ordered by start timestamp:
// arrival-ordered streams are reordered once before they reach the router
// (Dsms runs one DisorderBuffer pass per disordered stream), so the router
// itself has no disorder mode (DESIGN.md Sec. 12). Per input port (plan
// leaf) it hashes the element's partition column to pick the owner shard
// and appends the row to that (port, shard)'s TupleBatch; a full batch
// ships as one kBatch message, so the queues carry a message per
// Options::batch_size rows, not per row. A batch also ships once
// batch_size * ports * shards rows were routed since its first row, so a
// port that carries few rows does not hold its shards' watermarks, output
// and state expiry back until its batch fills. The other shards receive a
// heartbeat instead (thinned to every batch_size-th row), so their windows
// and controllers keep making progress. Shards hand their output to the
// merge as batches too, and the merge releases it into the query's
// CollectorSink, the caller's one result store. Every queue is a mutex +
// condvar BoundedQueue: it blocks the router when a shard falls behind
// (backpressure) and blocks shards when the merge falls behind. At a few
// messages per batch a lock-free ring would have no traffic to serve
// (DESIGN.md Sec. 9).
//
// Migration (Section 4, shard-coordinated): at the scheduled instant the
// router computes ONE global T_split = max routed start + w + 1 (chronon 1)
// — greater than every instant any shard replica can still reference — then
// broadcasts a heartbeat at the max routed start to every port, so every
// controller can fix its t_Si immediately. That promise is sound because
// the router always routes the smallest pending front: no stream can still
// deliver below it. An in-band kMigrate carrying the shared split as
// GenMigOptions::min_split follows. Every shard runs its own split/coalesce
// GenMig against the same T_split; WaitMigrationsComplete() is the barrier
// that keeps status/metrics coherent.

#ifndef GENMIG_PAR_COORDINATOR_H_
#define GENMIG_PAR_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "par/merge_sink.h"
#include "par/partition.h"
#include "par/shard_runtime.h"

namespace genmig {
namespace par {

using InputMap = std::map<std::string, MaterializedStream>;
/// Input streams read in place: each must stay alive and unchanged until
/// Wait() returns.
using InputRefs = std::map<std::string, const MaterializedStream*>;

class Coordinator {
 public:
  struct Options {
    int shards = 2;
    /// Capacity, in messages, of each router->shard queue and of the
    /// shard->merge queue. A router->shard queue holds at most
    /// queue_capacity * batch_size rows (64 * 256 = 16384 by default); a
    /// shard->merge message carries one output batch of the shard's plan.
    size_t queue_capacity = 64;
    /// Rows per router->shard batch (>= 1; 1 ships every row as a one-row
    /// batch). It is also the heartbeat thinning period: a non-owner shard
    /// hears every batch_size-th suppressed start timestamp, so heartbeats
    /// do not break batches up early (watermarks only lag, nothing
    /// reorders). Rows accumulate in a per-(port, shard) TupleBatch and flush
    /// as one kBatch message when full, once batch_size * ports * shards
    /// rows were routed since the batch's first row, before any heartbeat to
    /// that (port, shard) (a heartbeat would advance the shard's input
    /// watermark past pending row starts), before every migration broadcast
    /// and checkpoint marker, and at EOS. So no row waits in the router for
    /// more than batch_size * ports * shards routed rows.
    size_t batch_size = 256;
    obs::MetricsRegistry* registry = nullptr;  // Nullable.
    obs::MigrationTracer* tracer = nullptr;    // Nullable.
    /// Durable state. With `on_cut` set and checkpoint_period > 0, the
    /// router initiates a marker-based global cut every checkpoint_period
    /// application-time units (one cut in flight at a time). A cut may land
    /// inside a broadcast migration: a shard in GenMig's parallel phase
    /// captures it as the engine does; one in a transient phase fails the
    /// capture and the cut is dropped. When a cut completes, the merge thread
    /// hands its blobs to `on_cut`: "router", "s<k>/..." (chunk group
    /// "s<k>") and "merge". The owner commits them; one that is still busy
    /// may drop the cut, since the next one supersedes it. The next cut
    /// starts only after `on_cut` returns.
    std::function<void(std::vector<ckpt::Blob>)> on_cut;
    Duration checkpoint_period = 0;
  };

  /// Fails (Status) when the plan is not partitionable — callers fall back
  /// to the single-threaded engine. `windowed_plan` keeps its Window nodes;
  /// the coordinator strips them itself (windows run per shard, outside the
  /// migration boundary). The merged output goes into `sink` (not owned;
  /// it must outlive the coordinator): Restore() re-seeds it with the
  /// checkpointed prefix, the merge thread pushes every release into it and
  /// ends it with EOS. Read it after Wait().
  Coordinator(LogicalPtr windowed_plan, CollectorSink* sink, Options options);
  ~Coordinator();

  const PartitionSpec& spec() const { return spec_; }

  /// Schedules a GenMig to `new_windowed_plan` to fire when routing reaches
  /// application time `at`. The new plan must partition identically (same
  /// per-source keys and windows) — routing has already happened. `base`
  /// carries variant/Optimization-2 choices; window and min_split are
  /// overwritten by the coordinator. Call before Start().
  Status ScheduleGenMig(LogicalPtr new_windowed_plan, Timestamp at,
                        MigrationController::GenMigOptions base = {});

  /// Spawns router + shards + merge. The coordinator takes ownership of
  /// `inputs` (move them in to avoid a copy); the InputRefs overload reads
  /// the caller's streams in place. Fails when the plan was not
  /// partitionable or an input stream is missing.
  Status Start(InputMap inputs);
  Status Start(const InputRefs& inputs);

  /// Re-seeds router cursors, shard controllers/boxes, the merge and the
  /// sink from the blobs of one cut (as handed to Options::on_cut, keyed by
  /// blob key), so the next Start()/Run() resumes at the cut instead of
  /// replaying from scratch; a broadcast migration the cut caught in its
  /// parallel phase resumes at the recorded T_split. Call before Start(),
  /// with the same plan and scheduled migrations as the checkpointed run.
  /// DataLoss when the cut is unusable.
  Status Restore(const std::map<std::string, std::string>& blobs);

  /// Joins every thread; the sink then holds the deterministic merged
  /// output and has seen EOS.
  void Wait();

  /// Start + Wait.
  Status Run(InputMap inputs);

  // --- Introspection -------------------------------------------------------

  /// Barrier: blocks until every shard completed every broadcast migration
  /// (returns immediately when none was broadcast yet).
  void WaitMigrationsComplete();

  /// Min over shards — the number of migrations that completed EVERYWHERE.
  int migrations_completed() const;
  /// Broadcast global split time (MinInstant until the broadcast fired).
  Timestamp t_split() const;
  int shards() const { return static_cast<int>(shards_.size()); }
  uint64_t elements_routed() const {
    return elements_routed_.load(std::memory_order_relaxed);
  }

  // --- Lag attribution (ISSUE 9) -----------------------------------------

  /// Max start instant routed so far (the source front the per-shard
  /// watermark-lag gauges measure against). MinInstant before any routing.
  Timestamp source_front() const {
    return Timestamp(source_front_.load(std::memory_order_relaxed), 0);
  }
  /// Shard `k`'s min per-port input watermark (ShardRuntime contract).
  /// Valid after Start().
  Timestamp shard_watermark(int k) const {
    return shards_[static_cast<size_t>(k)]->input_watermark();
  }
  /// Shard `k`'s last sampled watermark lag (application-time units).
  int64_t shard_watermark_lag(int k) const {
    return shards_[static_cast<size_t>(k)]->watermark_lag();
  }

 private:
  struct Scheduled {
    LogicalPtr new_stripped;
    Timestamp at;
    MigrationController::GenMigOptions base;
    bool fired = false;
  };

  /// Router-side state of a loaded checkpoint, consumed by RouterMain.
  struct RouterRestore {
    struct CursorState {
      uint64_t pos = 0;
      uint64_t injected = 0;
    };
    std::map<std::string, CursorState> cursors;
    Timestamp max_routed = Timestamp::MinInstant();
    bool any_routed = false;
    bool has_last_ckpt = false;
    int64_t last_ckpt_t = 0;
  };

  /// Builds queues, merge and shards (everything Start() needs before
  /// spawning threads). Idempotent; shared by Start() and Restore().
  Status BuildRuntime();

  void RouterMain(const InputRefs& inputs);
  void Broadcast(Scheduled* scheduled, Timestamp max_routed);

  LogicalPtr windowed_plan_;
  LogicalPtr stripped_plan_;
  CollectorSink* sink_;
  Options options_;
  PartitionSpec spec_;

  InputMap owned_inputs_;  // Start(InputMap)'s streams, read by the router.
  std::unique_ptr<BoundedQueue<ShardOutMsg>> out_queue_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  std::unique_ptr<MergeSink> merge_;
  std::thread router_;
  bool started_ = false;
  bool joined_ = false;

  std::vector<Scheduled> scheduled_;

  // Durable state.
  std::unique_ptr<RouterRestore> router_restore_;
  /// Index into scheduled_ of the last-broadcast migration (-1 = none): the
  /// stripped plan every shard hosts once quiescent. Written by Broadcast
  /// (router thread) and Restore (pre-start), recorded in the router blob;
  /// Restore reads it only for cuts whose shards lack their own plans.
  int active_plan_idx_ = -1;
  /// One cut in flight at a time: set by the router at initiation, cleared
  /// on the merge thread once on_cut returned. Guarantees
  /// the merge's side buffer never holds a second marker.
  std::atomic<bool> ckpt_inflight_{false};

  std::atomic<uint64_t> elements_routed_{0};
  /// Router-published max routed start (the shards' lag reference).
  std::atomic<int64_t> source_front_{Timestamp::MinInstant().t};
  std::atomic<int> broadcasts_fired_{0};
  std::atomic<int64_t> t_split_t_{0};
  std::atomic<uint32_t> t_split_eps_{0};
  std::atomic<bool> t_split_set_{false};

  mutable std::mutex progress_mu_;
  std::condition_variable progress_cv_;
};

}  // namespace par
}  // namespace genmig

#endif  // GENMIG_PAR_COORDINATOR_H_
