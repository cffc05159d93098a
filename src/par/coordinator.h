// Coordinator of the shard-parallel executor: routes inputs, broadcasts
// migrations, and assembles the deterministic merged output.
//
// Topology (N shards => N + 1 threads besides the engine's):
//
//              engine thread                    shard threads    merge thread
//   Executor --> Router operator --kBatch------> replica --+
//   (sources)   +-> heartbeats to non-owners --> replica --+-> MergeSink
//               +-> kMigrate broadcast --------> replica --+   (k-way merge)
//
// The router is an ordinary operator of the engine: one input port per plan
// leaf, each connected to its feed's Source, and no outputs. The executor
// drives it exactly as it drives a single-threaded query's windows, so
// Step/RunUntil/RunToCompletion, disorder handling (the executor's one
// DisorderBuffer per feed) and ingress stamping (the Source's) are the
// engine's own. Per input port it hashes the element's partition column to
// pick the owner shard and appends the row to that (port, shard)'s
// TupleBatch; a full batch ships as one kBatch message, so the queues carry
// a message per Options::batch_size rows, not per row. A batch also ships
// once batch_size * ports * shards rows were routed since its first row, so
// a port that carries few rows does not hold its shards' watermarks, output
// and state expiry back until its batch fills. The other shards receive a
// heartbeat instead (thinned to every batch_size-th row), so their windows
// and controllers keep making progress. Shards hand their output to the
// merge as batches too, and the merge releases it into the query's
// CollectorSink, the caller's one result store. Every queue is a mutex +
// condvar BoundedQueue: it blocks the engine thread when a shard falls
// behind (backpressure) and blocks shards when the merge falls behind. At a
// few messages per batch a lock-free ring would have no traffic to serve
// (DESIGN.md Sec. 9).
//
// Migration (Section 4, shard-coordinated): once routing reaches the
// scheduled instant, the router computes ONE global T_split = max routed
// start + w + 1 (chronon 1) — greater than every instant any shard replica
// can still reference — then sends every port a heartbeat at a promise the
// executor keeps: min(max routed start, the port's feed's smallest pending
// start), so every controller can fix its t_Si immediately. Under the
// executor's global temporal order with scalar steps that promise is the
// max routed start itself. An in-band kMigrate carrying the shared split as
// GenMigOptions::min_split follows. Every shard runs its own split/coalesce
// GenMig against the same T_split; once every port's EOS was routed and
// Wait() joined the shards, every broadcast has completed on every shard.
//
// Checkpoints: BeginCut() starts a marker cut on the engine thread, at the
// executor position of the engine's own blobs (ckpt: one commit per engine).

#ifndef GENMIG_PAR_COORDINATOR_H_
#define GENMIG_PAR_COORDINATOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "par/merge_sink.h"
#include "par/partition.h"
#include "par/shard_runtime.h"
#include "plan/executor.h"

namespace genmig {
namespace par {

/// Named input streams, each ordered by start (Run()'s test/bench input).
using InputMap = std::map<std::string, MaterializedStream>;

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
    /// and checkpoint marker, and at the port's EOS. So no row waits in the
    /// router for more than batch_size * ports * shards routed rows.
    size_t batch_size = 256;
    obs::MetricsRegistry* registry = nullptr;  // Nullable.
    obs::MigrationTracer* tracer = nullptr;    // Nullable.
  };

  /// `windowed_plan` keeps its Window nodes; the coordinator strips them
  /// itself (windows run per shard, outside the migration boundary). When
  /// the plan is not partitionable, spec().ok is false and Connect() fails —
  /// callers fall back to the single-threaded engine. The merged output goes
  /// into `sink` (not owned; it must outlive the coordinator): Restore()
  /// re-seeds it with the checkpointed prefix, the merge thread pushes every
  /// release into it and ends it with EOS. Read it while running() is false.
  Coordinator(LogicalPtr windowed_plan, CollectorSink* sink, Options options);
  ~Coordinator();

  const PartitionSpec& spec() const { return spec_; }

  /// Schedules a GenMig to `new_windowed_plan` to fire when routing reaches
  /// application time `at`, or at the next routed row when routing already
  /// passed it. The new plan must partition identically (same per-source
  /// keys and windows) — routing has already happened. `base` carries
  /// variant/Optimization-2 choices; window and min_split are overwritten by
  /// the coordinator. FailedPrecondition once finished().
  Status ScheduleGenMig(LogicalPtr new_windowed_plan, Timestamp at,
                        MigrationController::GenMigOptions base = {});

  /// Connects the router's port for each plan leaf to the Source of feed
  /// `feeds.at(leaf source)` of `exec`, which must outlive the routing.
  /// Shard and merge threads start with the first routed row. Fails when
  /// the plan is not partitionable (FailedPrecondition) or a leaf's stream
  /// has no feed (NotFound).
  Status Connect(Executor* exec, const std::map<std::string, int>& feeds);

  /// Registers every stream of `inputs` as a feed of a private executor,
  /// connects to it, runs it to completion and waits: how tests and benches
  /// run a coordinator without an engine.
  Status Run(InputMap inputs);

  /// Starts a marker cut at the router's current position: ships every
  /// pending row, writes the "router" blob and pushes a kCheckpoint marker
  /// into every shard queue. The merge finishes the returned capture once
  /// every shard's part ("s<k>/...", chunk group "s<k>") and its own
  /// ("merge") are in; a shard in a transient migration phase fails it. A
  /// cut may land inside a broadcast migration: a shard in GenMig's parallel
  /// phase captures it as the engine does. Once finished(), the final state
  /// is captured directly. One cut at a time: the previous capture must
  /// have finished.
  std::shared_ptr<CkptCapture> BeginCut();

  /// Re-seeds the router, shard controllers/boxes, the merge and the sink
  /// from the blobs of one cut (keyed as BeginCut's capture names them,
  /// behind `prefix`);
  /// the feed positions come from the executor's own checkpoint. A
  /// broadcast migration the cut caught in its parallel phase resumes at the
  /// recorded T_split. Call after Connect() and before any input is routed,
  /// with the same plan and scheduled migrations as the checkpointed run.
  /// DataLoss when the cut is unusable.
  Status Restore(const std::map<std::string, std::string>& blobs,
                 const std::string& prefix = "");

  /// Joins every thread (starting them if no row was routed, and closing
  /// the shard queues first); the sink then holds the deterministic merged
  /// output and has seen EOS.
  void Wait();

  /// Every port's EOS was routed: no input, migration or cut marker follows.
  bool finished() const;
  /// Threads started and not joined yet: the merge may write the sink.
  bool running() const { return started_ && !joined_; }

  // --- Introspection -------------------------------------------------------

  /// Min over shards — the number of migrations that completed EVERYWHERE.
  int migrations_completed() const;
  /// Broadcast global split time (MinInstant until the broadcast fired).
  Timestamp t_split() const;
  int shards() const { return static_cast<int>(shards_.size()); }
  uint64_t elements_routed() const {
    return elements_routed_.load(std::memory_order_relaxed);
  }
  /// Rows released into the sink so far; safe to read while running().
  uint64_t results_released() const {
    return merge_ != nullptr ? merge_->released() : 0;
  }

  // --- Lag attribution (ISSUE 9) -----------------------------------------

  /// Max start instant routed so far (the source front the per-shard
  /// watermark-lag gauges measure against). MinInstant before any routing.
  Timestamp source_front() const {
    return Timestamp(source_front_.load(std::memory_order_relaxed), 0);
  }
  /// Shard `k`'s min per-port input watermark (ShardRuntime contract).
  /// Valid after Connect().
  Timestamp shard_watermark(int k) const {
    return shards_[static_cast<size_t>(k)]->input_watermark();
  }
  /// Shard `k`'s last sampled watermark lag (application-time units).
  int64_t shard_watermark_lag(int k) const {
    return shards_[static_cast<size_t>(k)]->watermark_lag();
  }

 private:
  class Router;

  struct Scheduled {
    LogicalPtr new_stripped;
    Timestamp at;
    MigrationController::GenMigOptions base;
    bool fired = false;
  };

  /// Builds queues, merge and shards (Connect()). Idempotent.
  Status BuildRuntime();
  /// Starts the shard and merge threads (first routed row, cut or Wait()).
  void EnsureStarted();

  LogicalPtr windowed_plan_;
  LogicalPtr stripped_plan_;
  CollectorSink* sink_;
  Options options_;
  PartitionSpec spec_;

  std::unique_ptr<BoundedQueue<ShardOutMsg>> out_queue_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  std::unique_ptr<MergeSink> merge_;
  std::unique_ptr<Router> router_;
  bool started_ = false;
  bool joined_ = false;

  std::vector<Scheduled> scheduled_;
  std::shared_ptr<CkptCapture> last_cut_;

  std::atomic<uint64_t> elements_routed_{0};
  /// Router-published max routed start (the shards' lag reference).
  std::atomic<int64_t> source_front_{Timestamp::MinInstant().t};
  std::atomic<int64_t> t_split_t_{0};
  std::atomic<uint32_t> t_split_eps_{0};
  std::atomic<bool> t_split_set_{false};
};

}  // namespace par
}  // namespace genmig

#endif  // GENMIG_PAR_COORDINATOR_H_
