// One worker shard of the parallel executor: an independent replica of the
// physical plan (windows -> MigrationController -> output callback) driven
// by its own std::thread off a bounded input queue.
//
// Everything inside a shard is the unmodified single-threaded engine — the
// operator DAG never learns it is sharded. Thread boundaries are exactly the
// two queues (input from the router, output to the merge), plus a handful of
// atomics published for coordinator introspection. Migration is triggered by
// an in-band kMigrate message carrying the coordinator's broadcast T_split
// (GenMigOptions::min_split), so every shard splits at the same instant no
// matter which subset of the data it saw. A kCheckpoint marker captures the
// controller with the engine's codec (ckpt/box_codec.h), in GenMig's
// parallel phase too.

#ifndef GENMIG_PAR_SHARD_RUNTIME_H_
#define GENMIG_PAR_SHARD_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/box_codec.h"
#include "ckpt/format.h"
#include "migration/controller.h"
#include "ops/sink.h"
#include "ops/stateless.h"
#include "par/shard_queue.h"
#include "plan/logical.h"

namespace genmig {
namespace par {

/// Blob collection of one in-band checkpoint cut (ISSUE 10). The router
/// creates it, appends its own cursor state and pushes a kCheckpoint marker
/// to every shard; each shard appends its blobs at the marker position in
/// its FIFO input and forwards the marker downstream; the merge hands the
/// cut on once markers from all shards arrived (Chandy-Lamport with FIFO
/// channels — the markers delimit one consistent global cut without pausing
/// the pipeline). A failed capture is dropped.
struct CkptCapture {
  std::mutex mu;
  std::vector<ckpt::Blob> blobs;
  bool failed = false;

  void Add(ckpt::Blob blob) {
    std::lock_guard<std::mutex> lock(mu);
    blobs.push_back(std::move(blob));
  }
  void Fail() {
    std::lock_guard<std::mutex> lock(mu);
    failed = true;
  }
};

/// A migration broadcast: compile `new_plan` (already window-stripped),
/// rebind its inputs to the old leaf order, and GenMig to it.
struct MigrationOrder {
  LogicalPtr new_plan;
  std::vector<std::string> input_order;
  MigrationController::GenMigOptions options;  // min_split = global T_split.
};

/// Router -> shard message. Rows only ever travel as batches.
struct ShardInMsg {
  enum class Kind : uint8_t { kBatch, kHeartbeat, kEos, kMigrate, kCheckpoint };
  Kind kind = Kind::kBatch;
  int port = 0;
  TupleBatch batch;                             // kBatch
  Timestamp time;                               // kHeartbeat
  std::shared_ptr<const MigrationOrder> order;  // kMigrate
  std::shared_ptr<CkptCapture> capture;         // kCheckpoint
};

/// Shard -> merge message. Rows only ever travel as batches.
struct ShardOutMsg {
  enum class Kind : uint8_t { kBatch, kWatermark, kEos, kCheckpoint };
  Kind kind = Kind::kBatch;
  int shard = 0;
  TupleBatch batch;                      // kBatch
  Timestamp time;                        // kWatermark
  std::shared_ptr<CkptCapture> capture;  // kCheckpoint
};

class ShardRuntime {
 public:
  struct Config {
    int shard_id = 0;
    /// Window-stripped plan (the migration boundary hosts it).
    LogicalPtr stripped_plan;
    /// Source name per input port, in leaf order.
    std::vector<std::string> port_sources;
    /// Time window per input port (0 = none).
    std::vector<Duration> port_windows;
    size_t queue_capacity = 64;
    BoundedQueue<ShardOutMsg>* out = nullptr;
    obs::MetricsRegistry* registry = nullptr;  // Nullable.
    obs::MigrationTracer* tracer = nullptr;    // Nullable.
    /// Invoked (on the shard thread) whenever migrations_completed or
    /// migration_active changes — the coordinator's barrier wakeup.
    std::function<void()> on_progress;
    /// Router-published source front (max routed start instant, relaxed);
    /// nullptr disables the watermark-lag gauge. INT64_MIN = nothing routed.
    const std::atomic<int64_t>* source_front = nullptr;
  };

  explicit ShardRuntime(Config config);
  ~ShardRuntime();

  void Start();
  void Join();

  BoundedQueue<ShardInMsg>& input() { return in_; }

  /// Restore: rebuilds this shard's controller from its blobs
  /// of a loaded cut ("s<k>/ctl", "s<k>/plan", ..., the engine's controller
  /// codec), including a broadcast GenMig in its parallel phase, which
  /// resumes at the recorded T_split. Must run before Start().
  Status CkptRestore(const std::map<std::string, std::string>& blobs);

  // --- Cross-thread introspection (published after every message batch) ---
  int migrations_completed() const {
    return migrations_completed_.load(std::memory_order_acquire);
  }
  /// Min over this shard's per-port input watermarks — how far the shard has
  /// provably progressed in application time. MinInstant before any input,
  /// MaxInstant after EOS on every port. Published after every message batch.
  Timestamp input_watermark() const {
    return Timestamp(input_wm_t_.load(std::memory_order_acquire),
                     input_wm_eps_.load(std::memory_order_acquire));
  }
  /// Last sampled watermark lag in application-time units (source front
  /// minus input_watermark, clamped at 0).
  int64_t watermark_lag() const {
    return watermark_lag_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  void Handle(const ShardInMsg& msg);
  void CaptureCheckpoint(CkptCapture* capture);
  void PublishProgress();
  void SampleLag();

  Config config_;
  std::string prefix_;
  BoundedQueue<ShardInMsg> in_;

  // Engine replica. Windows are per-port; a port without a window connects
  // straight to the controller.
  std::vector<std::unique_ptr<StatelessChain>> windows_;
  struct PortTarget {
    Operator* op = nullptr;
    int port = 0;
  };
  std::vector<PortTarget> port_targets_;
  std::unique_ptr<MigrationController> controller_;
  /// Stripped plans behind the controller's boxes: the hosted one (the
  /// target once a kMigrate arrived) and, while migrating, the previous one.
  ckpt::HostedPlans plans_;
  std::unique_ptr<CallbackOp> out_cb_;

  std::thread thread_;
  std::atomic<int> migrations_completed_{0};
  std::atomic<bool> migration_active_{false};

  // Lag attribution (ISSUE 9). port_wm_ is shard-thread-local bookkeeping
  // of the strongest promise seen per input port; the aggregate is mirrored
  // into atomics + the "s<k>/lag" registry slot by SampleLag().
  std::vector<Timestamp> port_wm_;
  std::atomic<int64_t> input_wm_t_{Timestamp::MinInstant().t};
  std::atomic<uint32_t> input_wm_eps_{Timestamp::MinInstant().eps};
  std::atomic<int64_t> watermark_lag_{0};
#ifndef GENMIG_NO_METRICS
  obs::OperatorMetrics* lag_metrics_ = nullptr;
#endif
};

}  // namespace par
}  // namespace genmig

#endif  // GENMIG_PAR_SHARD_RUNTIME_H_
