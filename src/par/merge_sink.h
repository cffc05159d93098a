// Deterministic k-way temporal merge of shard outputs.
//
// Each shard emits a valid physical stream (non-decreasing start
// timestamps); the merge must interleave them into ONE valid stream whose
// order does not depend on thread scheduling or shard count. Rule:
//
//  * a shard's output batches wait, unexpanded, in that shard's FIFO;
//  * an element is released once every live shard's output watermark has
//    passed its t_start — no shard can still produce an earlier-or-equal
//    start, so all elements sharing a t_start are held before any of them
//    leaves;
//  * each release sorts the releasable rows by the key (t_start, t_end,
//    tuple, shard, seq) and only then materializes them, in that order.
//
// The released sequence is therefore the sorted-by-key permutation of the
// output multiset: identical for every run and — because GenMig per shard
// with one broadcast T_split produces the same per-shard multisets — byte-
// comparable against the single-threaded oracle via the canonical snapshot
// normal form (ref::SnapshotNormalForm). Each release is pushed into the
// query's CollectorSink as one batch, and EOS follows the final flush: the
// sink holds the results, records their end-to-end latency and encodes them
// for checkpoints, as it does for a single-threaded query.
//
// A shard's watermark advances from three sources, all in its FIFO output
// queue order: the rows of its kBatch messages (a row bounds later starts),
// explicit kWatermark messages, and kEos (watermark jumps to +infinity).

#ifndef GENMIG_PAR_MERGE_SINK_H_
#define GENMIG_PAR_MERGE_SINK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "ops/sink.h"
#include "par/shard_queue.h"
#include "par/shard_runtime.h"
#include "stream/element.h"

namespace genmig {
namespace par {

class MergeSink {
 public:
  /// `queue` carries every shard's ShardOutMsgs (multi-producer, this is the
  /// single consumer). `sink` receives the merged stream; the merge thread
  /// is its only writer until Join() returns. `registry` (nullable) receives
  /// a "par/merge" slot: elements_in counts merged elements, queue_depth
  /// gauges the held-back rows (those awaiting slower shards' watermarks)
  /// and backpressure_ns mirrors the blocked time shards spent pushing into
  /// the merge queue.
  MergeSink(int shards, BoundedQueue<ShardOutMsg>* queue, CollectorSink* sink,
            obs::MetricsRegistry* registry);

  /// Spawns the merge thread. Runs until the queue is closed and drained.
  void Start();
  void Join();

  /// Appends the merge's part of a cut to `capture` and finishes it. The
  /// merge thread does this once kCheckpoint markers from every shard
  /// arrived; after Join() the caller may do it for a cut of the final
  /// state.
  void CaptureJoined(CkptCapture* capture);

  /// Restore: re-seeds the held-back rows and per-shard watermarks from a
  /// "merge" blob, and the sink with the merged prefix. Must run before
  /// Start().
  bool CkptImport(const std::string& bytes);

  /// Shards whose kEos arrived so far (cross-thread readable).
  int eos_seen() const { return eos_seen_.load(std::memory_order_acquire); }
  /// Rows released into the sink so far, restored prefix included
  /// (cross-thread readable while the merge thread runs).
  uint64_t released() const {
    return released_count_.load(std::memory_order_relaxed);
  }

 private:
  /// A shard's output batch; rows before `next` are released. Row r has
  /// sequence number seq + r.
  struct Pending {
    TupleBatch batch;
    size_t next = 0;
    uint64_t seq = 0;
  };
  /// A releasable row, ordered by its merge key.
  struct Ref {
    Timestamp start;
    Timestamp end;
    const TupleBatch* batch = nullptr;
    size_t row = 0;
    int shard = 0;
    uint64_t seq = 0;
    bool operator<(const Ref& other) const;
  };

  void Run();
  void Process(ShardOutMsg& msg);
  void FinishCapture();
  /// Releases what the watermarks allow, then adds the "merge" blob.
  void Capture(CkptCapture* capture);
  void Release(bool final_flush);
  void SampleHoldBack();
  Timestamp MinLiveWatermark() const;
  size_t HeldBack() const;

  const int shards_;
  BoundedQueue<ShardOutMsg>* queue_;
  CollectorSink* sink_;
  obs::OperatorMetrics* metrics_ = nullptr;

  std::vector<std::deque<Pending>> pending_;  // Per shard, arrival order.
  std::vector<Ref> refs_;  // Release scratch.
  TupleBatch released_;    // Release scratch: the rows pushed into sink_.
  std::vector<Timestamp> shard_wm_;
  std::vector<bool> shard_eos_;
  std::vector<uint64_t> shard_seq_;
  std::atomic<int> eos_seen_{0};
  std::atomic<uint64_t> released_count_{0};
  std::thread thread_;

  // Marker alignment of an in-flight cut (at most one; the coordinator
  // serializes initiations): after shard k's marker arrives, its messages
  // are side-buffered until every shard's marker is in, then replayed.
  std::shared_ptr<CkptCapture> ckpt_pending_;
  std::vector<bool> ckpt_marker_seen_;
  int ckpt_markers_ = 0;
  std::deque<ShardOutMsg> ckpt_side_;
};

}  // namespace par
}  // namespace genmig

#endif  // GENMIG_PAR_MERGE_SINK_H_
