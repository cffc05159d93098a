// Store: the durable half of the checkpoint subsystem (ISSUE 10). A Store
// owns one checkpoint directory and turns "here is the full set of live
// state blobs" into an incremental, atomically committed on-disk
// checkpoint:
//
//   * Blobs whose FNV-1a hash matches the previous manifest are NOT
//     rewritten — their manifest entries carry forward into the new
//     manifest, still pointing at the old chunk files. Only changed blobs
//     cost IO, so steady-state checkpoints write bytes proportional to
//     churn, not to total state.
//   * Changed blobs are grouped into chunk files by the blob's `group`
//     ("main" for the engine, "s<k>" per shard), giving the sharded
//     executor per-shard checkpoint files under one global manifest/cut.
//   * The commit point is a tmp+rename swap of CURRENT after every chunk
//     and the manifest are fsync'd. A crash leaves either the previous or
//     the new checkpoint fully readable; Load() additionally falls back to
//     older MANIFEST-* files when the newest is torn.
//
// Every commit is the whole checkpoint: one engine writes one store, its
// own "engine/..." blobs and each sharded query's cut under "par/q<i>/..."
// in the same commit.
//
// CommitAsync() hands the (already serialized) blob set to a background
// thread so file IO never blocks stream processing; if the previous commit
// is still in flight the round is skipped (busy-skip) rather than queued —
// a newer checkpoint always supersedes an older one.

#ifndef GENMIG_CKPT_STORE_H_
#define GENMIG_CKPT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/format.h"
#include "common/status.h"

namespace genmig {
namespace ckpt {

class Store {
 public:
  /// Lifecycle notification for journaling. kCommit/kAbort always follow a
  /// kBegin with the same seq. May fire on the background thread.
  struct Event {
    enum class Phase { kBegin, kCommit, kAbort };
    Phase phase = Phase::kBegin;
    uint64_t seq = 0;
    uint64_t bytes = 0;          // Total live bytes in the checkpoint.
    uint64_t written_bytes = 0;  // Bytes actually written (incremental).
    uint64_t duration_ns = 0;
    std::string message;  // Error text on kAbort.
  };

  struct StatsSnapshot {
    uint64_t seq = 0;               // Last committed checkpoint.
    uint64_t commits = 0;
    uint64_t failures = 0;
    /// Rounds refused: CommitAsync while busy, plus SkipRound() calls.
    uint64_t skipped = 0;
    uint64_t bytes = 0;             // Live bytes of the last commit.
    uint64_t written_bytes = 0;     // Incremental bytes of the last commit.
    uint64_t duration_ns = 0;       // Duration of the last commit.
    int64_t last_commit_wall_ns = 0;  // CLOCK_REALTIME ns; 0 = never.
  };

  explicit Store(std::string dir);
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Observer for checkpoint begin/commit/abort. Must be set before the
  /// first commit; invoked from whichever thread runs the commit.
  void SetEventObserver(std::function<void(const Event&)> observer) {
    observer_ = std::move(observer);
  }

  /// Synchronously commits `blobs`, the full live set, as checkpoint
  /// seq+1: a previous key absent here is dropped from the new manifest.
  Status Commit(std::vector<Blob> blobs);

  /// Queues a commit on the background thread. Returns false (and only
  /// counts the round in `StatsSnapshot::skipped`) when a previous async
  /// commit is still pending or running.
  bool CommitAsync(std::vector<Blob> blobs);

  /// Counts a round its owner refused before handing it over (for example
  /// while a previous round's state is still being captured).
  void SkipRound() { skipped_.fetch_add(1, std::memory_order_relaxed); }

  /// Blocks until no async commit is pending or running.
  void WaitIdle();
  /// No async commit is pending or running.
  bool idle() const;

  /// Reads the newest intact checkpoint into `blobs`, falling back to older
  /// manifests on corruption. NotFound when the directory holds no
  /// checkpoint at all; DataLoss when checkpoints exist but none is intact.
  Status Load(std::map<std::string, std::string>* blobs,
              uint64_t* seq = nullptr);

  StatsSnapshot stats() const;

 private:
  Status CommitLocked(const std::vector<Blob>& blobs);
  Status TryLoadManifest(const std::string& manifest_file,
                         std::map<std::string, std::string>* blobs,
                         Manifest* manifest);
  void CollectGarbage(uint64_t keep_seq_a, uint64_t keep_seq_b);
  void WorkerMain();
  void Notify(const Event& event);

  const std::string dir_;

  // Serializes commits (sync and async) and guards last_manifest_.
  std::mutex commit_mu_;
  std::optional<Manifest> last_manifest_;

  // Background commit worker.
  mutable std::mutex worker_mu_;
  std::condition_variable worker_cv_;
  std::optional<std::vector<Blob>> pending_;
  bool busy_ = false;
  bool stop_ = false;
  std::thread worker_;

  std::function<void(const Event&)> observer_;

  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> skipped_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> written_bytes_{0};
  std::atomic<uint64_t> duration_ns_{0};
  std::atomic<int64_t> last_commit_wall_ns_{0};
};

}  // namespace ckpt
}  // namespace genmig

#endif  // GENMIG_CKPT_STORE_H_
