// Executor: drives a plan by pushing source elements through the operator
// DAG, one element per step, under a pluggable scheduling policy.
//
// The experiments of Section 5 execute plans "in a single thread according
// to the global temporal ordering" — Policy::kGlobalOrder. Remark 2 of the
// paper points out that GenMig does not require global temporal ordering;
// Policy::kRoundRobin and Policy::kRandom exercise that claim in tests.

#ifndef GENMIG_PLAN_EXECUTOR_H_
#define GENMIG_PLAN_EXECUTOR_H_

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ops/source.h"
#include "stream/disorder.h"
#include "stream/element.h"

namespace genmig {

class Executor {
 public:
  enum class Policy {
    kGlobalOrder,  // Always push the globally smallest next start timestamp.
    kRoundRobin,   // Cycle through non-exhausted feeds.
    kRandom,       // Seeded random feed choice (application-time skew).
  };

  struct Options {
    Policy policy = Policy::kGlobalOrder;
    uint64_t seed = 1;
    /// After each pushed element, every other feed announces the start
    /// timestamp of its next pending element as a heartbeat ([11]): no
    /// earlier element can arrive from it. Keeps buffering (union heaps,
    /// join output buffers, the GenMig coalesce state) minimal under
    /// application-time skew, at the cost of extra control messages.
    bool eager_heartbeats = false;
    /// 0 or 1: scalar injection (one element per Step). Greater than 1: each
    /// Step injects up to this many consecutive elements of the chosen feed
    /// as one TupleBatch (vectorized path). Under kGlobalOrder the batch
    /// takes the chosen feed's pending rows up to the batch_size-th smallest
    /// pending start over all feeds, so no batch runs more than one batch
    /// ahead of the global temporal order. Within a feed the order is exact;
    /// across feeds it is not, which GenMig and every operator tolerate
    /// because their results depend only on per-port order (Remark 2). The
    /// bound is a pure function of the feed positions: checkpoints carry no
    /// extra cursor for it.
    size_t batch_size = 0;
  };

  Executor() : Executor(Options{}) {}
  explicit Executor(Options options)
      : options_(options), rng_(options.seed) {}

  /// Registers an input feed; returns its index. The feed's Source operator
  /// is created internally and must be connected via ConnectFeed.
  int AddFeed(std::string name, MaterializedStream elements);

  /// Convenience: registers a raw (timestamp-only) stream.
  int AddRawFeed(std::string name, const std::vector<TimedTuple>& raw) {
    return AddFeed(std::move(name), ToPhysicalStream(raw));
  }

  /// Registers an input feed whose elements are in *arrival* order, not
  /// necessarily ordered by start timestamp. A DisorderBuffer reorders them
  /// under bounded lateness: the plan sees a valid ordered physical stream,
  /// the buffer's monotone low-watermark is announced downstream as
  /// heartbeats (so windows, merges and T_split selection track the disorder
  /// horizon, not the raw arrivals), and elements later than the allowance
  /// are dropped (see feed_buffer() stats).
  int AddDisorderedFeed(std::string name, MaterializedStream arrivals,
                        DisorderBuffer::Options disorder);

  Source* source(int feed) { return feeds_[static_cast<size_t>(feed)].source.get(); }

  /// A lower bound on the start of every element feed `feed` will still
  /// push: its next pending start; for a disordered feed with nothing
  /// released yet, the reorder buffer's watermark; MaxInstant once nothing
  /// is left. The sharded router's migration broadcast promises it.
  Timestamp pending_start(int feed) const;
  const std::string& feed_name(int feed) const {
    return feeds_[static_cast<size_t>(feed)].name;
  }
  bool feed_disordered(int feed) const {
    return feeds_[static_cast<size_t>(feed)].disordered;
  }
  /// The reordering stage of a disordered feed (stats, watermark, delta);
  /// nullptr for ordered feeds.
  const DisorderBuffer* feed_buffer(int feed) const {
    return feeds_[static_cast<size_t>(feed)].buffer.get();
  }

  /// Connects feed `feed` to `op`'s input `port`.
  void ConnectFeed(int feed, Operator* op, int port) {
    source(feed)->ConnectTo(0, op, port);
  }

  /// Pushes one element — or, with Options::batch_size > 1, one batch — from
  /// the policy-chosen feed. Returns false when every feed is exhausted (all
  /// sources closed).
  bool Step() { return StepUpTo(Timestamp::MaxInstant()); }

  /// Runs until all feeds are exhausted and closed.
  void RunToCompletion() {
    while (Step()) {
    }
  }

  /// Runs while the globally smallest unpushed start timestamp is < `t`.
  /// Under kGlobalOrder this executes the plan up to application time `t`.
  void RunUntil(Timestamp t);

  /// Start timestamp of the most recently pushed element.
  Timestamp current_time() const { return current_time_; }
  size_t pushed_count() const { return pushed_; }
  bool finished() const { return remaining_ == 0; }

  /// Invoked after every Step() that pushed an element.
  std::function<void()> after_step;

  // --- Checkpointing (ISSUE 10) -------------------------------------------

  int feed_count() const { return static_cast<int>(feeds_.size()); }

  /// Serializes the injection progress of feed `feed`: the position for an
  /// ordered feed; the arrival position, the reorder-buffer state and the
  /// released-but-unpushed queue suffix for a disordered one (everything
  /// before the position was already delivered downstream and lives in the
  /// operator states captured at the same cut).
  void CkptExportFeed(int feed, StateEnc* enc) const;
  /// Restores progress captured by CkptExportFeed into a freshly
  /// re-registered feed (same name, same data); feeds that had closed
  /// re-deliver their EOS immediately. False on a corrupt or mismatched
  /// blob. kRandom-policy executors restore with a reseeded RNG (the feed
  /// choice sequence is not reproduced; kGlobalOrder is deterministic).
  bool CkptImportFeed(int feed, StateDec* dec);

  /// Executor-global cursor (current application time, pushed count,
  /// round-robin pointer).
  void CkptExportCursor(StateEnc* enc) const;
  bool CkptImportCursor(StateDec* dec);

 private:
  struct Feed {
    std::string name;
    /// Injection queue, ordered by start. For a disordered feed this holds
    /// the elements released by `buffer` so far and keeps growing as
    /// arrivals are admitted.
    MaterializedStream elements;
    size_t pos = 0;
    std::unique_ptr<Source> source;
    bool closed = false;
    // Disordered feeds only:
    bool disordered = false;
    MaterializedStream arrivals;  ///< Registered arrival sequence.
    size_t arrival_pos = 0;
    std::unique_ptr<DisorderBuffer> buffer;
    bool flushed = false;
    Timestamp announced_wm = Timestamp::MinInstant();
  };

  int PickFeed();

  /// Disordered feeds: admits arrivals until the injection queue holds at
  /// least `want` unpushed elements (or arrivals run out, which flushes the
  /// buffer). No-op for ordered feeds.
  void Refill(Feed& feed, size_t want);

  /// Announces the disorder horizon downstream: injects the buffer
  /// watermark as a heartbeat when it advanced past the last announcement.
  void AnnounceDisorderHorizon(Feed& feed);

  /// kGlobalOrder batching: the batch_size-th smallest pending start over
  /// all feeds (MaxInstant when fewer rows are pending).
  Timestamp SliceBound();

  /// Step, but never pushing an element with start >= `limit` (RunUntil's
  /// boundary; batches are truncated at the limit, not skipped past it).
  bool StepUpTo(Timestamp limit);

  Options options_;
  std::mt19937_64 rng_;
  std::vector<Feed> feeds_;
  size_t rr_next_ = 0;
  size_t remaining_ = 0;
  size_t pushed_ = 0;
  Timestamp current_time_ = Timestamp::MinInstant();
  TupleBatch batch_scratch_;  // Reused across batched Steps.
  std::vector<Timestamp> slice_scratch_;  // SliceBound's working set.
};

}  // namespace genmig

#endif  // GENMIG_PLAN_EXECUTOR_H_
