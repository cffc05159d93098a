// Bounded blocking queue connecting the shard-parallel executor's threads.
//
// Two uses (see par/coordinator.h for the topology):
//  * router -> shard input: single producer (the router, on the engine
//    thread), single consumer (the shard thread). Blocking Push gives
//    backpressure: a slow shard stalls the engine instead of buffering
//    unboundedly.
//  * shards -> merge: many producers (one per shard), single consumer (the
//    merge thread). Per-producer FIFO order is preserved, which is all the
//    deterministic merge needs (par/merge_sink.h).
//
// Mutex + condvar, batch-draining consumer (PopAll) so the consumer pays one
// lock acquisition per burst, not per message.
//
// Backpressure attribution (ISSUE 9): the queue counts how often and for how
// long Push() actually blocked on a full queue. Only the slow path is timed
// (two clock reads around the wait); an uncontended Push costs nothing
// extra. The owners sample these counters into their registry slots
// (shard_runtime.cc, merge_sink.cc) so `/metrics` can attribute stalls to
// the queue that caused them.

#ifndef GENMIG_PAR_SHARD_QUEUE_H_
#define GENMIG_PAR_SHARD_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "obs/clock.h"

namespace genmig {
namespace par {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Must not be called after Close().
  void Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      // Backpressure slow path: the producer stalls until the consumer
      // drains. fetch_add (not RelaxedU64) because the shard->merge queue
      // has one producer per shard.
      const uint64_t begin_ns = obs::MonotonicNowNs();
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
      blocked_ns_.fetch_add(obs::MonotonicNowNs() - begin_ns,
                            std::memory_order_relaxed);
      blocked_count_.fetch_add(1, std::memory_order_relaxed);
    }
    GENMIG_CHECK(!closed_);
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
  }

  /// Appends every queued item to `*out`, blocking until at least one item
  /// is available or the queue is closed. Returns false iff the queue is
  /// closed AND empty (the producer-side end of stream).
  bool PopAll(std::deque<T>* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    while (!items_.empty()) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    not_full_.notify_all();
    return true;
  }

  /// Marks the producer side done. Pending items remain poppable; PopAll
  /// returns false once they are drained.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Cumulative wall-clock ns producers spent blocked in Push() on a full
  /// queue, and how many pushes blocked. Readable from any thread.
  uint64_t blocked_ns() const {
    return blocked_ns_.load(std::memory_order_relaxed);
  }
  uint64_t blocked_count() const {
    return blocked_count_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  const size_t capacity_;
  bool closed_ = false;
  std::atomic<uint64_t> blocked_ns_{0};
  std::atomic<uint64_t> blocked_count_{0};
};

}  // namespace par
}  // namespace genmig

#endif  // GENMIG_PAR_SHARD_QUEUE_H_
