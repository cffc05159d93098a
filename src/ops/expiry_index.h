// ExpiryIndex: the time-ordered index through which stateful operators drop
// state once the input watermark passes its end timestamp (Section 2.2,
// "Temporal Expiration"). The operator keeps one (end, handle) entry per
// state entry; on a watermark advance the index hands back exactly the
// entries that expired, so expiry costs O(expired) instead of a walk over
// the whole state. Its largest end is GenMig Optimization 2's bound on every
// instant the state still references.
//
// Two stores share the work:
//   * a FIFO ring takes every entry whose end is not below the newest ring
//     entry's, with O(1) push and pop. Every fixed RANGE window inserts this
//     way, so on such ports the ring is all there is;
//   * a binary min-heap takes the rest, O(log n) each: seeded (Moving States)
//     or restored state, whose input order is a hash map's, and join results
//     feeding a further join, whose intersected intervals end out of order.
// A pop takes the smaller of the two fronts. After a restore the heap holds
// the restored state and drains as it expires, while new in-order entries go
// to the ring again.
//
// The index is derived data: an operator rebuilds it from its state when it
// imports a checkpoint, and never serializes it.

#ifndef GENMIG_OPS_EXPIRY_INDEX_H_
#define GENMIG_OPS_EXPIRY_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "time/timestamp.h"

namespace genmig {

template <typename Handle>
class ExpiryIndex {
 public:
  struct Entry {
    Timestamp end;
    Handle handle;
  };

  bool empty() const { return ring_size_ == 0 && heap_.empty(); }
  size_t size() const { return ring_size_ + heap_.size(); }
  /// Entries held by the heap (those pushed out of end order).
  size_t heap_size() const { return heap_.size(); }

  /// Smallest end held, or Timestamp::MaxInstant() when empty.
  Timestamp Front() const {
    Timestamp front = Timestamp::MaxInstant();
    if (ring_size_ > 0) front = RingFront().end;
    if (!heap_.empty() && heap_.front().end < front) front = heap_.front().end;
    return front;
  }

  /// Largest end held, or Timestamp::MinInstant() when empty. Expiry pops
  /// the largest entry last, so the running maximum stays exact until the
  /// index empties.
  Timestamp Back() const { return max_end_; }

  void Push(Timestamp end, Handle handle) {
    if (max_end_ < end) max_end_ = end;
    if (ring_size_ > 0 && end < RingBack().end) {
      PushHeap(Entry{end, handle});
      return;
    }
    if (ring_size_ == ring_.size()) GrowRing();
    ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] =
        Entry{end, handle};
    ++ring_size_;
  }

  /// Removes every entry with end <= `watermark`, calling `on_expired(entry)`
  /// for each in non-decreasing end order (ties in no particular order). The
  /// callback must not push into the index.
  template <typename Fn>
  void PopExpired(Timestamp watermark, Fn&& on_expired) {
    for (;;) {
      const bool ring_due = ring_size_ > 0 && RingFront().end <= watermark;
      const bool heap_due = !heap_.empty() && heap_.front().end <= watermark;
      if (ring_due && (!heap_due || RingFront().end <= heap_.front().end)) {
        const Entry entry = RingFront();
        ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
        --ring_size_;
        on_expired(entry);
      } else if (heap_due) {
        std::pop_heap(heap_.begin(), heap_.end(), LaterEnd());
        const Entry entry = heap_.back();
        heap_.pop_back();
        on_expired(entry);
      } else {
        if (empty()) max_end_ = Timestamp::MinInstant();
        return;
      }
    }
  }

 private:
  struct LaterEnd {
    bool operator()(const Entry& a, const Entry& b) const {
      return b.end < a.end;
    }
  };

  const Entry& RingFront() const { return ring_[ring_head_]; }
  const Entry& RingBack() const {
    return ring_[(ring_head_ + ring_size_ - 1) & (ring_.size() - 1)];
  }

  // Push's two slow paths stay out of line so that Push itself inlines.
  [[gnu::noinline]] void PushHeap(const Entry& entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), LaterEnd());
  }

  /// Doubles the ring (capacity stays a power of two) and unwraps it.
  [[gnu::noinline]] void GrowRing() {
    std::vector<Entry> bigger(std::max<size_t>(16, 2 * ring_.size()));
    for (size_t i = 0; i < ring_size_; ++i) {
      bigger[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    ring_head_ = 0;
  }

  std::vector<Entry> ring_;  // Capacity is ring_.size(), a power of two.
  size_t ring_head_ = 0;
  size_t ring_size_ = 0;
  std::vector<Entry> heap_;  // Min-heap on end.
  Timestamp max_end_ = Timestamp::MinInstant();
};

}  // namespace genmig

#endif  // GENMIG_OPS_EXPIRY_INDEX_H_
