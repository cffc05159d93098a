#include "plan/executor.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"

namespace genmig {

int Executor::AddFeed(std::string name, MaterializedStream elements) {
  GENMIG_CHECK(IsOrderedByStart(elements));
  Feed feed;
  feed.name = std::move(name);
  feed.elements = std::move(elements);
  feed.source = std::make_unique<Source>("source_" + feed.name);
  remaining_ += feed.elements.size();
  feeds_.push_back(std::move(feed));
  return static_cast<int>(feeds_.size()) - 1;
}

int Executor::AddDisorderedFeed(std::string name, MaterializedStream arrivals,
                                DisorderBuffer::Options disorder) {
  // Arrival order is intentionally unchecked: reordering is the buffer's job.
  Feed feed;
  feed.name = std::move(name);
  feed.source = std::make_unique<Source>("source_" + feed.name);
  feed.disordered = true;
  feed.arrivals = std::move(arrivals);
  feed.buffer = std::make_unique<DisorderBuffer>(disorder);
  remaining_ += feed.arrivals.size();
  feeds_.push_back(std::move(feed));
  return static_cast<int>(feeds_.size()) - 1;
}

void Executor::Refill(Feed& feed, size_t want) {
  if (!feed.disordered || feed.closed) return;
  while (feed.elements.size() - feed.pos < want &&
         feed.arrival_pos < feed.arrivals.size()) {
    const StreamElement& arrival = feed.arrivals[feed.arrival_pos++];
    if (!feed.buffer->Admit(arrival, &feed.elements)) {
      --remaining_;  // Dropped as too late; it will never be pushed.
    }
  }
  if (feed.arrival_pos >= feed.arrivals.size() && !feed.flushed) {
    feed.buffer->FlushAll(&feed.elements);
    feed.flushed = true;
  }
}

void Executor::AnnounceDisorderHorizon(Feed& feed) {
  if (!feed.disordered || feed.closed) return;
  // With a release pending, the next injection is exactly the front, so its
  // start is the strongest valid promise; otherwise every future release
  // lies at or above the buffer watermark (admission bound).
  Timestamp wm = feed.pos < feed.elements.size()
                     ? feed.elements[feed.pos].interval.start
                     : feed.buffer->watermark();
  if (feed.announced_wm < wm) {
    feed.announced_wm = wm;
    feed.source->InjectHeartbeat(wm);
  }
}

Timestamp Executor::pending_start(int feed) const {
  const Feed& f = feeds_[static_cast<size_t>(feed)];
  if (f.pos < f.elements.size()) return f.elements[f.pos].interval.start;
  if (f.disordered && !f.flushed) return f.buffer->watermark();
  return Timestamp::MaxInstant();
}

int Executor::PickFeed() {
  // Disordered feeds refill lazily: admit arrivals until a release is
  // pending (or arrivals run out), so every policy sees its next element.
  for (Feed& f : feeds_) Refill(f, 1);
  switch (options_.policy) {
    case Policy::kGlobalOrder: {
      int best = -1;
      Timestamp best_ts = Timestamp::MaxInstant();
      for (size_t i = 0; i < feeds_.size(); ++i) {
        const Feed& f = feeds_[i];
        if (f.pos >= f.elements.size()) continue;
        const Timestamp ts = f.elements[f.pos].interval.start;
        if (best < 0 || ts < best_ts) {
          best = static_cast<int>(i);
          best_ts = ts;
        }
      }
      return best;
    }
    case Policy::kRoundRobin: {
      for (size_t k = 0; k < feeds_.size(); ++k) {
        const size_t i = (rr_next_ + k) % feeds_.size();
        if (feeds_[i].pos < feeds_[i].elements.size()) {
          rr_next_ = i + 1;
          return static_cast<int>(i);
        }
      }
      return -1;
    }
    case Policy::kRandom: {
      std::vector<int> candidates;
      for (size_t i = 0; i < feeds_.size(); ++i) {
        if (feeds_[i].pos < feeds_[i].elements.size()) {
          candidates.push_back(static_cast<int>(i));
        }
      }
      if (candidates.empty()) return -1;
      std::uniform_int_distribution<size_t> dist(0, candidates.size() - 1);
      return candidates[dist(rng_)];
    }
  }
  return -1;
}

Timestamp Executor::SliceBound() {
  // The batch_size smallest pending starts lie within the first batch_size
  // pending rows of each feed (every queue is ordered by start).
  const size_t k = options_.batch_size;
  slice_scratch_.clear();
  for (const Feed& f : feeds_) {
    const size_t end = std::min(f.elements.size(), f.pos + k);
    for (size_t i = f.pos; i < end; ++i) {
      slice_scratch_.push_back(f.elements[i].interval.start);
    }
  }
  if (slice_scratch_.size() < k) return Timestamp::MaxInstant();
  const auto kth = slice_scratch_.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(slice_scratch_.begin(), kth, slice_scratch_.end());
  return *kth;
}

bool Executor::StepUpTo(Timestamp limit) {
  const int feed_idx = PickFeed();
  if (feed_idx < 0) {
    // Everything pushed; make sure all sources are closed.
    bool closed_any = false;
    for (Feed& f : feeds_) {
      if (!f.closed) {
        f.source->Close();
        f.closed = true;
        closed_any = true;
      }
    }
    return closed_any;
  }
  Feed& feed = feeds_[static_cast<size_t>(feed_idx)];
  if (options_.batch_size <= 1) {
    const StreamElement& element = feed.elements[feed.pos++];
    if (current_time_ < element.interval.start) {
      current_time_ = element.interval.start;
    }
    feed.source->Inject(element);
    --remaining_;
    ++pushed_;
  } else {
    // Under kGlobalOrder a batch may run ahead of the other feeds, but by
    // at most one batch: its rows stop at the batch_size-th smallest pending
    // start over all feeds. Per-port order is all the operators need
    // (Remark 2); the bound only caps how far one port leads the others.
    Timestamp bound = Timestamp::MaxInstant();
    if (options_.policy == Policy::kGlobalOrder) {
      for (Feed& f : feeds_) Refill(f, options_.batch_size);
      bound = SliceBound();
    } else {
      Refill(feed, options_.batch_size);
    }
    batch_scratch_.Clear();
    size_t count = 0;
    while (count < options_.batch_size &&
           feed.pos + count < feed.elements.size()) {
      const StreamElement& e = feed.elements[feed.pos + count];
      // The first row is always pushed (scalar Step semantics — RunUntil's
      // pre-check owns the boundary); the limit and the slice bound only
      // truncate the extra rows.
      if (count > 0 && !(e.interval.start < limit)) break;
      if (count > 0 && bound < e.interval.start) break;
      batch_scratch_.Append(e);
      ++count;
    }
    GENMIG_CHECK_GT(count, 0u);  // PickFeed guarantees a pushable element.
    feed.pos += count;
    if (current_time_ < batch_scratch_.start(count - 1)) {
      current_time_ = batch_scratch_.start(count - 1);
    }
    feed.source->InjectBatch(batch_scratch_);
    remaining_ -= count;
    pushed_ += count;
  }
  Refill(feed, 1);
  if (feed.pos >= feed.elements.size() && !feed.closed &&
      (!feed.disordered || feed.flushed)) {
    feed.source->Close();
    feed.closed = true;
  }
  // The pushed feed's disorder horizon may have advanced with the refill;
  // announce it so downstream watermarks track the buffer, not the push.
  AnnounceDisorderHorizon(feed);
  if (options_.eager_heartbeats) {
    for (Feed& f : feeds_) {
      if (f.closed || f.pos >= f.elements.size()) continue;
      f.source->InjectHeartbeat(f.elements[f.pos].interval.start);
    }
  }
  if (after_step) after_step();
  return true;
}

void Executor::CkptExportFeed(int feed, StateEnc* enc) const {
  const Feed& f = feeds_[static_cast<size_t>(feed)];
  enc->Str(f.name);
  enc->Bool(f.disordered);
  enc->Bool(f.closed);
  if (!f.disordered) {
    enc->U64(f.pos);
    return;
  }
  enc->U64(f.arrival_pos);
  enc->U64(f.elements.size() - f.pos);
  for (size_t i = f.pos; i < f.elements.size(); ++i) {
    enc->Elem(f.elements[i]);
  }
  f.buffer->CkptExport(enc);
  enc->Bool(f.flushed);
  enc->Ts(f.announced_wm);
}

bool Executor::CkptImportFeed(int feed, StateDec* dec) {
  Feed& f = feeds_[static_cast<size_t>(feed)];
  if (dec->Str() != f.name) return false;
  if (dec->Bool() != f.disordered) return false;
  const bool closed = dec->Bool();
  if (!f.disordered) {
    const uint64_t pos = dec->U64();
    if (!dec->ok() || pos > f.elements.size()) return false;
    remaining_ -= static_cast<size_t>(pos);  // Pushed before the cut.
    f.pos = static_cast<size_t>(pos);
  } else {
    const uint64_t arrival_pos = dec->U64();
    if (!dec->ok() || arrival_pos > f.arrivals.size()) return false;
    const uint64_t n = dec->U64();
    MaterializedStream queue;
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      queue.push_back(dec->Elem());
    }
    if (!dec->ok() || !f.buffer->CkptImport(dec)) return false;
    f.flushed = dec->Bool();
    f.announced_wm = dec->Ts();
    if (!dec->ok()) return false;
    f.arrival_pos = static_cast<size_t>(arrival_pos);
    f.elements = std::move(queue);
    f.pos = 0;
    // remaining_ counted every registered arrival at AddDisorderedFeed time;
    // rebuild the outstanding share: released-but-unpushed + still buffered
    // in the reorder heap + not yet admitted (late drops among those will
    // decrement at admission, exactly like the uninterrupted run).
    remaining_ -= f.arrivals.size();
    remaining_ += f.elements.size() + f.buffer->buffered() +
                  (f.arrivals.size() - f.arrival_pos);
  }
  if (closed && !f.closed) {
    f.source->Close();
    f.closed = true;
  }
  return dec->ok();
}

void Executor::CkptExportCursor(StateEnc* enc) const {
  enc->Ts(current_time_);
  enc->U64(pushed_);
  enc->U64(rr_next_);
}

bool Executor::CkptImportCursor(StateDec* dec) {
  current_time_ = dec->Ts();
  pushed_ = static_cast<size_t>(dec->U64());
  rr_next_ = static_cast<size_t>(dec->U64());
  return dec->ok();
}

void Executor::RunUntil(Timestamp t) {
  while (true) {
    int best = -1;
    Timestamp best_ts = Timestamp::MaxInstant();
    for (size_t i = 0; i < feeds_.size(); ++i) {
      Feed& f = feeds_[i];
      Refill(f, 1);
      if (f.pos >= f.elements.size()) continue;
      const Timestamp ts = f.elements[f.pos].interval.start;
      if (best < 0 || ts < best_ts) {
        best = static_cast<int>(i);
        best_ts = ts;
      }
    }
    if (best < 0 || !(best_ts < t)) return;
    if (!StepUpTo(t)) return;
  }
}

}  // namespace genmig
