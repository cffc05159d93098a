#include "par/merge_sink.h"

#include <algorithm>
#include <utility>

#include "stream/state_codec.h"

namespace genmig {
namespace par {

MergeSink::MergeSink(int shards, BoundedQueue<ShardOutMsg>* queue,
                     CollectorSink* sink, obs::MetricsRegistry* registry)
    : shards_(shards),
      queue_(queue),
      sink_(sink),
      pending_(static_cast<size_t>(shards)),
      shard_wm_(static_cast<size_t>(shards), Timestamp::MinInstant()),
      shard_eos_(static_cast<size_t>(shards), false),
      shard_seq_(static_cast<size_t>(shards), 0) {
  GENMIG_CHECK(shards_ > 0);
  GENMIG_CHECK(queue_ != nullptr);
  GENMIG_CHECK(sink_ != nullptr);
  if (registry != nullptr) metrics_ = registry->Register("par/merge");
}

// (t_start, t_end, tuple, shard, seq); tuples compare field by field, as
// Tuple::operator< does, but straight from the batch columns (every row has
// the plan's output arity).
bool MergeSink::Ref::operator<(const Ref& other) const {
  if (start != other.start) return start < other.start;
  if (end != other.end) return end < other.end;
  for (size_t c = 0; c < batch->num_columns(); ++c) {
    const Value& a = batch->at(c, row);
    const Value& b = other.batch->at(c, other.row);
    if (a != b) return a < b;
  }
  if (shard != other.shard) return shard < other.shard;
  return seq < other.seq;
}

void MergeSink::Start() {
  GENMIG_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { Run(); });
}

void MergeSink::Join() {
  if (thread_.joinable()) thread_.join();
}

Timestamp MergeSink::MinLiveWatermark() const {
  Timestamp min = Timestamp::MaxInstant();
  for (int s = 0; s < shards_; ++s) {
    const size_t i = static_cast<size_t>(s);
    if (shard_eos_[i]) continue;  // Ended shard: no earlier starts possible.
    if (shard_wm_[i] < min) min = shard_wm_[i];
  }
  return min;
}

size_t MergeSink::HeldBack() const {
  size_t n = 0;
  for (const std::deque<Pending>& fifo : pending_) {
    for (const Pending& p : fifo) n += p.batch.size() - p.next;
  }
  return n;
}

void MergeSink::Run() {
  std::deque<ShardOutMsg> batch;
  while (queue_->PopAll(&batch)) {
    for (ShardOutMsg& msg : batch) {
      // Marker alignment (ISSUE 10): once a shard's kCheckpoint marker is
      // in, its post-marker messages are held aside so the captured merge
      // state reflects exactly the pre-marker prefix of every shard.
      if (ckpt_pending_ != nullptr && msg.kind != ShardOutMsg::Kind::kCheckpoint &&
          ckpt_marker_seen_[static_cast<size_t>(msg.shard)]) {
        ckpt_side_.push_back(std::move(msg));
        continue;
      }
      if (msg.kind == ShardOutMsg::Kind::kCheckpoint) {
        if (ckpt_pending_ == nullptr) {
          ckpt_pending_ = msg.capture;
          ckpt_marker_seen_.assign(static_cast<size_t>(shards_), false);
          ckpt_markers_ = 0;
        }
        size_t i = static_cast<size_t>(msg.shard);
        if (!ckpt_marker_seen_[i]) {
          ckpt_marker_seen_[i] = true;
          ++ckpt_markers_;
        }
        if (ckpt_markers_ == shards_) FinishCapture();
        continue;
      }
      Process(msg);
    }
    batch.clear();
    Release(/*final_flush=*/false);
    SampleHoldBack();
  }
  // Queue closed and drained: every shard sent kEos, flush everything.
  Release(/*final_flush=*/true);
  GENMIG_CHECK(HeldBack() == 0);
  SampleHoldBack();
  sink_->PushEos(0);
}

void MergeSink::Process(ShardOutMsg& msg) {
  const size_t i = static_cast<size_t>(msg.shard);
  switch (msg.kind) {
    case ShardOutMsg::Kind::kBatch: {
      if (msg.batch.empty()) break;
      for (size_t r = 0; r < msg.batch.size(); ++r) {
        if (shard_wm_[i] < msg.batch.start(r)) {
          shard_wm_[i] = msg.batch.start(r);
        }
      }
      Pending p;
      p.seq = shard_seq_[i];
      shard_seq_[i] += msg.batch.size();
      p.batch = std::move(msg.batch);
      pending_[i].push_back(std::move(p));
      break;
    }
    case ShardOutMsg::Kind::kWatermark:
      if (shard_wm_[i] < msg.time) shard_wm_[i] = msg.time;
      break;
    case ShardOutMsg::Kind::kEos:
      // A restored cut of a finished shard sees its EOS re-delivered.
      if (shard_eos_[i]) break;
      shard_eos_[i] = true;
      eos_seen_.fetch_add(1, std::memory_order_acq_rel);
      break;
    case ShardOutMsg::Kind::kCheckpoint:
      break;  // Handled by the alignment logic in Run().
  }
}

// All markers are in: every shard's pre-marker prefix has been processed and
// nothing after a marker has — capture the merge state, finish the capture,
// then replay the held-back messages. The coordinator initiates at most one
// cut at a time, so the side buffer cannot contain another marker.
void MergeSink::FinishCapture() {
  std::shared_ptr<CkptCapture> done = std::move(ckpt_pending_);
  ckpt_pending_ = nullptr;
  ckpt_markers_ = 0;
  Capture(done.get());
  done->Finish();

  std::deque<ShardOutMsg> replay = std::move(ckpt_side_);
  ckpt_side_.clear();
  for (ShardOutMsg& msg : replay) Process(msg);
}

void MergeSink::CaptureJoined(CkptCapture* capture) {
  GENMIG_CHECK(!thread_.joinable());
  Capture(capture);
  capture->Finish();
}

// The capture releases first: the watermarks now reflect exactly the
// pre-marker messages, so the split between released and held-back rows,
// and with it the blob, does not depend on when the merge last ran.
void MergeSink::Capture(CkptCapture* capture) {
  Release(/*final_flush=*/false);
  StateEnc enc;
  enc.U32(static_cast<uint32_t>(shards_));
  for (int s = 0; s < shards_; ++s) {
    const size_t i = static_cast<size_t>(s);
    enc.Ts(shard_wm_[i]);
    enc.Bool(shard_eos_[i]);
    enc.U64(shard_seq_[i]);
  }
  enc.U64(HeldBack());
  for (int s = 0; s < shards_; ++s) {
    for (const Pending& p : pending_[static_cast<size_t>(s)]) {
      for (size_t r = p.next; r < p.batch.size(); ++r) {
        enc.Elem(p.batch.Row(r));
        enc.U32(static_cast<uint32_t>(s));
        enc.U64(p.seq + r);
      }
    }
  }
  ckpt::Blob blob;
  blob.key = "merge";
  blob.group = "main";
  // The released prefix, encoded as StateEnc::Stream would: the sink
  // appends only the rows released since the previous cut.
  blob.bytes = enc.Take() + sink_->CkptExportAmortized();
  capture->Add(std::move(blob));
}

bool MergeSink::CkptImport(const std::string& bytes) {
  GENMIG_CHECK(!thread_.joinable());
  StateDec dec(bytes);
  if (static_cast<int>(dec.U32()) != shards_) return false;
  for (int s = 0; s < shards_; ++s) {
    const size_t i = static_cast<size_t>(s);
    shard_wm_[i] = dec.Ts();
    shard_eos_[i] = dec.Bool();
    shard_seq_[i] = dec.U64();
  }
  for (std::deque<Pending>& fifo : pending_) fifo.clear();
  const uint64_t held = dec.U64();
  for (uint64_t n = 0; n < held && dec.ok(); ++n) {
    Pending p;
    p.batch.Append(dec.Elem());
    const uint32_t shard = dec.U32();
    p.seq = dec.U64();
    if (shard >= static_cast<uint32_t>(shards_)) return false;
    pending_[shard].push_back(std::move(p));
  }
  // A blob may list held rows in any order; seq is each shard's arrival
  // order.
  for (std::deque<Pending>& fifo : pending_) {
    std::sort(fifo.begin(), fifo.end(),
              [](const Pending& a, const Pending& b) { return a.seq < b.seq; });
  }
  if (!sink_->CkptImport(&dec) || !dec.AtEnd()) return false;
  int eos = 0;
  for (int s = 0; s < shards_; ++s) {
    if (shard_eos_[static_cast<size_t>(s)]) ++eos;
  }
  eos_seen_.store(eos, std::memory_order_release);
  released_count_.store(sink_->count(), std::memory_order_relaxed);
  return true;
}

// Hold-back gauge (ISSUE 9): how many released-but-unsortable elements the
// deterministic merge is sitting on (waiting for slower shards' watermarks),
// plus the backpressure the shard->merge queue exerted on the shard threads.
// Single writer (the merge thread) per the metrics.h contract — the queue's
// blocked counters are merely copied into the slot here.
void MergeSink::SampleHoldBack() {
  if (metrics_ == nullptr) return;
  const uint64_t depth = HeldBack();
  metrics_->SampleState(depth, depth * sizeof(StreamElement), depth);
  metrics_->backpressure_ns = queue_->blocked_ns();
  metrics_->backpressure_events = queue_->blocked_count();
}

void MergeSink::Release(bool final_flush) {
  const Timestamp bound = final_flush ? Timestamp::MaxInstant()
                                      : MinLiveWatermark();
  // A shard's rows arrive in t_start order, so its releasable rows are a
  // prefix of its FIFO, and only rows sharing a t_start can be out of key
  // order: sort those runs, then merge the shards' sorted ranges.
  refs_.clear();
  std::vector<size_t> ranges{0};
  for (int s = 0; s < shards_; ++s) {
    for (const Pending& p : pending_[static_cast<size_t>(s)]) {
      size_t r = p.next;
      // Strict <: a live shard at watermark w can still emit an element
      // starting exactly at w.
      for (; r < p.batch.size() && (final_flush || p.batch.start(r) < bound);
           ++r) {
        refs_.push_back(Ref{p.batch.start(r), p.batch.end(r), &p.batch, r, s,
                            p.seq + r});
      }
      if (r < p.batch.size()) break;
    }
    for (size_t b = ranges.back(), e = b; b < refs_.size(); b = e) {
      while (e < refs_.size() && refs_[e].start == refs_[b].start) ++e;
      std::sort(refs_.begin() + static_cast<std::ptrdiff_t>(b),
                refs_.begin() + static_cast<std::ptrdiff_t>(e));
    }
    ranges.push_back(refs_.size());
  }
  for (size_t s = 2; s < ranges.size(); ++s) {
    std::inplace_merge(
        refs_.begin(), refs_.begin() + static_cast<std::ptrdiff_t>(ranges[s - 1]),
        refs_.begin() + static_cast<std::ptrdiff_t>(ranges[s]));
  }
  released_.Clear();
  for (const Ref& ref : refs_) released_.AppendRowFrom(*ref.batch, ref.row);
  if (metrics_ != nullptr) {
    metrics_->elements_in += released_.size();
    metrics_->elements_out += released_.size();
  }
  sink_->PushBatch(0, released_);
  released_count_.fetch_add(released_.size(), std::memory_order_relaxed);
  // Drop the released rows: per shard, a prefix of its FIFO.
  for (size_t s = 0; s < pending_.size(); ++s) {
    std::deque<Pending>& fifo = pending_[s];
    size_t n = ranges[s + 1] - ranges[s];
    while (n > 0) {
      Pending& p = fifo.front();
      const size_t take = std::min(n, p.batch.size() - p.next);
      p.next += take;
      n -= take;
      if (p.next == p.batch.size()) fifo.pop_front();
    }
  }
}

}  // namespace par
}  // namespace genmig
