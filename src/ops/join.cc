#include "ops/join.h"

#include <algorithm>

namespace genmig {

// --- JoinBase ---------------------------------------------------------------

size_t JoinBase::StateBytes() const {
  return buffer_.PayloadBytes() + state_bytes_[0] + state_bytes_[1];
}

size_t JoinBase::StateUnits() const {
  return buffer_.size() + StateElementCount();
}

void JoinBase::OnWatermarkAdvance() {
  const Timestamp wm = MinInputWatermark();
  ExpireStates(wm);
  if (!batch_mode_) {
    buffer_.FlushUpTo(wm, [this](const StreamElement& e) { Emit(0, e); });
    return;
  }
  flush_batch_.Clear();
  buffer_.FlushUpTo(wm,
                    [this](const StreamElement& e) { flush_batch_.Append(e); });
  EmitBatch(0, flush_batch_);
}

void JoinBase::OnAllInputsEos() {
  if (!batch_mode_) {
    buffer_.FlushAll([this](const StreamElement& e) { Emit(0, e); });
    return;
  }
  flush_batch_.Clear();
  buffer_.FlushAll(
      [this](const StreamElement& e) { flush_batch_.Append(e); });
  EmitBatch(0, flush_batch_);
}

void JoinBase::EmitJoined(int probe_port, const StreamElement& probe,
                          const StreamElement& stored) {
  auto intersection = probe.interval.Intersect(stored.interval);
  if (!intersection.has_value()) return;
  const StreamElement& left = probe_port == 0 ? probe : stored;
  const StreamElement& right = probe_port == 0 ? stored : probe;
  StreamElement joined(Tuple::Concat(left.tuple, right.tuple), *intersection,
                       std::min(probe.epoch, stored.epoch));
  // Latency attribution: the result's age is the age of the element that
  // completed it. Carrying the probe's ingress stamp here (instead of relying
  // on the base Emit fallback) keeps the stamp correct even when the ordering
  // buffer releases the result during a later, unstamped push.
  joined.ingress_ns = probe.ingress_ns;
  buffer_.Push(std::move(joined));
}

Timestamp JoinBase::MaxInsertedStartWithEpochBelow(uint32_t epoch) const {
  Timestamp hwm = Timestamp::MinInstant();
  for (const auto& [e, start] : insert_start_hwm_) {
    if (e >= epoch) break;
    if (hwm < start) hwm = start;
  }
  return hwm;
}

void JoinBase::CkptExport(StateEnc* enc) const {
  enc->Stream(ExportState(0));
  enc->Stream(ExportState(1));
  buffer_.CkptExport(enc);
  enc->Bool(batch_mode_);
}

bool JoinBase::CkptImport(StateDec* dec) {
  const MaterializedStream s0 = dec->Stream();
  const MaterializedStream s1 = dec->Stream();
  if (!dec->ok()) return false;
  SeedState(0, s0);
  SeedState(1, s1);
  if (!buffer_.CkptImport(dec)) return false;
  batch_mode_ = dec->Bool();
  return dec->ok();
}

size_t JoinBase::CountStateWithEpochBelow(uint32_t epoch) const {
  size_t count = 0;
  for (int side = 0; side < 2; ++side) {
    for (const auto& [e, n] : epoch_counts_[side]) {
      if (e >= epoch) break;
      count += n;
    }
  }
  return count;
}

// --- NestedLoopsJoin --------------------------------------------------------

NestedLoopsJoin::NestedLoopsJoin(std::string name, Predicate predicate,
                                 int predicate_cost)
    : JoinBase(std::move(name)),
      predicate_(std::move(predicate)),
      predicate_cost_(predicate_cost) {}

bool NestedLoopsJoin::Matches(const Tuple& left, const Tuple& right) const {
  // Optional busy work to simulate an expensive predicate (Section 5). The
  // volatile read/write keeps the loop from being optimized away.
  volatile int sink = 0;
  for (int i = 0; i < predicate_cost_; ++i) {
    sink = sink + i;
  }
  (void)sink;
  return predicate_(left, right);
}

void NestedLoopsJoin::OnElement(int in_port, const StreamElement& element) {
  const int other = 1 - in_port;
  for (const StreamElement& stored : state_[other]) {
    const Tuple& left = in_port == 0 ? element.tuple : stored.tuple;
    const Tuple& right = in_port == 0 ? stored.tuple : element.tuple;
    if (element.interval.Overlaps(stored.interval) && Matches(left, right)) {
      EmitJoined(in_port, element, stored);
    }
  }
  NoteStateInsert(in_port, element);
  Insert(in_port, element);
}

void NestedLoopsJoin::OnBatch(int in_port, const TupleBatch& batch) {
  // Same probe-then-insert order a scalar replay would use (row i is visible
  // to row i+1), with per-row watermark/flush/dispatch overhead amortized.
  // Expiration is deferred to the post-batch watermark advance: an expired
  // entry's end is <= the pre-batch watermark <= every probe's start, so it
  // cannot overlap any probe in this batch and produces no extra results.
  EnterBatchMode();
  const int other = 1 - in_port;
  size_t added_bytes = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    StreamElement element = batch.Row(i);
    for (const StreamElement& stored : state_[other]) {
      const Tuple& left = in_port == 0 ? element.tuple : stored.tuple;
      const Tuple& right = in_port == 0 ? stored.tuple : element.tuple;
      if (element.interval.Overlaps(stored.interval) && Matches(left, right)) {
        EmitJoined(in_port, element, stored);
      }
    }
    added_bytes += element.PayloadBytes();
    Insert(in_port, std::move(element));
  }
  NoteStateInsertBatch(in_port, batch, added_bytes);
}

void NestedLoopsJoin::Insert(int side, StreamElement element) {
  const Timestamp end = element.interval.end;
  State& state = state_[side];
  expiry_[side].Push(end, state.insert(state.end(), std::move(element)));
}

void NestedLoopsJoin::ExpireStates(Timestamp watermark) {
  for (int side = 0; side < 2; ++side) {
    expiry_[side].PopExpired(watermark, [this, side](const auto& entry) {
      NoteStateRemove(side, *entry.handle);
      state_[side].erase(entry.handle);
    });
  }
}

size_t NestedLoopsJoin::StateElementCount() const {
  return expiry_[0].size() + expiry_[1].size();
}

Timestamp NestedLoopsJoin::MaxStateEnd() const {
  return std::max(expiry_[0].Back(), expiry_[1].Back());
}

MaterializedStream NestedLoopsJoin::ExportState(int in_port) const {
  return MaterializedStream(state_[in_port].begin(), state_[in_port].end());
}

void NestedLoopsJoin::SeedState(int in_port,
                                const MaterializedStream& elements) {
  for (const StreamElement& e : elements) {
    NoteStateInsert(in_port, e);
    Insert(in_port, e);
  }
}

// --- SymmetricHashJoin ------------------------------------------------------

SymmetricHashJoin::SymmetricHashJoin(std::string name, size_t left_key_field,
                                     size_t right_key_field)
    : JoinBase(std::move(name)) {
  key_field_[0] = left_key_field;
  key_field_[1] = right_key_field;
}

void SymmetricHashJoin::OnElement(int in_port, const StreamElement& element) {
  const int other = 1 - in_port;
  const Value& key = element.tuple.field(key_field_[in_port]);
  auto it = state_[other].find(key);
  if (it != state_[other].end()) {
    for (const StreamElement& stored : it->second.rows) {
      if (element.interval.Overlaps(stored.interval)) {
        EmitJoined(in_port, element, stored);
      }
    }
  }
  NoteStateInsert(in_port, element);
  Insert(in_port, key, element);
}

void SymmetricHashJoin::OnBatch(int in_port, const TupleBatch& batch) {
  // Tight probe loop: keys are read straight from the key column (no
  // StreamElement materialization on the no-match path until insertion),
  // and all per-push bookkeeping — watermark, metrics, heartbeat cascade,
  // buffer-flush attempts — happens once per batch instead of once per row.
  // Deferred expiration is safe for the same reason as in NestedLoopsJoin.
  EnterBatchMode();
  const int other = 1 - in_port;
  const std::vector<Value>& keys = batch.column(key_field_[in_port]);
  auto& probe_state = state_[other];
  // The byte counter is folded in once per batch and the epoch lineage maps
  // per run of equal epochs (NoteStateInsertBatch).
  size_t added_bytes = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    StreamElement element = batch.Row(i);
    auto it = probe_state.find(keys[i]);
    if (it != probe_state.end()) {
      for (const StreamElement& stored : it->second.rows) {
        if (element.interval.Overlaps(stored.interval)) {
          EmitJoined(in_port, element, stored);
        }
      }
    }
    added_bytes += element.PayloadBytes();
    Insert(in_port, keys[i], std::move(element));
  }
  NoteStateInsertBatch(in_port, batch, added_bytes);
}

void SymmetricHashJoin::Insert(int side, const Value& key,
                               StreamElement element) {
  Slot& slot = *state_[side].try_emplace(key).first;
  expiry_[side].Push(element.interval.end, &slot);
  slot.second.rows.push_back(std::move(element));
}

void SymmetricHashJoin::ExpireStates(Timestamp watermark) {
  for (int side = 0; side < 2; ++side) {
    // Pass 1: count each bucket's expired rows. A bucket holds exactly one
    // index entry per row, so every row with end <= watermark is counted.
    touched_.clear();
    expiry_[side].PopExpired(watermark, [this](const auto& entry) {
      if (entry.handle->second.due++ == 0) touched_.push_back(entry.handle);
    });
    // Pass 2: remove them from each touched bucket, keeping the order of
    // the rest. They form a prefix whenever the port's ends are monotone.
    for (Slot* slot : touched_) {
      Bucket& bucket = slot->second;
      std::vector<StreamElement>& rows = bucket.rows;
      size_t kept = 0;
      size_t i = 0;
      for (; bucket.due > 0; ++i) {
        if (watermark < rows[i].interval.end) {
          if (kept != i) rows[kept] = std::move(rows[i]);
          ++kept;
          continue;
        }
        NoteStateRemove(side, rows[i]);
        --bucket.due;
      }
      rows.erase(rows.begin() + static_cast<ptrdiff_t>(kept),
                 rows.begin() + static_cast<ptrdiff_t>(i));
      // Erase by key hashes once; erase(iterator) would hash again. The key
      // lives in the erased node, which is freed only after the lookup.
      if (rows.empty()) state_[side].erase(slot->first);
    }
  }
}

size_t SymmetricHashJoin::StateElementCount() const {
  return expiry_[0].size() + expiry_[1].size();
}

Timestamp SymmetricHashJoin::MaxStateEnd() const {
  return std::max(expiry_[0].Back(), expiry_[1].Back());
}

MaterializedStream SymmetricHashJoin::ExportState(int in_port) const {
  MaterializedStream out;
  for (const auto& [key, bucket] : state_[in_port]) {
    out.insert(out.end(), bucket.rows.begin(), bucket.rows.end());
  }
  return out;
}

void SymmetricHashJoin::SeedState(int in_port,
                                  const MaterializedStream& elements) {
  for (const StreamElement& e : elements) {
    NoteStateInsert(in_port, e);
    Insert(in_port, e.tuple.field(key_field_[in_port]), e);
  }
}

}  // namespace genmig
