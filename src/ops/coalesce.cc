#include "ops/coalesce.h"

#include <algorithm>

namespace genmig {

Coalesce::Coalesce(std::string name, Timestamp t_split)
    : Operator(std::move(name), 2, 1), t_split_(t_split) {
  GENMIG_CHECK_GT(t_split.eps, 0u);
}

size_t Coalesce::StateBytes() const {
  return heap_.PayloadBytes() + pending_bytes_;
}

size_t Coalesce::StateUnits() const {
  return heap_.size() + m0_starts_.size() + m1_.size();
}

void Coalesce::OnElement(int in_port, const StreamElement& element) {
  const TimeInterval& iv = element.interval;
  if (in_port == kOldPort) {
    // Lemma 1 (item 3): the old box never references a snapshot >= T_split.
    GENMIG_CHECK(iv.end <= t_split_);
    if (iv.end < t_split_) {
      heap_.Push(element);
      return;
    }
    // Ends exactly at T_split: try to merge with a pending new-box result.
    auto it = m1_.find(element.tuple);
    if (it != m1_.end() && !it->second.empty()) {
      StreamElement other = it->second.back();
      it->second.pop_back();
      if (it->second.empty()) m1_.erase(it);
      pending_bytes_ -= element.tuple.PayloadBytes();
      ++coalesced_pairs_;
      MetricsStateExpire();
      heap_.Push(StreamElement(element.tuple,
                               TimeInterval(iv.start, other.interval.end),
                               std::min(element.epoch, other.epoch)));
      return;
    }
    if (new_side_past_split_ || input_eos(kNewPort)) {
      // No matching new-box result can arrive any more.
      heap_.Push(element);
      return;
    }
    pending_bytes_ += element.tuple.PayloadBytes();
    m0_[element.tuple].push_back(element);
    m0_starts_.insert(iv.start);
    MetricsStateInsert();
    return;
  }

  // New-box side.
  GENMIG_CHECK(iv.start >= t_split_);
  if (iv.start > t_split_) {
    heap_.Push(element);
    return;
  }
  // Starts exactly at T_split: try to merge with a pending old-box result.
  auto it = m0_.find(element.tuple);
  if (it != m0_.end() && !it->second.empty()) {
    StreamElement other = it->second.back();
    it->second.pop_back();
    if (it->second.empty()) m0_.erase(it);
    auto start_it = m0_starts_.find(other.interval.start);
    GENMIG_CHECK(start_it != m0_starts_.end());
    m0_starts_.erase(start_it);
    pending_bytes_ -= element.tuple.PayloadBytes();
    ++coalesced_pairs_;
    MetricsStateExpire();
    heap_.Push(StreamElement(element.tuple,
                             TimeInterval(other.interval.start, iv.end),
                             std::min(element.epoch, other.epoch)));
    return;
  }
  if (old_side_done_ || input_eos(kOldPort)) {
    heap_.Push(element);
    return;
  }
  pending_bytes_ += element.tuple.PayloadBytes();
  m1_[element.tuple].push_back(element);
  MetricsStateInsert();
}

void Coalesce::ReleaseAll(PendingMap* map) {
  for (auto& [tuple, elements] : *map) {
    for (const StreamElement& e : elements) {
      pending_bytes_ -= tuple.PayloadBytes();
      MetricsStateExpire();
      heap_.Push(e);
    }
  }
  map->clear();
}

Timestamp Coalesce::FlushBound() const {
  Timestamp bound = MinInputWatermark();
  if (!m0_starts_.empty() && *m0_starts_.begin() < bound) {
    bound = *m0_starts_.begin();
  }
  return bound;
}

void Coalesce::Flush() {
  heap_.FlushUpTo(FlushBound(),
                  [this](const StreamElement& e) { Emit(0, e); });
}

void Coalesce::OnWatermarkAdvance() {
  if (!new_side_past_split_ && input_watermark(kNewPort) > t_split_) {
    new_side_past_split_ = true;
    ReleaseAll(&m0_);
    m0_starts_.clear();
  }
  if (!old_side_done_ && input_eos(kOldPort)) {
    old_side_done_ = true;
    ReleaseAll(&m1_);
  }
  Flush();
}

void Coalesce::OnAllInputsEos() {
  ReleaseAll(&m0_);
  m0_starts_.clear();
  ReleaseAll(&m1_);
  heap_.FlushAll([this](const StreamElement& e) { Emit(0, e); });
}

Timestamp Coalesce::OutputWatermark() const { return FlushBound(); }

namespace {

void EncodePendingMap(
    StateEnc* enc,
    const std::unordered_map<Tuple, std::vector<StreamElement>, TupleHash>&
        map) {
  enc->U64(map.size());
  for (const auto& [tuple, elems] : map) {
    enc->Tup(tuple);
    enc->U64(elems.size());
    for (const StreamElement& e : elems) enc->Elem(e);
  }
}

bool DecodePendingMap(
    StateDec* dec,
    std::unordered_map<Tuple, std::vector<StreamElement>, TupleHash>* map) {
  map->clear();
  const uint64_t ntuples = dec->U64();
  for (uint64_t i = 0; i < ntuples && dec->ok(); ++i) {
    Tuple tuple = dec->Tup();
    std::vector<StreamElement> elems;
    const uint64_t n = dec->U64();
    for (uint64_t j = 0; j < n && dec->ok(); ++j) {
      elems.push_back(dec->Elem());
    }
    map->emplace(std::move(tuple), std::move(elems));
  }
  return dec->ok();
}

}  // namespace

void Coalesce::CkptExport(StateEnc* enc) const {
  enc->Ts(t_split_);
  EncodePendingMap(enc, m0_);
  EncodePendingMap(enc, m1_);
  heap_.CkptExport(enc);
  enc->U64(pending_bytes_);
  enc->U64(coalesced_pairs_);
  enc->Bool(new_side_past_split_);
  enc->Bool(old_side_done_);
}

bool Coalesce::CkptImport(StateDec* dec) {
  // T_split is a construction parameter; refuse blobs of another migration.
  if (!(dec->Ts() == t_split_)) return false;
  if (!DecodePendingMap(dec, &m0_)) return false;
  if (!DecodePendingMap(dec, &m1_)) return false;
  // m0_starts_ mirrors the start timestamps of pending M0 entries.
  m0_starts_.clear();
  for (const auto& [tuple, elems] : m0_) {
    for (const StreamElement& e : elems) m0_starts_.insert(e.interval.start);
  }
  if (!heap_.CkptImport(dec)) return false;
  pending_bytes_ = static_cast<size_t>(dec->U64());
  coalesced_pairs_ = static_cast<size_t>(dec->U64());
  new_side_past_split_ = dec->Bool();
  old_side_done_ = dec->Bool();
  return dec->ok();
}

}  // namespace genmig
