#include "ops/dedup.h"

namespace genmig {

DuplicateElimination::DuplicateElimination(std::string name)
    : Operator(std::move(name), 1, 1) {}

void DuplicateElimination::OnElement(int, const StreamElement& element) {
  const Timestamp s = element.interval.start;
  const Timestamp t = element.interval.end;
  Slot& slot = *coverage_.try_emplace(element.tuple).first;
  Coverage& cov = slot.second;

  // Emit the uncovered sub-intervals of [s, t), left to right.
  Timestamp cur = s;
  while (cur < t) {
    auto it = cov.upper_bound(cur);  // First run starting strictly after cur.
    if (it != cov.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > cur) {
        // cur lies inside a covered run; skip to its end.
        cur = prev->second.end;
        continue;
      }
    }
    // cur is uncovered; the gap extends to the next run's start (or t).
    Timestamp gap_end = (it == cov.end() || t < it->first) ? t : it->first;
    GENMIG_CHECK(cur < gap_end);
    buffer_.Push(StreamElement(element.tuple, TimeInterval(cur, gap_end),
                               element.epoch));
    cur = gap_end;
  }

  // Merge [s, t) into the coverage (absorbing overlapping/adjacent runs).
  Timestamp run_start = s;
  Timestamp run_end = t;
  uint32_t run_epoch = element.epoch;
  Timestamp absorbed_end = Timestamp::MinInstant();
  auto it = cov.lower_bound(s);
  if (it != cov.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end >= s) it = prev;  // Overlaps or touches on the left.
  }
  while (it != cov.end() && it->first <= run_end) {
    if (it->first < run_start) run_start = it->first;
    if (run_end < it->second.end) run_end = it->second.end;
    if (absorbed_end < it->second.end) absorbed_end = it->second.end;
    if (it->second.epoch < run_epoch) run_epoch = it->second.epoch;
    NoteRunRemove(it->second.epoch);
    it = cov.erase(it);
    --state_units_;
    state_bytes_ -= element.tuple.PayloadBytes();
  }
  cov[run_start] = Run{run_end, run_epoch};
  NoteRunInsert(run_epoch);
  ++state_units_;
  state_bytes_ += element.tuple.PayloadBytes();
  // An absorbed run that ended at run_end already has its entry.
  if (absorbed_end != run_end) expiry_.Push(run_end, &slot);
}

size_t DuplicateElimination::CountStateWithEpochBelow(uint32_t epoch) const {
  size_t count = 0;
  for (const auto& [e, n] : epoch_counts_) {
    if (e >= epoch) break;
    count += n;
  }
  return count;
}

void DuplicateElimination::OnWatermarkAdvance() {
  const Timestamp wm = MinInputWatermark();
  buffer_.FlushUpTo(wm, [this](const StreamElement& e) { Emit(0, e); });
  expiry_.PopExpired(wm, [this, wm](const auto& entry) {
    // Runs are disjoint and sorted, so expired runs form a prefix.
    Coverage& cov = entry.handle->second;
    if (cov.empty() || wm < cov.begin()->second.end) return;
    const size_t payload = entry.handle->first.PayloadBytes();
    auto run = cov.begin();
    while (run != cov.end() && run->second.end <= wm) {
      NoteRunRemove(run->second.epoch);
      run = cov.erase(run);
      --state_units_;
      state_bytes_ -= payload;
    }
    if (cov.empty()) emptied_.push_back(entry.handle);
  });
  // Erased only now: entries popped later in the same pass may still refer
  // to a tuple that ran out of runs. None is left once the pass is over,
  // since every entry ends at or before some run of its tuple.
  for (Slot* slot : emptied_) coverage_.erase(slot->first);
  emptied_.clear();
}

void DuplicateElimination::OnAllInputsEos() {
  buffer_.FlushAll([this](const StreamElement& e) { Emit(0, e); });
}

void DuplicateElimination::CkptExport(StateEnc* enc) const {
  enc->U64(coverage_.size());
  for (const auto& [tuple, cov] : coverage_) {
    enc->Tup(tuple);
    enc->U64(cov.size());
    for (const auto& [start, run] : cov) {
      enc->Ts(start);
      enc->Ts(run.end);
      enc->U32(run.epoch);
    }
  }
  buffer_.CkptExport(enc);
  enc->U64(epoch_counts_.size());
  for (const auto& [epoch, n] : epoch_counts_) {
    enc->U32(epoch);
    enc->U64(n);
  }
  enc->U64(state_bytes_);
  enc->U64(state_units_);
  // Formerly a lower bound on the run ends that gated expiry. The index is
  // rebuilt on import instead, so the slot only keeps the format unchanged.
  enc->Ts(expiry_.Front());
}

bool DuplicateElimination::CkptImport(StateDec* dec) {
  coverage_.clear();
  expiry_ = ExpiryIndex<Slot*>();
  epoch_counts_.clear();
  const uint64_t ntuples = dec->U64();
  for (uint64_t i = 0; i < ntuples && dec->ok(); ++i) {
    Tuple tuple = dec->Tup();
    Coverage cov;
    const uint64_t nruns = dec->U64();
    for (uint64_t j = 0; j < nruns && dec->ok(); ++j) {
      const Timestamp start = dec->Ts();
      Run run;
      run.end = dec->Ts();
      run.epoch = dec->U32();
      cov.emplace(start, run);
    }
    Slot& slot = *coverage_.emplace(std::move(tuple), std::move(cov)).first;
    for (const auto& [start, run] : slot.second) expiry_.Push(run.end, &slot);
  }
  if (!buffer_.CkptImport(dec)) return false;
  const uint64_t nepochs = dec->U64();
  for (uint64_t i = 0; i < nepochs && dec->ok(); ++i) {
    const uint32_t epoch = dec->U32();
    epoch_counts_[epoch] = static_cast<size_t>(dec->U64());
  }
  state_bytes_ = static_cast<size_t>(dec->U64());
  state_units_ = static_cast<size_t>(dec->U64());
  dec->Ts();  // The former expiry bound; see CkptExport.
  return dec->ok();
}

}  // namespace genmig
