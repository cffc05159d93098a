// DuplicateElimination: snapshot-reducible duplicate elimination (Section
// 2.2, Examples). The output never contains two elements with identical
// tuples and intersecting validity intervals; at every snapshot the output
// is the set-projection of the input bag.
//
// Implementation: for every distinct tuple the operator keeps the disjoint,
// sorted coverage of instants already reported. An incoming element produces
// exactly the so-far-uncovered sub-intervals of its validity. A piece can
// start after the generating element's start timestamp (when a prefix is
// already covered), so pieces of different tuples may be produced out of
// order; an OrderedOutputBuffer releases them up to the input watermark.
// An ExpiryIndex entry (run end, tuple) is pushed whenever a run takes a new
// end, so a watermark advance visits only the tuples that have a run due.

#ifndef GENMIG_OPS_DEDUP_H_
#define GENMIG_OPS_DEDUP_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ops/expiry_index.h"
#include "ops/operator.h"
#include "stream/ordered_buffer.h"

namespace genmig {

class DuplicateElimination : public Operator {
 public:
  explicit DuplicateElimination(std::string name);

  size_t StateBytes() const override {
    return state_bytes_ + buffer_.PayloadBytes();
  }
  size_t StateUnits() const override {
    return state_units_ + buffer_.size();
  }
  size_t QueueDepth() const override { return buffer_.size(); }
  Timestamp MaxStateEnd() const override { return expiry_.Back(); }
  size_t CountStateWithEpochBelow(uint32_t epoch) const override;

  bool CkptStateful() const override { return true; }
  void CkptExport(StateEnc* enc) const override;
  bool CkptImport(StateDec* dec) override;

 protected:
  void OnElement(int, const StreamElement& element) override;
  void OnWatermarkAdvance() override;
  void OnAllInputsEos() override;

 private:
  struct Run {
    Timestamp end;
    uint32_t epoch = 0;  // Min epoch of the elements merged into this run.
  };
  /// Disjoint coverage per tuple: maps run start -> run, sorted by start.
  using Coverage = std::map<Timestamp, Run>;
  using CoverageMap = std::unordered_map<Tuple, Coverage, TupleHash>;
  /// A map node: its address is stable until the tuple is erased.
  using Slot = CoverageMap::value_type;

  void NoteRunInsert(uint32_t epoch) {
    ++epoch_counts_[epoch];
    MetricsStateInsert();
  }
  void NoteRunRemove(uint32_t epoch) {
    auto it = epoch_counts_.find(epoch);
    GENMIG_CHECK(it != epoch_counts_.end());
    if (--it->second == 0) epoch_counts_.erase(it);
    MetricsStateExpire();
  }

  CoverageMap coverage_;
  /// Every run's end is in here. A run absorbed by a merge leaves its entry
  /// behind; that entry's end is at most the merged run's, and popping it
  /// finds nothing due.
  ExpiryIndex<Slot*> expiry_;
  std::vector<Slot*> emptied_;  // Scratch for OnWatermarkAdvance.
  OrderedOutputBuffer buffer_;
  std::map<uint32_t, size_t> epoch_counts_;
  size_t state_bytes_ = 0;
  size_t state_units_ = 0;
};

}  // namespace genmig

#endif  // GENMIG_OPS_DEDUP_H_
