// Coalesce (Algorithm 3): placed on top of the old box (input 0) and new box
// (input 1) during a GenMig migration. It inverts the effect of Split on
// stream rates: an old-box result ending exactly at T_split and a new-box
// result with an identical tuple starting exactly at T_split are merged back
// into one element with the combined interval. Coalescing has no semantic
// effect — it preserves snapshot equivalence [3] — it is purely an
// optimization (correctness proof, item 5).
//
// Internals follow the paper: two hash maps (M0 for pending old-box results,
// M1 for pending new-box results) and a heap ordered by start timestamps
// that re-establishes the physical-stream ordering of the merged output.

#ifndef GENMIG_OPS_COALESCE_H_
#define GENMIG_OPS_COALESCE_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ops/operator.h"
#include "stream/ordered_buffer.h"

namespace genmig {

class Coalesce : public Operator {
 public:
  /// Input port receiving the old box's output.
  static constexpr int kOldPort = 0;
  /// Input port receiving the new box's output.
  static constexpr int kNewPort = 1;

  Coalesce(std::string name, Timestamp t_split);

  size_t StateBytes() const override;
  size_t StateUnits() const override;
  size_t QueueDepth() const override { return heap_.size(); }

  /// Number of merges performed (old/new result pairs coalesced).
  size_t coalesced_pairs() const { return coalesced_pairs_; }

  Timestamp t_split() const { return t_split_; }

  bool CkptStateful() const override { return true; }
  void CkptExport(StateEnc* enc) const override;
  bool CkptImport(StateDec* dec) override;

 protected:
  void OnElement(int in_port, const StreamElement& element) override;
  void OnWatermarkAdvance() override;
  void OnAllInputsEos() override;
  Timestamp OutputWatermark() const override;

 private:
  using PendingMap =
      std::unordered_map<Tuple, std::vector<StreamElement>, TupleHash>;

  /// Releases every pending entry of `map` into the heap unmerged.
  void ReleaseAll(PendingMap* map);

  /// Heap release bound: no future result (including merges of pending M0
  /// entries) can start below this.
  Timestamp FlushBound() const;

  void Flush();

  const Timestamp t_split_;
  PendingMap m0_;  // Old-box results ending at T_split, awaiting a match.
  PendingMap m1_;  // New-box results starting at T_split, awaiting a match.
  /// Start timestamps of pending M0 entries; merges keep the old start, so
  /// pending old entries bound the heap release.
  std::multiset<Timestamp> m0_starts_;
  OrderedOutputBuffer heap_;
  size_t pending_bytes_ = 0;
  size_t coalesced_pairs_ = 0;
  /// Set once the new-box watermark passed T_split: no further new-box
  /// result can start at T_split, so M0 entries can never match again.
  bool new_side_past_split_ = false;
  /// Set once the old box finished: M1 entries can never match again.
  bool old_side_done_ = false;
};

}  // namespace genmig

#endif  // GENMIG_OPS_COALESCE_H_
