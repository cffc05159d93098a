// Snapshot-reducible binary joins (Section 2.2, Examples). A result is
// produced when (a) the join predicate holds for the two tuples and (b) the
// validity intervals intersect; the result carries the intersection.
//
// Both implementations are symmetric: each input element probes the opposite
// state and is then inserted into its own state. State entries expire once
// the minimum input watermark passes their end timestamp ("Temporal
// Expiration"): no future element's interval can overlap them. Each side
// finds its expired entries through an ExpiryIndex, and removing them keeps
// the probe order of the rest. Because raw result production is not globally
// ordered when inputs are mutually unsynchronized, results are staged in an
// OrderedOutputBuffer released up to the minimum input watermark.

#ifndef GENMIG_OPS_JOIN_H_
#define GENMIG_OPS_JOIN_H_

#include <functional>
#include <list>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ops/expiry_index.h"
#include "ops/operator.h"
#include "stream/ordered_buffer.h"

namespace genmig {

/// Base with the shared buffering/expiration machinery.
class JoinBase : public Operator {
 public:
  size_t StateBytes() const override;
  size_t StateUnits() const override;
  size_t QueueDepth() const override { return buffer_.size(); }
  size_t CountStateWithEpochBelow(uint32_t epoch) const override;
  Timestamp MaxInsertedStartWithEpochBelow(uint32_t epoch) const override;

  /// Moving-States support: bulk-loads `elements` into the state of input
  /// `in_port` without producing results. Precondition: the elements respect
  /// this port's watermark.
  virtual void SeedState(int in_port, const MaterializedStream& elements) = 0;

  /// Moving-States support: copies the current (unexpired) state of input
  /// `in_port`, in no particular order.
  virtual MaterializedStream ExportState(int in_port) const = 0;

  // Checkpointing rides on the Moving-States hooks, so every JoinBase
  // subclass is covered by this one implementation.
  bool CkptStateful() const override { return true; }
  void CkptExport(StateEnc* enc) const override;
  bool CkptImport(StateDec* dec) override;

 protected:
  JoinBase(std::string name) : Operator(std::move(name), 2, 1) {}

  void OnWatermarkAdvance() override;
  void OnAllInputsEos() override;

  /// Once a join has seen one batched push it releases the ordered buffer in
  /// batches too (same elements, same order — only the push granularity
  /// downstream changes). Purely-scalar plans keep per-element emission, so
  /// the scalar baseline pays no batching overhead.
  void EnterBatchMode() { batch_mode_ = true; }

  /// Drops expired entries from both states.
  virtual void ExpireStates(Timestamp watermark) = 0;
  virtual size_t StateElementCount() const = 0;

  /// Emits (via the ordered buffer) the join of `probe` (arriving on
  /// `probe_port`) with a matching state entry `stored`.
  void EmitJoined(int probe_port, const StreamElement& probe,
                  const StreamElement& stored);

  /// Tracks a state entry's payload bytes and lineage epoch (for PT end
  /// detection).
  void NoteStateInsert(int side, const StreamElement& element) {
    state_bytes_[side] += element.PayloadBytes();
    ++epoch_counts_[side][element.epoch];
    Timestamp& hwm = insert_start_hwm_[element.epoch];
    if (hwm < element.interval.start) hwm = element.interval.start;
    MetricsStateInsert();
  }
  /// Batch form of NoteStateInsert: one map update per run of equal epochs
  /// instead of two per row. Starts are non-decreasing within a batch, so
  /// the last row of a run carries the run's start high-water mark.
  /// `payload_bytes` is the batch's total, which the caller sums as it
  /// inserts the rows.
  void NoteStateInsertBatch(int side, const TupleBatch& batch,
                            size_t payload_bytes) {
    state_bytes_[side] += payload_bytes;
    size_t i = 0;
    while (i < batch.size()) {
      const uint32_t e = batch.epoch(i);
      size_t j = i + 1;
      while (j < batch.size() && batch.epoch(j) == e) ++j;
      epoch_counts_[side][e] += j - i;
      Timestamp& hwm = insert_start_hwm_[e];
      if (hwm < batch.start(j - 1)) hwm = batch.start(j - 1);
      i = j;
    }
    MetricsStateInsert(batch.size());
  }

  void NoteStateRemove(int side, const StreamElement& element) {
    state_bytes_[side] -= element.PayloadBytes();
    auto it = epoch_counts_[side].find(element.epoch);
    GENMIG_CHECK(it != epoch_counts_[side].end());
    if (--it->second == 0) epoch_counts_[side].erase(it);
    MetricsStateExpire();
  }

  OrderedOutputBuffer buffer_;
  size_t state_bytes_[2] = {0, 0};
  std::map<uint32_t, size_t> epoch_counts_[2];
  std::map<uint32_t, Timestamp> insert_start_hwm_;

 private:
  bool batch_mode_ = false;
  TupleBatch flush_batch_;  // Scratch for the batched buffer release.
};

/// Nested-loops join with an arbitrary predicate over (left, right) tuples —
/// the join used in the paper's 4-way join experiments. An optional
/// `predicate_cost` busy-loop simulates "a more expensive join predicate"
/// (Section 5, second experiment).
class NestedLoopsJoin : public JoinBase {
 public:
  using Predicate = std::function<bool(const Tuple&, const Tuple&)>;

  NestedLoopsJoin(std::string name, Predicate predicate,
                  int predicate_cost = 0);

  Timestamp MaxStateEnd() const override;
  void SeedState(int in_port, const MaterializedStream& elements) override;
  MaterializedStream ExportState(int in_port) const override;

 protected:
  void OnElement(int in_port, const StreamElement& element) override;
  void OnBatch(int in_port, const TupleBatch& batch) override;
  void ExpireStates(Timestamp watermark) override;
  size_t StateElementCount() const override;

 private:
  using State = std::list<StreamElement>;

  bool Matches(const Tuple& left, const Tuple& right) const;
  /// Appends to one side's state (NoteStateInsert* is the caller's).
  void Insert(int side, StreamElement element);

  Predicate predicate_;
  int predicate_cost_;
  /// Insertion order is the probe order; a list keeps it when an expired
  /// entry leaves from the middle (ends that arrive out of order).
  State state_[2];
  ExpiryIndex<State::iterator> expiry_[2];
};

/// Hash-based equi-join on one key column per side.
class SymmetricHashJoin : public JoinBase {
 public:
  SymmetricHashJoin(std::string name, size_t left_key_field,
                    size_t right_key_field);

  Timestamp MaxStateEnd() const override;
  void SeedState(int in_port, const MaterializedStream& elements) override;
  MaterializedStream ExportState(int in_port) const override;

 protected:
  void OnElement(int in_port, const StreamElement& element) override;
  void OnBatch(int in_port, const TupleBatch& batch) override;
  void ExpireStates(Timestamp watermark) override;
  size_t StateElementCount() const override;

 private:
  /// One key's state entries in insertion (= probe) order. `due` counts the
  /// entries an expiry pass found expired and has not removed yet.
  struct Bucket {
    std::vector<StreamElement> rows;
    size_t due = 0;
  };
  using State = std::unordered_map<Value, Bucket, ValueHash>;
  /// A map node: its address is stable until the key is erased, so the
  /// expiry index refers to buckets without copying keys.
  using Slot = State::value_type;

  /// Appends to one side's state (NoteStateInsert* is the caller's).
  void Insert(int side, const Value& key, StreamElement element);

  size_t key_field_[2];
  State state_[2];
  ExpiryIndex<Slot*> expiry_[2];
  std::vector<Slot*> touched_;  // Scratch for ExpireStates.
};

}  // namespace genmig

#endif  // GENMIG_OPS_JOIN_H_
