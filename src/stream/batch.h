// TupleBatch: the batch envelope of the vectorized execution path. Up to a
// few hundred stream elements sharing one schema travel as a single unit in
// a structure-of-arrays layout: one Value array per column plus parallel
// t_start / t_end / epoch / ingress_ns arrays. Operators that understand
// batches (Operator::PushBatch / OnBatch) process whole arrays in tight
// loops, amortizing virtual dispatch, watermark bookkeeping, heartbeat
// cascades and queue synchronization over the batch size; operators that do
// not are fed row by row through a scalar fallback, so a batched plan is
// always exactly as correct as the scalar one (the snapshot-equivalence
// oracle checks both).
//
// Invariants mirror the physical-stream invariants of Definition 3: rows are
// non-decreasing in t_start, every interval is valid, and every row has the
// same arity (one stream = one schema).

#ifndef GENMIG_STREAM_BATCH_H_
#define GENMIG_STREAM_BATCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stream/element.h"

namespace genmig {

/// Structure-of-arrays batch of stream elements with a shared arity.
class TupleBatch {
 public:
  /// Default number of rows per batch used by batched sources, the executor
  /// and the shard router when the caller does not choose one. Large enough
  /// to amortize per-batch costs, small enough to stay cache-resident.
  static constexpr size_t kDefaultRows = 256;

  TupleBatch() = default;

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t num_columns() const { return columns_.size(); }

  /// Drops every row; the column layout (arity) is retained so the batch can
  /// be refilled without re-deriving it.
  void Clear();

  /// Reserves capacity for `rows` rows (arity is taken from the first
  /// appended row).
  void Reserve(size_t rows);

  // --- Row construction ----------------------------------------------------

  /// Appends a row by exploding `element.tuple` into the column arrays. The
  /// first row fixes the batch arity; later rows must match it.
  void Append(const StreamElement& element);

  /// Appends a row from parts without materializing a StreamElement.
  void AppendRow(const Tuple& tuple, TimeInterval interval, uint32_t epoch,
                 uint64_t ingress_ns);

  /// Appends row `row` of `other` (same arity), optionally overriding the
  /// validity interval — the Split operator's batch slicing uses this to
  /// clip straddlers at T_split without gathering tuples.
  void AppendRowFrom(const TupleBatch& other, size_t row,
                     TimeInterval interval);
  void AppendRowFrom(const TupleBatch& other, size_t row) {
    AppendRowFrom(other, row, other.interval(row));
  }

  /// Appends ALL rows of `other`, keeping only the columns listed in `cols`
  /// (in that order). Pure column-array copies — the vectorized projection
  /// path; intervals, epochs and ingress stamps ride along unchanged.
  void AppendColumnsFrom(const TupleBatch& other,
                         const std::vector<size_t>& cols);

  /// Appends the rows of `other` whose `keep` byte is non-zero, walking
  /// column-major — the vectorized selection path (one gather loop per
  /// column array instead of one scattered AppendRowFrom per survivor).
  void AppendFilteredFrom(const TupleBatch& other,
                          const std::vector<uint8_t>& keep);

  // --- Row access ----------------------------------------------------------

  const Value& at(size_t column, size_t row) const {
    return columns_[column][row];
  }
  Timestamp start(size_t row) const { return t_start_[row]; }
  Timestamp end(size_t row) const { return t_end_[row]; }
  TimeInterval interval(size_t row) const {
    return TimeInterval(t_start_[row], t_end_[row]);
  }
  uint32_t epoch(size_t row) const { return epoch_[row]; }
  uint64_t ingress_ns(size_t row) const { return ingress_ns_[row]; }

  const std::vector<Value>& column(size_t i) const { return columns_[i]; }

  /// Mutable interval access (a StatelessChain's window stage extends ends
  /// in place on its private copy).
  void set_end(size_t row, Timestamp end) { t_end_[row] = end; }
  void set_ingress_ns(size_t row, uint64_t ns) { ingress_ns_[row] = ns; }
  /// Stamps every row with lineage epoch `epoch` (the migration controller's
  /// batch path, on its private copy).
  void set_epochs(uint32_t epoch) { epoch_.assign(rows_, epoch); }

  /// Gathers row `row` into an owning Tuple (used at batch/scalar
  /// boundaries; the hot batch paths read columns directly).
  Tuple RowTuple(size_t row) const;

  /// Gathers row `row` into a full StreamElement (scalar-fallback boundary).
  StreamElement Row(size_t row) const;

  /// True iff t_start is non-decreasing over the batch (the per-port
  /// physical-stream ordering invariant, checked on ingress and egress).
  bool OrderedByStart() const;

  // --- Whole-batch conversion ---------------------------------------------

  /// Builds a batch from `count` elements of `stream` starting at `begin`.
  static TupleBatch FromStream(const MaterializedStream& stream, size_t begin,
                               size_t count);

  /// Explodes the batch back into scalar elements.
  MaterializedStream ToStream() const;

  std::string ToString() const;

 private:
  void EnsureArity(size_t arity);

  size_t rows_ = 0;
  std::vector<std::vector<Value>> columns_;  // [column][row]
  std::vector<Timestamp> t_start_;
  std::vector<Timestamp> t_end_;
  std::vector<uint32_t> epoch_;
  std::vector<uint64_t> ingress_ns_;
};

}  // namespace genmig

#endif  // GENMIG_STREAM_BATCH_H_
