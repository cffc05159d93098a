// Tuple: an ordered list of Values. Tuples are the payload of stream
// elements; equality/hashing over full tuples drives duplicate elimination,
// coalescing, and grouping.

#ifndef GENMIG_COMMON_TUPLE_H_
#define GENMIG_COMMON_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/value.h"

namespace genmig {

/// A row of dynamically typed fields.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> fields) : fields_(std::move(fields)) {}
  Tuple(std::initializer_list<Value> fields) : fields_(fields) {}

  /// Convenience constructor for all-integer tuples (the synthetic workloads
  /// of Section 5 are streams of random integers).
  static Tuple OfInts(std::initializer_list<int64_t> ints) {
    std::vector<Value> fields;
    fields.reserve(ints.size());
    for (int64_t v : ints) fields.emplace_back(v);
    return Tuple(std::move(fields));
  }

  size_t size() const { return fields_.size(); }
  bool empty() const { return fields_.empty(); }

  const Value& field(size_t i) const {
    GENMIG_CHECK_LT(i, fields_.size());
    return fields_[i];
  }
  const std::vector<Value>& fields() const { return fields_; }

  void Append(Value v) { fields_.push_back(std::move(v)); }
  /// Appends a field constructed in place from `arg` (int64_t, double or
  /// string), without a Value temporary to move.
  template <typename T>
  void Emplace(T arg) {
    fields_.emplace_back(std::move(arg));
  }

  /// Concatenation, used by joins to build output rows.
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Projection onto the given field indices (in the given order).
  Tuple Project(const std::vector<size_t>& indices) const;

  bool operator==(const Tuple& other) const {
    return fields_ == other.fields_;
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const {
    return fields_ < other.fields_;
  }

  size_t Hash() const;

  /// Bytes of value payload in this tuple (Figure 5 memory accounting).
  size_t PayloadBytes() const;

  std::string ToString() const;

 private:
  std::vector<Value> fields_;
};

/// Hash functor for unordered containers keyed by Tuple.
struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace genmig

#endif  // GENMIG_COMMON_TUPLE_H_
