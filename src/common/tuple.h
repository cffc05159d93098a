// Tuple: an ordered list of Values. Tuples are the payload of stream
// elements; equality/hashing over full tuples drives duplicate elimination,
// coalescing, and grouping.
//
// Layout: a 40-byte row that keeps up to kInlineFields Values in place and
// moves wider rows (a join's concatenation before its projection, a 3-way
// join's results) to one heap block sized to fit. Two inline fields keep
// StreamElement at 88 bytes; see DESIGN.md "Row layout" for why not four.

#ifndef GENMIG_COMMON_TUPLE_H_
#define GENMIG_COMMON_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <vector>

#include "common/value.h"

namespace genmig {

/// A row of dynamically typed fields.
class Tuple {
 public:
  static constexpr uint32_t kInlineFields = 2;

  Tuple() {}
  explicit Tuple(std::vector<Value> fields);
  Tuple(std::initializer_list<Value> fields);

  Tuple(const Tuple& other) {
    Reserve(other.size_);
    AppendCopies(other.begin(), other.end());
  }
  Tuple(Tuple&& other) noexcept { StealFrom(other); }
  Tuple& operator=(const Tuple& other);
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }
  ~Tuple() { Release(); }

  /// Convenience constructor for all-integer tuples (the synthetic workloads
  /// of Section 5 are streams of random integers).
  static Tuple OfInts(std::initializer_list<int64_t> ints) {
    Tuple t;
    t.Reserve(ints.size());
    for (int64_t v : ints) t.Emplace(v);
    return t;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Value& field(size_t i) const {
    GENMIG_CHECK_LT(i, size_);
    return data()[i];
  }
  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size_; }

  /// Makes room for `fields` fields in total, so appending up to that many
  /// allocates at most once.
  void Reserve(size_t fields) {
    if (fields > capacity_) Grow(fields);
  }

  void Append(Value v) { Emplace(std::move(v)); }
  /// Appends a field constructed in place from `arg` (int64_t, double or
  /// string), without a Value temporary to move.
  template <typename T>
  void Emplace(T arg) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    new (data() + size_) Value(std::move(arg));
    ++size_;
  }

  /// Concatenation, used by joins to build output rows.
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Projection onto the given field indices (in the given order).
  Tuple Project(const std::vector<size_t>& indices) const;

  bool operator==(const Tuple& other) const;
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const;

  size_t Hash() const;

  /// Bytes of value payload in this tuple (Figure 5 memory accounting).
  size_t PayloadBytes() const;

  std::string ToString() const;

 private:
  bool on_heap() const { return capacity_ > kInlineFields; }
  Value* data() { return on_heap() ? heap_ : inline_; }
  const Value* data() const { return on_heap() ? heap_ : inline_; }

  // Copies [first, last) after the fields; the storage must have room.
  void AppendCopies(const Value* first, const Value* last) {
    Value* dst = data() + size_;
    for (; first != last; ++first, ++dst, ++size_) new (dst) Value(*first);
  }
  // Moves the fields into a heap block of `capacity` Values.
  void Grow(size_t capacity);
  // Destroys the fields and frees the heap block, if any. Inline: rows are
  // moved far more often than built (heaps and buffers of elements), and
  // each move destroys an emptied row.
  void Release() {
    Value* fields = data();
    for (uint32_t i = 0; i < size_; ++i) fields[i].~Value();
    if (on_heap()) ::operator delete(heap_);
    size_ = 0;
    capacity_ = kInlineFields;
  }
  // Takes `other`'s fields and leaves it an empty inline row. `this` holds
  // no fields on entry.
  void StealFrom(Tuple& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      for (uint32_t i = 0; i < other.size_; ++i) {
        new (inline_ + i) Value(std::move(other.inline_[i]));
        other.inline_[i].~Value();
      }
    }
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.size_ = 0;
    other.capacity_ = kInlineFields;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineFields;
  union {
    Value* heap_;
    Value inline_[kInlineFields];
  };
};

static_assert(sizeof(Tuple) == 40, "Tuple keeps two 16-byte Values inline");

/// Hash functor for unordered containers keyed by Tuple.
struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace genmig

#endif  // GENMIG_COMMON_TUPLE_H_
