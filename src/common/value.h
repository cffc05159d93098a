// Value: the atomic datum carried in tuple fields. A 16-byte tagged union
// over the types the CQL subset supports: a 64-bit integer, a double, or a
// pointer to an immutable, reference-counted string block. Copying a string
// Value shares its block; the count is atomic because shard threads copy
// rows.

#ifndef GENMIG_COMMON_VALUE_H_
#define GENMIG_COMMON_VALUE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/check.h"

namespace genmig {

/// Runtime type tag of a Value / schema column.
enum class ValueType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

/// Name of a ValueType ("INT", "DOUBLE", "STRING") for diagnostics.
const char* ValueTypeName(ValueType type);

/// A dynamically typed datum. Values of different types never compare equal;
/// ordering is first by type tag, then by payload, so Values can key ordered
/// containers regardless of column type mixes. Doubles compare with the
/// built-in `<` and `==` (so NaN is unequal to itself).
class Value {
 public:
  Value() { payload_.i = 0; }
  explicit Value(int64_t v) { payload_.i = v; }
  explicit Value(double v) : type_(ValueType::kDouble) { payload_.d = v; }
  explicit Value(std::string v) : type_(ValueType::kString) {
    payload_.s = new StringBlock{std::move(v)};
  }
  explicit Value(const char* v) : Value(std::string(v)) {}

  Value(const Value& other) : type_(other.type_), payload_(other.payload_) {
    Ref();
  }
  Value(Value&& other) noexcept : type_(other.type_), payload_(other.payload_) {
    other.Reset();
  }
  Value& operator=(const Value& other) {
    other.Ref();  // Before Unref, so self-assignment keeps the block alive.
    Unref();
    type_ = other.type_;
    payload_ = other.payload_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Unref();
      type_ = other.type_;
      payload_ = other.payload_;
      other.Reset();
    }
    return *this;
  }
  ~Value() { Unref(); }

  ValueType type() const { return type_; }

  bool is_int64() const { return type_ == ValueType::kInt64; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_string() const { return type_ == ValueType::kString; }

  int64_t AsInt64() const {
    GENMIG_CHECK(is_int64());
    return payload_.i;
  }
  double AsDouble() const {
    GENMIG_CHECK(is_double());
    return payload_.d;
  }
  const std::string& AsString() const {
    GENMIG_CHECK(is_string());
    return payload_.s->str;
  }

  /// Numeric view: int64 and double values as double. Aborts on strings.
  double AsNumeric() const {
    if (is_int64()) return static_cast<double>(AsInt64());
    return AsDouble();
  }

  bool operator==(const Value& other) const {
    if (type_ != other.type_) return false;
    switch (type_) {
      case ValueType::kInt64:
        return payload_.i == other.payload_.i;
      case ValueType::kDouble:
        return payload_.d == other.payload_.d;
      case ValueType::kString:
        return payload_.s == other.payload_.s ||
               payload_.s->str == other.payload_.s->str;
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const {
    if (type_ != other.type_) return type_ < other.type_;
    switch (type_) {
      case ValueType::kInt64:
        return payload_.i < other.payload_.i;
      case ValueType::kDouble:
        return payload_.d < other.payload_.d;
      case ValueType::kString:
        return payload_.s->str < other.payload_.s->str;
    }
    return false;
  }

  size_t Hash() const;

  /// Bytes of payload held by this value (used for the Figure 5 style
  /// "values only" memory accounting).
  size_t PayloadBytes() const {
    return is_string() ? payload_.s->str.size() : sizeof(int64_t);
  }

  std::string ToString() const;

 private:
  // Immutable once built; shared by every copy of the Value.
  struct StringBlock {
    std::string str;
    std::atomic<uint32_t> refs{1};
  };
  union Payload {
    int64_t i;
    double d;
    StringBlock* s;
  };

  void Ref() const {
    if (is_string()) payload_.s->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Unref() {
    if (is_string() &&
        payload_.s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete payload_.s;
    }
  }
  // Leaves a moved-from Value as int64 zero: no block to release.
  void Reset() {
    type_ = ValueType::kInt64;
    payload_.i = 0;
  }

  ValueType type_ = ValueType::kInt64;
  Payload payload_;
};

static_assert(sizeof(Value) == 16, "Value is a tag plus one 8-byte payload");

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace genmig

#endif  // GENMIG_COMMON_VALUE_H_
