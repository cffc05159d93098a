#include "common/tuple.h"

#include <algorithm>

namespace genmig {

Tuple::Tuple(std::vector<Value> fields) {
  Reserve(fields.size());
  for (Value& v : fields) Emplace(std::move(v));
}

Tuple::Tuple(std::initializer_list<Value> fields) {
  Reserve(fields.size());
  AppendCopies(fields.begin(), fields.end());
}

Tuple& Tuple::operator=(const Tuple& other) {
  if (this == &other) return *this;
  // Keeps the storage when the row fits: a small row assigned over a wide
  // one stays on the wide row's block.
  Value* fields = data();
  for (uint32_t i = 0; i < size_; ++i) fields[i].~Value();
  size_ = 0;
  Reserve(other.size_);
  AppendCopies(other.begin(), other.end());
  return *this;
}

void Tuple::Grow(size_t capacity) {
  Value* block = static_cast<Value*>(::operator new(capacity * sizeof(Value)));
  Value* src = data();
  for (uint32_t i = 0; i < size_; ++i) {
    new (block + i) Value(std::move(src[i]));
    src[i].~Value();
  }
  if (on_heap()) ::operator delete(heap_);
  heap_ = block;
  capacity_ = static_cast<uint32_t>(capacity);
}

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  Tuple out;
  out.Reserve(left.size_ + right.size_);
  out.AppendCopies(left.begin(), left.end());
  out.AppendCopies(right.begin(), right.end());
  return out;
}

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  Tuple out;
  out.Reserve(indices.size());
  for (size_t i : indices) {
    const Value& v = field(i);
    out.AppendCopies(&v, &v + 1);
  }
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  return std::equal(begin(), end(), other.begin(), other.end());
}

bool Tuple::operator<(const Tuple& other) const {
  return std::lexicographical_compare(begin(), end(), other.begin(),
                                      other.end());
}

size_t Tuple::Hash() const {
  size_t h = 0x51ed270b0129ULL;
  for (const Value& v : *this) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

size_t Tuple::PayloadBytes() const {
  size_t bytes = 0;
  for (const Value& v : *this) bytes += v.PayloadBytes();
  return bytes;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (uint32_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    out += data()[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace genmig
