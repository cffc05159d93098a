#include "stream/state_codec.h"

#include <cstring>

namespace genmig {

// --- StateEnc ---------------------------------------------------------------

void StateEnc::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void StateEnc::Str(std::string_view s) {
  U64(s.size());
  out_.append(s.data(), s.size());
}

void StateEnc::Val(const Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kInt64:
      I64(v.AsInt64());
      break;
    case ValueType::kDouble:
      F64(v.AsDouble());
      break;
    case ValueType::kString:
      Str(v.AsString());
      break;
  }
}

void StateEnc::Tup(const Tuple& t) {
  U64(t.size());
  for (const Value& v : t) Val(v);
}

void StateEnc::Elem(const StreamElement& e) {
  Tup(e.tuple);
  Ts(e.interval.start);
  Ts(e.interval.end);
  U32(e.epoch);
  // ingress_ns is transient observability metadata: a restored element is no
  // longer the same wall-clock object, so the stamp is dropped on purpose.
}

void StateEnc::Stream(const MaterializedStream& s) {
  U64(s.size());
  for (const StreamElement& e : s) Elem(e);
}

// --- StateDec ---------------------------------------------------------------

bool StateDec::Take(size_t n, const char** out) {
  if (!ok_ || in_.size() - pos_ < n) {
    Fail();
    return false;
  }
  *out = in_.data() + pos_;
  pos_ += n;
  return true;
}

uint8_t StateDec::U8() {
  const char* p = nullptr;
  if (!Take(1, &p)) return 0;
  return static_cast<uint8_t>(*p);
}

uint32_t StateDec::U32() {
  const char* p = nullptr;
  if (!Take(4, &p)) return 0;
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t StateDec::U64() {
  const char* p = nullptr;
  if (!Take(8, &p)) return 0;
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

double StateDec::F64() {
  const uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0;
}

std::string StateDec::Str() {
  const uint64_t n = U64();
  if (!ok_ || in_.size() - pos_ < n) {
    Fail();
    return std::string();
  }
  const char* p = nullptr;
  Take(static_cast<size_t>(n), &p);
  return std::string(p, static_cast<size_t>(n));
}

Value StateDec::Val() {
  const uint8_t tag = U8();
  switch (tag) {
    case static_cast<uint8_t>(ValueType::kInt64):
      return Value(I64());
    case static_cast<uint8_t>(ValueType::kDouble):
      return Value(F64());
    case static_cast<uint8_t>(ValueType::kString):
      return Value(Str());
    default:
      Fail();
      return Value();
  }
}

Tuple StateDec::Tup() {
  const uint64_t n = U64();
  // A field costs at least one tag byte; reject sizes the blob cannot hold
  // before reserving (corrupt length fields must not balloon memory).
  if (!ok_ || n > in_.size() - pos_) {
    Fail();
    return Tuple();
  }
  std::vector<Value> fields;
  fields.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n && ok_; ++i) fields.push_back(Val());
  return ok_ ? Tuple(std::move(fields)) : Tuple();
}

StreamElement StateDec::Elem() {
  StreamElement e;
  e.tuple = Tup();
  e.interval.start = Ts();
  e.interval.end = Ts();
  e.epoch = U32();
  return ok_ ? e : StreamElement();
}

MaterializedStream StateDec::Stream() {
  const uint64_t n = U64();
  if (!ok_ || n > in_.size() - pos_) {
    Fail();
    return MaterializedStream();
  }
  MaterializedStream s;
  s.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n && ok_; ++i) s.push_back(Elem());
  return ok_ ? std::move(s) : MaterializedStream();
}

}  // namespace genmig
