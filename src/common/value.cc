#include "common/value.h"

#include <cstdio>

namespace genmig {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

size_t Value::Hash() const {
  // Mix the type tag in so that e.g. Value(1) and Value(1.0) hash apart,
  // matching operator== which distinguishes them.
  size_t seed = static_cast<size_t>(type_) * 0x9e3779b97f4a7c15ULL;
  size_t h = 0;
  switch (type_) {
    case ValueType::kInt64:
      h = std::hash<int64_t>()(payload_.i);
      break;
    case ValueType::kDouble:
      h = std::hash<double>()(payload_.d);
      break;
    case ValueType::kString:
      h = std::hash<std::string>()(payload_.s->str);
      break;
  }
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kInt64:
      return std::to_string(payload_.i);
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", payload_.d);
      return buf;
    }
    case ValueType::kString:
      return "\"" + payload_.s->str + "\"";
  }
  return "?";
}

}  // namespace genmig
