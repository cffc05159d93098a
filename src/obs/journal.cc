#include "obs/journal.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/clock.h"

namespace genmig {
namespace obs {

namespace {

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0.0;  // Keep the line valid JSON.
  char buf[40];
  // Range check before the integer cast: converting a double outside
  // int64_t's range is undefined.
  if (std::fabs(v) < 9.0e15 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  *out += buf;
}

// --- Minimal JSON parser for the journal's own flat output ----------------
// Handles one object of string / number / flat-object values. Not a general
// JSON parser: arrays and nested objects beyond one level are rejected,
// which is exactly the shape ToJsonl emits.

struct Cursor {
  const char* p;
  const char* end;

  bool AtEnd() const { return p >= end; }
  void SkipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool Eat(char c) {
    SkipWs();
    if (AtEnd() || *p != c) return false;
    ++p;
    return true;
  }
  bool Peek(char c) {
    SkipWs();
    return !AtEnd() && *p == c;
  }
};

bool ParseString(Cursor* c, std::string* out) {
  if (!c->Eat('"')) return false;
  out->clear();
  while (!c->AtEnd()) {
    const char ch = *c->p++;
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c->AtEnd()) return false;
      const char esc = *c->p++;
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (c->end - c->p < 4) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *c->p++;
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The journal only ever emits \u00XX control escapes; decode the
          // BMP code point as UTF-8 for round-tripping.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return false;
      }
    } else {
      *out += ch;
    }
  }
  return false;  // Unterminated.
}

bool ParseNumber(Cursor* c, double* out) {
  c->SkipWs();
  char* endptr = nullptr;
  const double v = std::strtod(c->p, &endptr);
  if (endptr == c->p || endptr > c->end) return false;
  c->p = endptr;
  *out = v;
  return true;
}

}  // namespace

double JournalEvent::Num(const std::string& key, double fallback) const {
  for (const auto& [k, v] : nums) {
    if (k == key) return v;
  }
  return fallback;
}

std::string JournalEvent::Str(const std::string& key) const {
  for (const auto& [k, v] : strs) {
    if (k == key) return v;
  }
  return "";
}

bool JournalEvent::HasNum(const std::string& key) const {
  for (const auto& [k, v] : nums) {
    if (k == key) return true;
  }
  return false;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

uint64_t JsonU64(double v) {
  if (!(v > 0.0)) return 0;  // Negative, zero or NaN.
  if (v >= 18446744073709551616.0) return UINT64_MAX;  // 2^64.
  return static_cast<uint64_t>(v);
}

const char* JournalKindName(JournalEvent::Kind kind) {
  switch (kind) {
    case JournalEvent::Kind::kTriggerEval:
      return "trigger_eval";
    case JournalEvent::Kind::kMigrationPhase:
      return "migration_phase";
    case JournalEvent::Kind::kDisorderAdapt:
      return "disorder_adapt";
    case JournalEvent::Kind::kCheckpoint:
      return "checkpoint";
    case JournalEvent::Kind::kSample:
      return "sample";
  }
  return "unknown";
}

bool JournalKindFromName(const std::string& name, JournalEvent::Kind* out) {
  if (name == "trigger_eval") {
    *out = JournalEvent::Kind::kTriggerEval;
  } else if (name == "migration_phase") {
    *out = JournalEvent::Kind::kMigrationPhase;
  } else if (name == "disorder_adapt") {
    *out = JournalEvent::Kind::kDisorderAdapt;
  } else if (name == "checkpoint") {
    *out = JournalEvent::Kind::kCheckpoint;
  } else if (name == "sample") {
    *out = JournalEvent::Kind::kSample;
  } else {
    return false;
  }
  return true;
}

EventJournal::EventJournal(Options options) : options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (!options_.spill_path.empty()) {
    spill_ = std::fopen(options_.spill_path.c_str(), "w");
    // Line buffered so `tail -f` on the spill sees events promptly without
    // a syscall per flush on bulk appends.
    if (spill_ != nullptr) std::setvbuf(spill_, nullptr, _IOLBF, 1 << 16);
  }
}

EventJournal::~EventJournal() {
  if (spill_ != nullptr) std::fclose(spill_);
}

void EventJournal::Append(JournalEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = total_++;
  if (event.wall_ns == 0) event.wall_ns = MonotonicNowNs();
  if (spill_ != nullptr) {
    const std::string line = ToJsonl(event);
    std::fwrite(line.data(), 1, line.size(), spill_);
    std::fputc('\n', spill_);
  }
  ring_.push_back(std::move(event));
  while (ring_.size() > options_.capacity) ring_.pop_front();
}

std::vector<JournalEvent> EventJournal::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<JournalEvent>(ring_.begin(), ring_.end());
}

std::vector<JournalEvent> EventJournal::SnapshotKind(
    JournalEvent::Kind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JournalEvent> out;
  for (const JournalEvent& e : ring_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

uint64_t EventJournal::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

size_t EventJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void EventJournal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (spill_ != nullptr) std::fflush(spill_);
}

std::string EventJournal::ToJsonl(const JournalEvent& event) {
  std::string out;
  out.reserve(192);
  out += "{\"seq\":";
  AppendNumber(&out, static_cast<double>(event.seq));
  out += ",\"kind\":\"";
  out += JournalKindName(event.kind);
  out += "\",\"wall_ns\":";
  AppendNumber(&out, static_cast<double>(event.wall_ns));
  out += ",\"app_t\":";
  AppendNumber(&out, static_cast<double>(event.app_time.t));
  out += ",\"app_eps\":";
  AppendNumber(&out, static_cast<double>(event.app_time.eps));
  out += ",\"subject\":";
  AppendJsonString(&out, event.subject);
  out += ",\"num\":{";
  bool first = true;
  for (const auto& [k, v] : event.nums) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, k);
    out += ':';
    AppendNumber(&out, v);
  }
  out += "},\"str\":{";
  first = true;
  for (const auto& [k, v] : event.strs) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, k);
    out += ':';
    AppendJsonString(&out, v);
  }
  out += "}}";
  return out;
}

bool EventJournal::FromJsonl(const std::string& line, JournalEvent* out) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.Eat('{')) return false;
  *out = JournalEvent{};
  bool saw_kind = false;
  if (!c.Peek('}')) {
    do {
      std::string key;
      if (!ParseString(&c, &key)) return false;
      if (!c.Eat(':')) return false;
      if (key == "num" || key == "str") {
        if (!c.Eat('{')) return false;
        if (!c.Peek('}')) {
          do {
            std::string sub;
            if (!ParseString(&c, &sub)) return false;
            if (!c.Eat(':')) return false;
            if (key == "num") {
              double v = 0;
              if (!ParseNumber(&c, &v)) return false;
              out->nums.emplace_back(std::move(sub), v);
            } else {
              std::string v;
              if (!ParseString(&c, &v)) return false;
              out->strs.emplace_back(std::move(sub), std::move(v));
            }
          } while (c.Eat(','));
        }
        if (!c.Eat('}')) return false;
      } else if (key == "kind" || key == "subject") {
        std::string v;
        if (!ParseString(&c, &v)) return false;
        if (key == "kind") {
          if (!JournalKindFromName(v, &out->kind)) return false;
          saw_kind = true;
        } else {
          out->subject = std::move(v);
        }
      } else {
        double v = 0;
        if (!ParseNumber(&c, &v)) return false;
        if (key == "seq") {
          out->seq = JsonU64(v);
        } else if (key == "wall_ns") {
          out->wall_ns = JsonU64(v);
        } else if (key == "app_t") {
          // Clamped: casting an out-of-range double is undefined.
          const double t = std::isfinite(v) ? std::clamp(v, -9.2e18, 9.2e18)
                                            : 0.0;
          out->app_time.t = static_cast<int64_t>(t);
        } else if (key == "app_eps") {
          out->app_time.eps = static_cast<uint32_t>(
              std::min<uint64_t>(JsonU64(v), UINT32_MAX));
        }  // Unknown numeric keys are ignored (forward compatibility).
      }
    } while (c.Eat(','));
  }
  if (!c.Eat('}')) return false;
  c.SkipWs();
  return saw_kind && c.AtEnd();
}

std::vector<JournalEvent> EventJournal::ParseJsonl(const std::string& text,
                                                   bool strict, bool* ok) {
  std::vector<JournalEvent> out;
  if (ok != nullptr) *ok = true;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    bool blank = true;
    for (const char ch : line) {
      if (!std::isspace(static_cast<unsigned char>(ch))) {
        blank = false;
        break;
      }
    }
    if (blank) {
      if (eol == text.size()) break;
      continue;
    }
    JournalEvent e;
    if (FromJsonl(line, &e)) {
      out.push_back(std::move(e));
    } else if (strict) {
      // Strict callers (replay tests) want the failure surfaced; lenient
      // callers just skip truncated or foreign lines.
      if (ok != nullptr) *ok = false;
      return out;
    }
    if (eol == text.size()) break;
  }
  return out;
}

}  // namespace obs
}  // namespace genmig
