// Exporter contracts: ToJson / ToChromeTrace emit well-formed JSON, the
// Chrome trace carries one phase span per consecutive migration event pair
// with contained (nested) timestamps plus counter tracks from the timeline.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace genmig {
namespace {

using obs::MetricsRegistry;
using obs::MigrationEvent;
using obs::MigrationTracer;
using obs::TimelineSampler;

// --- Minimal recursive-descent JSON validator -------------------------------
// Deliberately strict subset (objects, arrays, strings, numbers, booleans,
// null; no duplicate-key or depth checks): enough to prove the exporters
// never emit a structurally broken document.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Raw control character inside a string.
      }
      ++pos_;
    }
    return false;  // Unterminated.
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               s_[pos_ - 1]));
  }

  bool Literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// A registry + journal with one full GenMig event sequence and a few
/// timeline samples, synthesized without running a plan.
struct Fixture {
  MetricsRegistry registry;
  obs::EventJournal journal;
  MigrationTracer tracer{&journal};

  Fixture() {
    obs::OperatorMetrics* join = registry.Register("join");
    join->elements_in = 200;
    join->elements_out = 120;
    join->push_ns.Record(500);
    obs::OperatorMetrics* sink = registry.Register("sink");
    sink->elements_in = 120;
    for (int i = 0; i < 10; ++i) sink->e2e_ns.Record(1000 + 100 * i);

    const int id = tracer.BeginMigration("genmig_coalesce", Timestamp(100));
    tracer.Record(id, MigrationEvent::kSplitInstalled, Timestamp(101),
                  "t_split=171");
    tracer.Record(id, MigrationEvent::kOldBoxDrained, Timestamp(160));
    tracer.Record(id, MigrationEvent::kCoalesceDone, Timestamp(171));
    tracer.Record(id, MigrationEvent::kReferencePointSwitch, Timestamp(171));
    tracer.Record(id, MigrationEvent::kCompleted, Timestamp(171));

    TimelineSampler sampler(&registry, &journal);
    sampler.Sample(Timestamp(50), false);
    for (int i = 0; i < 5; ++i) sink->e2e_ns.Record(1 << 16);
    sampler.Sample(Timestamp(150), true);
    sampler.Sample(Timestamp(200), false);
  }
};

TEST(ExportTest, ToJsonIsValidJson) {
  Fixture f;
  const std::string json = obs::ToJson(f.registry, &f.journal);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"e2e_ns\""), std::string::npos);
}

TEST(ExportTest, ChromeTraceIsValidJsonWithPhaseSpans) {
  Fixture f;
  const std::string trace = obs::ToChromeTrace(f.registry, &f.journal);
  EXPECT_TRUE(JsonValidator(trace).Valid()) << trace;

  // Envelope Perfetto understands.
  EXPECT_NE(trace.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  // 6 trace records -> 1 enclosing migration span + 5 phase spans + 6
  // instants. Complete events are "ph": "X".
  EXPECT_EQ(CountOccurrences(trace, "\"cat\": \"migration-phase\""), 5u);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\": \"i\""), 6u);
  EXPECT_NE(trace.find("requested→split_installed"), std::string::npos);
  EXPECT_NE(trace.find("reference_point_switch→completed"),
            std::string::npos);

  // Counter tracks from the timeline: sink e2e latency (only the two samples
  // with stamped traffic), queue depth and migration flag for all three.
  EXPECT_EQ(CountOccurrences(trace, "\"name\": \"sink_e2e_ns\""), 2u);
  EXPECT_EQ(CountOccurrences(trace, "\"name\": \"queue_depth\""), 3u);
  EXPECT_EQ(CountOccurrences(trace, "\"name\": \"migration_active\""), 3u);
}

TEST(ExportTest, ChromeTracePhaseSpansNestInsideMigrationSpan) {
  Fixture f;
  const std::string trace = obs::ToChromeTrace(f.registry, &f.journal);
  EXPECT_TRUE(JsonValidator(trace).Valid()) << trace;

  // Extract every complete event's ts and dur, in emission order: the first
  // is the enclosing migration span; each phase span must be contained in it
  // and start no earlier than its predecessor (records are chronological).
  std::vector<std::pair<double, double>> spans;  // (ts, dur)
  size_t pos = 0;
  while ((pos = trace.find("\"ph\": \"X\"", pos)) != std::string::npos) {
    const size_t ts_pos = trace.find("\"ts\": ", pos);
    const size_t dur_pos = trace.find("\"dur\": ", pos);
    ASSERT_NE(ts_pos, std::string::npos);
    ASSERT_NE(dur_pos, std::string::npos);
    spans.emplace_back(std::stod(trace.substr(ts_pos + 6)),
                       std::stod(trace.substr(dur_pos + 7)));
    pos = dur_pos;
  }
  ASSERT_EQ(spans.size(), 6u);  // 1 migration + 5 phases.
  const double outer_start = spans[0].first;
  const double outer_end = spans[0].first + spans[0].second;
  double prev_start = outer_start;
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].first, outer_start);
    EXPECT_LE(spans[i].first + spans[i].second, outer_end + 1e-6);
    EXPECT_GE(spans[i].first, prev_start);  // Monotone emission.
    prev_start = spans[i].first;
  }
}

TEST(ExportTest, ChromeTraceIsDeterministicForSameInput) {
  Fixture f;
  const std::string a = obs::ToChromeTrace(f.registry, &f.journal);
  const std::string b = obs::ToChromeTrace(f.registry, &f.journal);
  EXPECT_EQ(a, b);
}

TEST(ExportTest, ChromeTraceWithoutInputsIsStillValid) {
  MetricsRegistry registry;
  const std::string trace = obs::ToChromeTrace(registry, nullptr);
  EXPECT_TRUE(JsonValidator(trace).Valid()) << trace;
}

}  // namespace
}  // namespace genmig
