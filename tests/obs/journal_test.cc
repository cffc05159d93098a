#include "obs/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace genmig {
namespace obs {
namespace {

JournalEvent MakeEvent(JournalEvent::Kind kind, uint64_t mark) {
  JournalEvent ev;
  ev.kind = kind;
  ev.app_time = Timestamp(static_cast<int64_t>(mark), 0);
  ev.subject = "subject" + std::to_string(mark);
  ev.nums.emplace_back("mark", static_cast<double>(mark));
  ev.strs.emplace_back("note", "n" + std::to_string(mark));
  return ev;
}

TEST(JournalEventTest, PayloadAccessors) {
  JournalEvent ev;
  ev.nums.emplace_back("ratio", 1.5);
  ev.strs.emplace_back("policy", "cost_ratio");
  EXPECT_DOUBLE_EQ(ev.Num("ratio"), 1.5);
  EXPECT_DOUBLE_EQ(ev.Num("missing", -7.0), -7.0);
  EXPECT_TRUE(ev.HasNum("ratio"));
  EXPECT_FALSE(ev.HasNum("missing"));
  EXPECT_EQ(ev.Str("policy"), "cost_ratio");
  EXPECT_EQ(ev.Str("missing"), "");
}

TEST(JournalEventTest, KindNamesRoundTrip) {
  for (JournalEvent::Kind kind :
       {JournalEvent::Kind::kTriggerEval, JournalEvent::Kind::kMigrationPhase,
        JournalEvent::Kind::kDisorderAdapt, JournalEvent::Kind::kCheckpoint,
        JournalEvent::Kind::kSample}) {
    JournalEvent::Kind parsed;
    ASSERT_TRUE(JournalKindFromName(JournalKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  JournalEvent::Kind parsed;
  EXPECT_FALSE(JournalKindFromName("definitely_not_a_kind", &parsed));
  EXPECT_FALSE(JournalKindFromName("", &parsed));
}

TEST(JournalTest, AppendStampsSeqAndWallClock) {
  EventJournal journal;
  journal.Append(MakeEvent(JournalEvent::Kind::kTriggerEval, 1));
  journal.Append(MakeEvent(JournalEvent::Kind::kMigrationPhase, 2));
  const std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_GT(events[0].wall_ns, 0u);
  EXPECT_LE(events[0].wall_ns, events[1].wall_ns);
  EXPECT_EQ(journal.total_appended(), 2u);
}

TEST(JournalTest, PresetWallClockIsKept) {
  EventJournal journal;
  JournalEvent ev = MakeEvent(JournalEvent::Kind::kTriggerEval, 1);
  ev.wall_ns = 12345;
  journal.Append(std::move(ev));
  EXPECT_EQ(journal.Snapshot()[0].wall_ns, 12345u);
}

TEST(JournalTest, RingDropsOldestButSeqStaysDense) {
  EventJournal::Options options;
  options.capacity = 4;
  EventJournal journal(options);
  for (uint64_t i = 0; i < 10; ++i) {
    journal.Append(MakeEvent(JournalEvent::Kind::kTriggerEval, i));
  }
  EXPECT_EQ(journal.total_appended(), 10u);
  EXPECT_EQ(journal.size(), 4u);
  const std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and seq numbering survives the overwrites.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_DOUBLE_EQ(events[i].Num("mark"), static_cast<double>(6 + i));
  }
}

TEST(JournalTest, SnapshotKindFilters) {
  EventJournal journal;
  journal.Append(MakeEvent(JournalEvent::Kind::kTriggerEval, 1));
  journal.Append(MakeEvent(JournalEvent::Kind::kMigrationPhase, 2));
  journal.Append(MakeEvent(JournalEvent::Kind::kTriggerEval, 3));
  const std::vector<JournalEvent> evals =
      journal.SnapshotKind(JournalEvent::Kind::kTriggerEval);
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_DOUBLE_EQ(evals[0].Num("mark"), 1.0);
  EXPECT_DOUBLE_EQ(evals[1].Num("mark"), 3.0);
}

TEST(JournalTest, JsonlRoundTripPreservesEverything) {
  JournalEvent ev;
  ev.kind = JournalEvent::Kind::kDisorderAdapt;
  ev.seq = 42;
  ev.wall_ns = 987654321;
  ev.app_time = Timestamp(-17, 3);
  ev.subject = "stream \"A\"\nwith\tweird\\chars";
  ev.nums.emplace_back("old_delta", 64.0);
  ev.nums.emplace_back("ratio", 1.62);
  ev.nums.emplace_back("negative", -0.5);
  ev.strs.emplace_back("why", "late\nline");
  const std::string line = EventJournal::ToJsonl(ev);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "one event must serialize to one line";

  JournalEvent back;
  ASSERT_TRUE(EventJournal::FromJsonl(line, &back)) << line;
  EXPECT_EQ(back.kind, ev.kind);
  EXPECT_EQ(back.seq, ev.seq);
  EXPECT_EQ(back.wall_ns, ev.wall_ns);
  EXPECT_EQ(back.app_time, ev.app_time);
  EXPECT_EQ(back.subject, ev.subject);
  ASSERT_EQ(back.nums.size(), ev.nums.size());
  for (size_t i = 0; i < ev.nums.size(); ++i) {
    EXPECT_EQ(back.nums[i].first, ev.nums[i].first);
    EXPECT_DOUBLE_EQ(back.nums[i].second, ev.nums[i].second);
  }
  ASSERT_EQ(back.strs.size(), ev.strs.size());
  EXPECT_EQ(back.strs[0].first, "why");
  EXPECT_EQ(back.strs[0].second, "late\nline");
}

TEST(JournalTest, NumbersBeyondInt64RangeRoundTrip) {
  // Integral doubles outside int64_t's range take the %.17g path instead
  // of an (undefined) integer cast.
  JournalEvent ev;
  ev.kind = JournalEvent::Kind::kSample;
  ev.nums.emplace_back("big", 1.8e19);
  ev.nums.emplace_back("tiny", -1e300);
  const std::string line = EventJournal::ToJsonl(ev);
  JournalEvent back;
  ASSERT_TRUE(EventJournal::FromJsonl(line, &back)) << line;
  EXPECT_EQ(back.Num("big"), 1.8e19);
  EXPECT_EQ(back.Num("tiny"), -1e300);
  // Out-of-range header fields from a foreign line are clamped, not cast.
  ASSERT_TRUE(EventJournal::FromJsonl(
      "{\"kind\":\"sample\",\"seq\":-5,\"wall_ns\":1e30,"
      "\"app_t\":-1e30,\"app_eps\":1e12}",
      &back));
  EXPECT_EQ(back.seq, 0u);
  EXPECT_EQ(back.wall_ns, UINT64_MAX);
  EXPECT_LT(back.app_time.t, -9'000'000'000'000'000'000);
  EXPECT_EQ(back.app_time.eps, UINT32_MAX);
}

TEST(JsonStringTest, EscapesControlBytesAndKeepsUtf8) {
  const std::string raw = std::string("q\"b\\n\nr\rt\tc") + '\x01' +
                          "u\xc3\xa9";  // U+00E9 as UTF-8.
  std::string out;
  AppendJsonString(&out, raw);
  EXPECT_EQ(out, "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001u\xc3\xa9\"");
  // The journal's parser reads it back byte for byte.
  JournalEvent ev;
  ev.subject = raw;
  JournalEvent back;
  ASSERT_TRUE(EventJournal::FromJsonl(EventJournal::ToJsonl(ev), &back));
  EXPECT_EQ(back.subject, raw);
}

TEST(JournalTest, FromJsonlRejectsGarbage) {
  JournalEvent out;
  EXPECT_FALSE(EventJournal::FromJsonl("", &out));
  EXPECT_FALSE(EventJournal::FromJsonl("not json", &out));
  EXPECT_FALSE(EventJournal::FromJsonl("{}", &out)) << "kind is mandatory";
  EXPECT_FALSE(EventJournal::FromJsonl("{\"kind\": \"bogus\"}", &out));
  EXPECT_TRUE(EventJournal::FromJsonl("{\"kind\": \"trigger_eval\"}", &out));
}

TEST(JournalTest, ParseJsonlSkipsBlanksAndHonorsStrict) {
  EventJournal journal;
  journal.Append(MakeEvent(JournalEvent::Kind::kTriggerEval, 1));
  journal.Append(MakeEvent(JournalEvent::Kind::kCheckpoint, 2));
  std::string text;
  for (const JournalEvent& ev : journal.Snapshot()) {
    text += EventJournal::ToJsonl(ev);
    text += "\n\n";  // Blank lines are tolerated.
  }
  bool ok = false;
  std::vector<JournalEvent> events =
      EventJournal::ParseJsonl(text, /*strict=*/true, &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, JournalEvent::Kind::kCheckpoint);

  text += "BROKEN LINE\n";
  events = EventJournal::ParseJsonl(text, /*strict=*/true, &ok);
  EXPECT_FALSE(ok);
  events = EventJournal::ParseJsonl(text, /*strict=*/false, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(events.size(), 2u) << "lenient mode drops the malformed line";
}

TEST(JournalTest, SpillFileHoldsFullHistoryBeyondRing) {
  const std::string path =
      testing::TempDir() + "/genmig_journal_spill_test.jsonl";
  {
    EventJournal::Options options;
    options.capacity = 2;  // Ring far smaller than the history.
    options.spill_path = path;
    EventJournal journal(options);
    for (uint64_t i = 0; i < 9; ++i) {
      journal.Append(MakeEvent(JournalEvent::Kind::kMigrationPhase, i));
    }
    EXPECT_EQ(journal.size(), 2u);
    journal.Flush();
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  bool ok = false;
  const std::vector<JournalEvent> events =
      EventJournal::ParseJsonl(content, /*strict=*/true, &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(events.size(), 9u) << "the spill outlives the ring";
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
  }
}

TEST(JournalTest, ConcurrentAppendsKeepDenseSeq) {
  EventJournal journal;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Append(MakeEvent(JournalEvent::Kind::kDisorderAdapt,
                                 static_cast<uint64_t>(t * kPerThread + i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(journal.total_appended(),
            static_cast<uint64_t>(kThreads * kPerThread));
  const std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);  // Oldest-first, no gaps, no duplicates.
  }
}

}  // namespace
}  // namespace obs
}  // namespace genmig
