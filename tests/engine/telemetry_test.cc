// Engine-level tests of the telemetry plane (ISSUE 9): the embedded HTTP
// endpoints (/metrics, /healthz, /status), the Prometheus exposition of
// engine-level series, and — the acceptance criterion — that every
// auto-triggered migration leaves a complete decision-journal trail
// (trigger evaluation -> phase transitions -> completion at T_split) that a
// replay of the spilled JSONL can reconstruct.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "../test_util.h"
#include "engine/dsms.h"
#include "obs/journal.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using obs::EventJournal;
using obs::JournalEvent;
using testutil::El;

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// The Figure-4 skewed-rate shape (see auto_reopt_test.cc): rates trade
/// places at `flip`, which reliably fires the cost-feedback trigger.
MaterializedStream PiecewiseRate(int64_t t_end, int64_t period_before,
                                 int64_t period_after, int64_t flip,
                                 int64_t keys, uint64_t seed) {
  MaterializedStream out;
  std::mt19937_64 rng(seed);
  for (int64_t t = 0; t < t_end;) {
    out.push_back(El(static_cast<int64_t>(
                         rng() % static_cast<uint64_t>(keys)),
                     t, t + 1));
    t += t < flip ? period_before : period_after;
  }
  return out;
}

void RegisterSkewedChain(Dsms* dsms, int64_t end, int64_t flip) {
  dsms->RegisterStream("A", Schema::OfInts({"x"}),
                       PiecewiseRate(end, 40, 4, flip, 200, 31));
  dsms->RegisterStream("B", Schema::OfInts({"x"}),
                       PiecewiseRate(end, 40, 4, flip, 200, 32));
  dsms->RegisterStream("C", Schema::OfInts({"x"}),
                       PiecewiseRate(end, 4, 40, flip, 200, 33));
}

constexpr const char* kChainQuery =
    "SELECT A.x, B.x, C.x FROM A [RANGE 2000], B [RANGE 2000], "
    "C [RANGE 2000] WHERE A.x = B.x AND B.x = C.x";

TEST(TelemetryTest, ServerIsOffByDefault) {
  Dsms dsms;
  EXPECT_EQ(dsms.telemetry_port(), -1);
  EXPECT_EQ(dsms.telemetry_requests(), 0u);
}

TEST(TelemetryTest, EndpointsServeMetricsHealthAndStatus) {
  Dsms::Options options;
  options.telemetry_port = 0;  // Ephemeral: the OS picks.
  Dsms dsms(options);
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(500, 5, 4, 1)));
  auto id = dsms.InstallQuery("SELECT * FROM S [RANGE 50]");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();

  const int port = dsms.telemetry_port();
  ASSERT_GT(port, 0);

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos) << health;
  EXPECT_EQ(BodyOf(health), "ok\n");

  const std::string metrics = HttpGet(port, "/metrics");
#ifdef GENMIG_NO_METRICS
  EXPECT_NE(metrics.find("HTTP/1.1 503"), std::string::npos) << metrics;
#else
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = BodyOf(metrics);
  EXPECT_NE(body.find("genmig_op_elements_in_total"), std::string::npos)
      << body;
  EXPECT_NE(body.find("genmig_engine_app_time"), std::string::npos);
  EXPECT_NE(body.find("genmig_engine_queries 1"), std::string::npos);
  EXPECT_NE(body.find("genmig_telemetry_requests_total"), std::string::npos);
  // The endpoint body matches the in-process accessor modulo the
  // self-referential request counter.
  EXPECT_EQ(body.substr(0, body.find("genmig_telemetry_requests_total")),
            dsms.MetricsText().substr(
                0, dsms.MetricsText().find("genmig_telemetry_requests_total")));
#endif

  const std::string status = HttpGet(port, "/status");
  EXPECT_NE(status.find("HTTP/1.1 200"), std::string::npos) << status;
  EXPECT_NE(status.find("application/json"), std::string::npos);
  const std::string json = BodyOf(status);
  EXPECT_EQ(json.front(), '{') << json;
  EXPECT_NE(json.find("\"queries\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"app_time\""), std::string::npos);

  EXPECT_NE(HttpGet(port, "/nope").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_GE(dsms.telemetry_requests(), 4u);
}

TEST(TelemetryTest, StatusJsonReportsAutoLoopAndMigrations) {
  constexpr int64_t kFlip = 15000;
  constexpr int64_t kEnd = 30000;
  Dsms::Options options;
  options.stats_horizon = 2000;
  options.calibration_period = 1000;
  options.migration_cooldown = 5000;
  Dsms dsms(options);
  RegisterSkewedChain(&dsms, kEnd, kFlip);
  auto id = dsms.InstallQuery(kChainQuery);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();
  ASSERT_GE(dsms.AutoStatus(id.value()).fires, 1);

  const std::string json = dsms.StatusJson();
  EXPECT_NE(json.find("\"migrations_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"auto\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"fires\""), std::string::npos);
  EXPECT_NE(json.find("\"journal_events\""), std::string::npos);
  // No stray unescaped control characters: the document is one clean line
  // per the writer's contract (ends in exactly one newline).
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 1);
}

// The ISSUE 9 acceptance criterion: replay the spilled JSONL journal of an
// auto-triggered run and reconstruct the full migration timeline — the
// armed-but-unfired trigger evaluations, the firing evaluation with its
// T_split, and the phase transitions through completion.
TEST(TelemetryTest, JournalTrailReconstructsAutoMigrationTimeline) {
  const std::string spill =
      testing::TempDir() + "/genmig_telemetry_journal.jsonl";
  constexpr int64_t kFlip = 15000;
  constexpr int64_t kEnd = 30000;
  Dsms::AutoReoptStatus status;
  int completed_migrations = 0;
  {
    Dsms::Options options;
    options.stats_horizon = 2000;
    options.calibration_period = 1000;
    options.migration_cooldown = 5000;
    options.journal_spill_path = spill;
    options.journal_capacity = 8;  // Tiny ring: the spill must carry it all.
    Dsms dsms(options);
    RegisterSkewedChain(&dsms, kEnd, kFlip);
    auto id = dsms.InstallQuery(kChainQuery);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    dsms.RunToCompletion();
    status = dsms.AutoStatus(id.value());
    completed_migrations = dsms.Info(id.value()).migrations_completed;
    ASSERT_GE(status.fires, 1);
    ASSERT_GE(completed_migrations, 1);
    EXPECT_GT(dsms.journal().total_appended(), dsms.journal().size());
  }  // Dtor flushes the spill.

  std::FILE* f = std::fopen(spill.c_str(), "rb");
  ASSERT_NE(f, nullptr) << spill;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(spill.c_str());

  bool ok = false;
  const std::vector<JournalEvent> events =
      EventJournal::ParseJsonl(text, /*strict=*/true, &ok);
  ASSERT_TRUE(ok);
  ASSERT_FALSE(events.empty());

  // (1) Every calibration evaluated the trigger and was journaled.
  std::vector<const JournalEvent*> evals;
  std::vector<const JournalEvent*> fired;
  for (const JournalEvent& ev : events) {
    if (ev.kind != JournalEvent::Kind::kTriggerEval) continue;
    EXPECT_EQ(ev.Str("policy"), "cost_ratio");
    EXPECT_TRUE(ev.HasNum("ratio"));
    if (ev.Num("fired") == 1.0) {
      fired.push_back(&ev);
    } else {
      EXPECT_TRUE(ev.HasNum("running_cost"));
      EXPECT_TRUE(ev.HasNum("candidate_cost"));
      EXPECT_TRUE(ev.HasNum("margin"));
      EXPECT_TRUE(ev.HasNum("hysteresis"));
      evals.push_back(&ev);
    }
  }
  EXPECT_EQ(evals.size(), status.calibrations);
  ASSERT_EQ(fired.size(), static_cast<size_t>(status.fires));

  // (2) The firing evaluation precedes an armed-state evaluation trail.
  bool saw_armed_before_fire = false;
  for (const JournalEvent* ev : evals) {
    if (ev->Num("armed") == 1.0 && ev->seq < fired.front()->seq) {
      saw_armed_before_fire = true;
      break;
    }
  }
  EXPECT_TRUE(saw_armed_before_fire)
      << "the trigger must arm via calibration before it fires";

  // (3) Reconstruct each migration's phase trail from the mirror events.
  struct Trail {
    std::vector<std::string> phases;
    double t_split = -1;
    uint64_t completed_seq = 0;
    int64_t completed_app_t = 0;
  };
  std::map<int, Trail> trails;
  for (const JournalEvent& ev : events) {
    if (ev.kind != JournalEvent::Kind::kMigrationPhase) continue;
    ASSERT_TRUE(ev.HasNum("migration_id"));
    Trail& trail = trails[static_cast<int>(ev.Num("migration_id"))];
    trail.phases.push_back(ev.Str("phase"));
    if (ev.HasNum("t_split")) trail.t_split = ev.Num("t_split");
    if (ev.Str("phase") == "completed") {
      trail.completed_seq = ev.seq;
      trail.completed_app_t = ev.app_time.t;
    }
  }
  ASSERT_GE(trails.size(), static_cast<size_t>(completed_migrations));
  int complete_trails = 0;
  for (const auto& [id, trail] : trails) {
    if (std::find(trail.phases.begin(), trail.phases.end(), "completed") ==
        trail.phases.end()) {
      continue;  // A migration still in flight at shutdown.
    }
    ++complete_trails;
    // Phase order: requested first, completed last, T_split known.
    ASSERT_FALSE(trail.phases.empty());
    EXPECT_EQ(trail.phases.front(), "requested") << "migration " << id;
    EXPECT_EQ(trail.phases.back(), "completed") << "migration " << id;
    EXPECT_NE(std::find(trail.phases.begin(), trail.phases.end(),
                        "split_installed"),
              trail.phases.end())
        << "migration " << id;
    ASSERT_GE(trail.t_split, 0.0) << "migration " << id;
    // Completion happens at-or-after T_split in application time: the old
    // boxes only drain once the window past T_split has closed.
    EXPECT_GE(static_cast<double>(trail.completed_app_t), trail.t_split)
        << "migration " << id;
    // The fire decision that requested this migration precedes its trail.
    EXPECT_GT(trail.completed_seq, fired.front()->seq);
  }
  EXPECT_EQ(complete_trails, completed_migrations);

  // (4) A fired evaluation carries the same T_split the controller installed.
  bool fire_matches_trail = false;
  for (const JournalEvent* ev : fired) {
    for (const auto& [id, trail] : trails) {
      if (trail.t_split >= 0 && ev->HasNum("t_split") &&
          ev->Num("t_split") == trail.t_split) {
        fire_matches_trail = true;
        break;
      }
    }
  }
  EXPECT_TRUE(fire_matches_trail);
}

TEST(TelemetryTest, DisorderAdaptationsAreJournaled) {
  const MaterializedStream ordered =
      ToPhysicalStream(GenerateKeyedStream(3000, 5, 7, 21));
  const DisorderedArrivals shuffled = ApplyBoundedShuffle(ordered, 30, 22);

  Dsms dsms;
  DisorderBuffer::Options opt;
  opt.delta = 200;  // Start way too wide so the adaptive loop must tighten.
  opt.adaptive = true;
  opt.min_delta = 1;
  opt.max_delta = 512;
  dsms.RegisterDisorderedStream("T", Schema::OfInts({"x"}), shuffled.arrivals,
                                opt);
  auto id = dsms.InstallQuery("SELECT * FROM T [RANGE 50]");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();

  const Dsms::DisorderInfo info = dsms.DisorderStats("T");
  ASSERT_TRUE(info.disordered);
  ASSERT_GT(info.stats.adaptations, 0u);
  const std::vector<JournalEvent> adapts =
      dsms.journal().SnapshotKind(JournalEvent::Kind::kDisorderAdapt);
  ASSERT_EQ(adapts.size(), info.stats.adaptations);
  for (const JournalEvent& ev : adapts) {
    EXPECT_EQ(ev.subject, "T");
    EXPECT_TRUE(ev.HasNum("old_delta"));
    EXPECT_TRUE(ev.HasNum("new_delta"));
    EXPECT_TRUE(ev.HasNum("lateness_quantile"));
    EXPECT_NE(ev.Num("old_delta"), ev.Num("new_delta"));
  }
  // The last adaptation's delta is what the buffer ended on.
  EXPECT_EQ(static_cast<int64_t>(adapts.back().Num("new_delta")), info.delta);
}

// ISSUE 10 satellite: with durable state enabled, the checkpoint plane shows
// up on all three surfaces — the Prometheus gauges, the /status JSON object,
// and the decision journal's begin/commit pairs.
TEST(TelemetryTest, CheckpointsSurfaceInMetricsStatusAndJournal) {
  std::string dir = testing::TempDir() + "/genmig_ckpt_telemetry_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);

  Dsms::Options options;
  options.checkpoint_dir = dir;
  options.checkpoint_period = 100;
  Dsms dsms(options);
  dsms.RegisterStream("S", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(600, 5, 4, 7)));
  auto id = dsms.InstallQuery("SELECT DISTINCT x FROM S [RANGE 50]");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();
  ASSERT_TRUE(dsms.Checkpoint().ok());  // At least one guaranteed commit.

  const ckpt::Store::StatsSnapshot stats = dsms.CheckpointStats();
  ASSERT_GE(stats.commits, 1u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.bytes, 0u);

#ifndef GENMIG_NO_METRICS
  const std::string body = dsms.MetricsText();
  EXPECT_NE(body.find("genmig_ckpt_seq"), std::string::npos) << body;
  EXPECT_NE(body.find("genmig_ckpt_commits_total"), std::string::npos);
  EXPECT_NE(body.find("genmig_ckpt_failures_total 0"), std::string::npos);
  EXPECT_NE(body.find("genmig_ckpt_skipped_total"), std::string::npos);
  EXPECT_NE(body.find("genmig_ckpt_bytes"), std::string::npos);
  EXPECT_NE(body.find("genmig_ckpt_written_bytes"), std::string::npos);
  EXPECT_NE(body.find("genmig_ckpt_duration_ns"), std::string::npos);
  EXPECT_NE(body.find("genmig_ckpt_age_seconds"), std::string::npos);
#endif

  const std::string json = dsms.StatusJson();
  EXPECT_NE(json.find("\"checkpoint\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"seq\""), std::string::npos);
  EXPECT_NE(json.find("\"commits\""), std::string::npos);
  EXPECT_NE(json.find("\"skipped\""), std::string::npos);

  // Every cycle journals a begin and a matching commit (no aborts here), and
  // the numbers on the commit mirror the store's stats.
  const std::vector<JournalEvent> cycles =
      dsms.journal().SnapshotKind(JournalEvent::Kind::kCheckpoint);
  size_t begins = 0;
  size_t commits = 0;
  const JournalEvent* last_commit = nullptr;
  for (const JournalEvent& ev : cycles) {
    EXPECT_EQ(ev.subject, "engine");
    ASSERT_TRUE(ev.HasNum("seq"));
    if (ev.Str("phase") == "begin") {
      ++begins;
    } else if (ev.Str("phase") == "commit") {
      ++commits;
      last_commit = &ev;
    } else {
      ADD_FAILURE() << "unexpected checkpoint phase " << ev.Str("phase");
    }
  }
  EXPECT_EQ(begins, stats.commits);
  ASSERT_EQ(commits, stats.commits);
  ASSERT_NE(last_commit, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(last_commit->Num("seq")), stats.seq);
  EXPECT_EQ(static_cast<uint64_t>(last_commit->Num("bytes")), stats.bytes);
}

}  // namespace
}  // namespace genmig
