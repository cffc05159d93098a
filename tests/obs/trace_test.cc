// MigrationTracer tests: direct unit coverage plus trace-event ordering
// across a real GenMig migration (Figure 2-style plan change) and the
// Parallel Track baseline. Tracing is NOT compiled out under
// GENMIG_NO_METRICS — only the per-push counters are — so these tests run in
// every configuration.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include "../migration/migration_test_util.h"
#include "obs/metrics.h"
#include "opt/rules.h"

namespace genmig {
namespace {

using obs::MigrationEvent;
using obs::MigrationTracer;
using obs::TraceRecord;
using namespace logical;  // NOLINT: test readability.
using testutil::MakeKeyedInputs;
using testutil::RunLogicalMigration;

constexpr Duration kWindow = 60;

LogicalPtr WindowedSource(const std::string& name) {
  return Window(SourceNode(name, Schema::OfInts({"x"})), kWindow);
}

/// Figure 2-style plan pair: duplicate elimination over a join, migrated to
/// the dedup-pushdown rewrite.
LogicalPtr Fig2OldPlan() {
  return Dedup(EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0));
}
LogicalPtr Fig2NewPlan() {
  auto pushed = rules::PushDownDedup(Fig2OldPlan());
  return pushed ? *pushed : Fig2OldPlan();
}

// --- Direct tracer unit tests --------------------------------------------------

TEST(MigrationTracerTest, RecordsAndPhases) {
  obs::EventJournal journal;
  MigrationTracer tracer(&journal);
  EXPECT_EQ(tracer.migration_count(), 0);

  const int id = tracer.BeginMigration("genmig_coalesce", Timestamp(10));
  EXPECT_EQ(id, 0);
  tracer.Record(id, MigrationEvent::kSplitInstalled, Timestamp(10),
                "t_split=71");
  tracer.Record(id, MigrationEvent::kCompleted, Timestamp(71));

  const int id2 = tracer.BeginMigration("moving_states", Timestamp(100));
  EXPECT_EQ(id2, 1);
  EXPECT_EQ(tracer.migration_count(), 2);

  // BeginMigration records kRequested with the strategy as detail.
  const auto first = tracer.RecordsFor(id);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].event, MigrationEvent::kRequested);
  EXPECT_EQ(first[0].detail, "genmig_coalesce");
  EXPECT_EQ(first[1].event, MigrationEvent::kSplitInstalled);
  EXPECT_EQ(first[1].detail, "t_split=71");
  EXPECT_EQ(first[2].app_time, Timestamp(71));

  // Wall clock is monotone within a trace.
  EXPECT_LE(first[0].wall_ns, first[1].wall_ns);
  EXPECT_LE(first[1].wall_ns, first[2].wall_ns);

  EXPECT_GE(tracer.PhaseNs(id, MigrationEvent::kRequested,
                           MigrationEvent::kCompleted),
            0);
  // Missing event -> -1.
  EXPECT_EQ(tracer.PhaseNs(id, MigrationEvent::kOldBoxDrained,
                           MigrationEvent::kCompleted),
            -1);
  EXPECT_EQ(tracer.PhaseNs(id2, MigrationEvent::kRequested,
                           MigrationEvent::kCompleted),
            -1);
}

TEST(MigrationTracerTest, EventNames) {
  EXPECT_STREQ(obs::MigrationEventName(MigrationEvent::kRequested),
               "requested");
  EXPECT_STREQ(obs::MigrationEventName(MigrationEvent::kReferencePointSwitch),
               "reference_point_switch");
}

// --- Trace of a real GenMig migration ------------------------------------------

TEST(MigrationTraceIntegrationTest, GenMigPhaseOrdering) {
  obs::EventJournal journal;
  MigrationTracer tracer(&journal);
  auto inputs = MakeKeyedInputs(2, 200, 4, 5, /*seed=*/11);
  auto result = RunLogicalMigration(
      Fig2OldPlan(), Fig2NewPlan(), inputs, Timestamp(200),
      [&](MigrationController& c, Box b) {
        c.SetTracer(&tracer);
        MigrationController::GenMigOptions o;
        o.window = kWindow;
        c.StartGenMig(std::move(b), o);
      });
  ASSERT_EQ(result.migrations_completed, 1);
  ASSERT_EQ(tracer.migration_count(), 1);

  const std::vector<TraceRecord> trace = tracer.RecordsFor(0);
  const std::vector<MigrationEvent> expected = {
      MigrationEvent::kRequested,        MigrationEvent::kSplitInstalled,
      MigrationEvent::kOldBoxDrained,    MigrationEvent::kCoalesceDone,
      MigrationEvent::kReferencePointSwitch, MigrationEvent::kCompleted,
  };
  ASSERT_EQ(trace.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(trace[i].event, expected[i]) << "position " << i;
    if (i > 0) {
      EXPECT_LE(trace[i - 1].wall_ns, trace[i].wall_ns);
      EXPECT_LE(trace[i - 1].app_time, trace[i].app_time);
    }
  }
  EXPECT_EQ(trace[0].detail, "genmig_coalesce");
  // The split-installed record carries T_split.
  EXPECT_EQ(trace[1].detail,
            "t_split=" + std::to_string(result.t_split.t));
  // The old box drains only once every input watermark passed T_split.
  EXPECT_GE(trace[2].app_time, Timestamp(result.t_split.t));
  // Phase durations between consecutive canonical events are all defined.
  for (size_t i = 1; i < expected.size(); ++i) {
    EXPECT_GE(tracer.PhaseNs(0, expected[i - 1], expected[i]), 0)
        << "phase " << i;
  }
}

TEST(MigrationTraceIntegrationTest, ParallelTrackSubset) {
  obs::EventJournal journal;
  MigrationTracer tracer(&journal);
  auto inputs = MakeKeyedInputs(2, 200, 4, 5, /*seed=*/13);
  auto old_plan = EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0);
  auto new_plan = EquiJoin(WindowedSource("S1"), WindowedSource("S0"), 0, 0);
  auto result = RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(200),
      [&](MigrationController& c, Box b) {
        b.ReorderInputs({"S0", "S1"});
        c.SetTracer(&tracer);
        c.StartParallelTrack(std::move(b), kWindow);
      },
      Executor::Options(), /*relax_sink=*/true);
  ASSERT_EQ(result.migrations_completed, 1);

  const std::vector<TraceRecord> trace = tracer.RecordsFor(0);
  const std::vector<MigrationEvent> expected = {
      MigrationEvent::kRequested,
      MigrationEvent::kSplitInstalled,
      MigrationEvent::kOldBoxDrained,
      MigrationEvent::kReferencePointSwitch,
      MigrationEvent::kCompleted,
  };
  ASSERT_EQ(trace.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(trace[i].event, expected[i]) << "position " << i;
  }
  EXPECT_EQ(trace[0].detail, "parallel_track");
}

}  // namespace
}  // namespace genmig
