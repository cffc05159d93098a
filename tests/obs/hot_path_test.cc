// Counted hot-path guarantees of the observability layer. Wall-clock
// overhead budgets are not deterministic on a shared machine, so they live
// in bench/metrics_guard (run nightly); these tests count instead of time:
//   * the decision journal sees zero appends while elements are pushed,
//   * an engine with timeline sampling and the calibration loop on appends
//     per period and per migration phase, never per element,
//   * push latency is clocked on at most one in kSampleEvery pushes,
//   * detached operators record nothing,
//   * batched engine runs deliver whole batches to the stats tap, the
//     migration controller and the join.

#include <gtest/gtest.h>

#include <vector>

#include "engine/dsms.h"
#include "migration/controller.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/dedup.h"
#include "ops/join.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "plan/compile.h"
#include "plan/logical.h"
#include "stream/generator.h"

namespace genmig {
namespace {

using obs::MetricsRegistry;
using obs::OperatorMetrics;

MaterializedStream KeyedWindowed(size_t n, int64_t keys, Duration w,
                                 uint64_t seed) {
  MaterializedStream out;
  for (const TimedTuple& tt : GenerateKeyedStream(n, 1, keys, seed)) {
    out.emplace_back(tt.tuple,
                     TimeInterval(Timestamp(tt.t), Timestamp(tt.t + w + 1)));
  }
  return out;
}

/// Feeds `left`/`right` pairwise through `join` into a sink; every operator
/// is attached to `registry` (null = detached). Returns the result count.
size_t RunJoin(JoinBase* join, const MaterializedStream& left,
               const MaterializedStream& right, MetricsRegistry* registry) {
  Source l("l");
  Source r("r");
  CollectorSink sink("k");
  for (Operator* op : {static_cast<Operator*>(join), static_cast<Operator*>(&l),
                       static_cast<Operator*>(&r),
                       static_cast<Operator*>(&sink)}) {
    op->AttachMetrics(registry);
  }
  l.ConnectTo(0, join, 0);
  r.ConnectTo(0, join, 1);
  join->ConnectTo(0, &sink, 0);
  for (size_t i = 0; i < left.size(); ++i) {
    l.Inject(left[i]);
    r.Inject(right[i]);
  }
  l.Close();
  r.Close();
  return sink.count();
}

/// The metrics_guard operator mix (symmetric hash join, nested-loops join,
/// duplicate elimination) at test size. Returns the total result count.
size_t RunMix(MetricsRegistry* registry) {
  SymmetricHashJoin shj("shj", 0, 0);
  NestedLoopsJoin nlj("nlj", [](const Tuple& a, const Tuple& b) {
    return a.field(0) == b.field(0);
  });
  size_t results = RunJoin(&shj, KeyedWindowed(600, 32, 100, 1),
                           KeyedWindowed(600, 32, 100, 2), registry);
  results += RunJoin(&nlj, KeyedWindowed(300, 32, 50, 3),
                     KeyedWindowed(300, 32, 50, 4), registry);
  DuplicateElimination dedup("dedup");
  Source src("s");
  CollectorSink sink("k");
  dedup.AttachMetrics(registry);
  src.AttachMetrics(registry);
  sink.AttachMetrics(registry);
  src.ConnectTo(0, &dedup, 0);
  dedup.ConnectTo(0, &sink, 0);
  for (const StreamElement& e : KeyedWindowed(2000, 8, 200, 5)) src.Inject(e);
  src.Close();
  return results + sink.count();
}

TEST(HotPathGuardTest, JournalSeesNoAppendsDuringElementPushes) {
  // A migration-hosting join with the engine's control-path wiring: metrics
  // attached and the tracer writing into a journal. Element pushes append
  // nothing; only the migration's phase transitions do.
  obs::EventJournal journal;
  obs::MigrationTracer tracer(&journal);
  MetricsRegistry registry;
  const LogicalPtr plan =
      logical::EquiJoin(logical::SourceNode("A", Schema::OfInts({"x"})),
                        logical::SourceNode("B", Schema::OfInts({"x"})), 0, 0);
  MigrationController controller("ctrl", CompilePlan(*plan));
  CollectorSink sink("sink");
  Source l("l");
  Source r("r");
  controller.AttachMetricsRecursive(&registry);
  controller.SetTracer(&tracer);
  sink.AttachMetrics(&registry);
  l.AttachMetrics(&registry);
  r.AttachMetrics(&registry);
  l.ConnectTo(0, &controller, 0);
  r.ConnectTo(0, &controller, 1);
  controller.ConnectTo(0, &sink, 0);

  const MaterializedStream left = KeyedWindowed(1000, 16, 50, 6);
  const MaterializedStream right = KeyedWindowed(1000, 16, 50, 7);
  for (size_t i = 0; i < 500; ++i) {
    l.Inject(left[i]);
    r.Inject(right[i]);
  }
  EXPECT_EQ(journal.total_appended(), 0u);

  MigrationController::GenMigOptions options;
  options.window = 50;
  controller.StartGenMig(CompilePlan(*plan), options);
  for (size_t i = 500; i < left.size(); ++i) {
    l.Inject(left[i]);
    r.Inject(right[i]);
  }
  l.Close();
  r.Close();
  EXPECT_EQ(controller.migrations_completed(), 1);
  EXPECT_GT(sink.count(), 0u);
  const std::vector<obs::JournalEvent> events = journal.Snapshot();
  EXPECT_FALSE(events.empty());
  for (const obs::JournalEvent& ev : events) {
    EXPECT_EQ(ev.kind, obs::JournalEvent::Kind::kMigrationPhase);
  }
  // Bounded by the phase count, not by the 1000 pushes after the start.
  EXPECT_LE(journal.total_appended(), 10u);
}

TEST(HotPathGuardTest, EngineJournalAppendsScaleWithPeriodsNotElements) {
  // Timeline sampling and the calibration loop both write into the engine's
  // journal: one sample per timeline period, one trigger evaluation per
  // calibration pass (plus one per fire), and the phases of each migration.
  Dsms::Options options;
  options.timeline_period = 100;
  options.calibration_period = 500;
  Dsms dsms(options);
  constexpr size_t kPerStream = 4000;
  dsms.RegisterRawStream("A", Schema::OfInts({"k"}),
                         GenerateKeyedStream(kPerStream, 1, 50, 8));
  dsms.RegisterRawStream("B", Schema::OfInts({"k"}),
                         GenerateKeyedStream(kPerStream, 1, 50, 9));
  auto id = dsms.InstallQuery(
      "SELECT A.k FROM A [RANGE 100], B [RANGE 100] WHERE A.k = B.k");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();

  const obs::EventJournal& journal = dsms.journal();
  ASSERT_EQ(journal.size(), journal.total_appended());  // Nothing dropped.
  uint64_t samples = 0;
  uint64_t evals = 0;
  uint64_t phases = 0;
  for (const obs::JournalEvent& ev : journal.Snapshot()) {
    samples += ev.kind == obs::JournalEvent::Kind::kSample;
    evals += ev.kind == obs::JournalEvent::Kind::kTriggerEval;
    phases += ev.kind == obs::JournalEvent::Kind::kMigrationPhase;
  }
  const int64_t span = dsms.current_time().t;
  const Dsms::AutoReoptStatus& status = dsms.AutoStatus(id.value());
  EXPECT_GT(samples, 0u);
  EXPECT_LE(samples,
            static_cast<uint64_t>(span / options.timeline_period + 1));
  EXPECT_GT(status.calibrations, 0u);
  EXPECT_LE(status.calibrations,
            static_cast<size_t>(span / options.calibration_period));
  EXPECT_EQ(evals, status.calibrations + static_cast<size_t>(status.fires));
  EXPECT_LE(phases, 6u * static_cast<uint64_t>(
                             dsms.tracer().migration_count()));
  EXPECT_EQ(journal.total_appended(), samples + evals + phases);
  // Orders of magnitude below the 2 * kPerStream pushed elements.
  EXPECT_LT(journal.total_appended(), 2 * kPerStream / 20);
}

TEST(HotPathGuardTest, PushLatencyIsClockedOnAtMostOneInSampleEveryPushes) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  MetricsRegistry registry;
  RunMix(&registry);
  uint64_t pushes = 0;
  for (const OperatorMetrics& m : registry.operators()) {
    EXPECT_LE(m.push_ns.count(),
              m.elements_in / MetricsRegistry::kSampleEvery + 1)
        << m.name;
    pushes += m.elements_in;
  }
  EXPECT_GT(pushes, 10 * MetricsRegistry::kSampleEvery);
}

TEST(HotPathGuardTest, DetachedOperatorsRecordNothing) {
  MetricsRegistry registry;
  const size_t want = RunMix(&registry);
  const size_t slots = registry.size();
  const uint64_t in = registry.TotalElementsIn();
  const uint64_t out = registry.TotalElementsOut();
  EXPECT_GT(want, 0u);
  // Same results without instrumentation, and the registry is untouched.
  EXPECT_EQ(RunMix(nullptr), want);
  EXPECT_EQ(registry.size(), slots);
  EXPECT_EQ(registry.TotalElementsIn(), in);
  EXPECT_EQ(registry.TotalElementsOut(), out);
}


TEST(HotPathGuardTest, BatchedJoinKeepsBatchesWholeUpToTheJoin) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  // A batch that is split into rows anywhere between the feed and the join
  // drops rows_per_batch to about 1 at that operator and every one after it.
  Dsms::Options options;
  options.executor.batch_size = 256;
  Dsms dsms(options);
  dsms.RegisterRawStream("A", Schema::OfInts({"k"}),
                         GenerateKeyedStream(4000, 1, 50, 8));
  dsms.RegisterRawStream("B", Schema::OfInts({"k"}),
                         GenerateKeyedStream(4000, 1, 50, 9));
  auto id = dsms.InstallQuery(
      "SELECT A.k FROM A [RANGE 100], B [RANGE 100] WHERE A.k = B.k");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunToCompletion();
  EXPECT_GT(dsms.Results(id.value()).size(), 0u);

  int taps = 0;
  int controllers = 0;
  int joins = 0;
  for (const OperatorMetrics& m : dsms.metrics().operators()) {
    const bool tap = m.name.rfind("tap_", 0) == 0;
    const bool controller = m.name == "q0";
    const bool join = m.name.find("join") != std::string::npos;
    if (!tap && !controller && !join) continue;
    taps += tap;
    controllers += controller;
    joins += join;
    ASSERT_GT(m.batches_in, 0u) << m.name;
    EXPECT_GE(m.elements_in / m.batches_in, 64u)
        << m.name << ": " << m.elements_in << " rows in " << m.batches_in
        << " batches";
  }
  EXPECT_EQ(taps, 2);
  EXPECT_EQ(controllers, 1);
  EXPECT_EQ(joins, 1);
}

}  // namespace
}  // namespace genmig
