// Integration: per-operator metrics across a GenMig migration. The split /
// coalesce machinery registers its own metric slots when it is created
// mid-run, the coalesce merge's counters prove that coalesced result pairs
// are not double-counted, and the final output equals the run without any
// migration (snapshot equivalence at the counter level).

#include <gtest/gtest.h>

#include "../migration/migration_test_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace genmig {
namespace {

using obs::MetricsRegistry;
using obs::OperatorMetrics;
using namespace logical;  // NOLINT: test readability.
using testutil::MakeKeyedInputs;
using testutil::RunLogicalMigration;

constexpr Duration kWindow = 60;

LogicalPtr WindowedSource(const std::string& name) {
  return Window(SourceNode(name, Schema::OfInts({"x"})), kWindow);
}
LogicalPtr LeftDeep3() {
  return EquiJoin(EquiJoin(WindowedSource("S0"), WindowedSource("S1"), 0, 0),
                  WindowedSource("S2"), 0, 0);
}
LogicalPtr RightDeep3() {
  return EquiJoin(WindowedSource("S0"),
                  EquiJoin(WindowedSource("S1"), WindowedSource("S2"), 0, 0),
                  0, 0);
}

TEST(MigrationMetricsTest, GenMigDoesNotDoubleCountCoalescedOutputs) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  auto inputs = MakeKeyedInputs(3, 200, 4, 5, /*seed=*/23);

  // Baseline: same plan pair, no migration.
  auto baseline = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, Timestamp(200),
      [](MigrationController&, Box) {});

  MetricsRegistry registry;
  obs::EventJournal journal;
  obs::MigrationTracer tracer(&journal);
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, Timestamp(200),
      [&](MigrationController& c, Box b) {
        c.AttachMetricsRecursive(&registry);
        c.SetTracer(&tracer);
        MigrationController::GenMigOptions o;
        o.window = kWindow;
        c.StartGenMig(std::move(b), o);
      });
  ASSERT_EQ(result.migrations_completed, 1);

  // The migration machinery registered its own slots mid-run.
  const OperatorMetrics* old_out = registry.LastByName("ctrl/old_out");
  const OperatorMetrics* merge = registry.LastByName("ctrl/coalesce");
  const OperatorMetrics* merge_out = registry.LastByName("ctrl/merge_out");
  ASSERT_NE(old_out, nullptr);
  ASSERT_NE(merge, nullptr);
  ASSERT_NE(merge_out, nullptr);
  ASSERT_NE(registry.LastByName("ctrl/split_0"), nullptr);
  ASSERT_NE(registry.LastByName("ctrl/split_2"), nullptr);

  // Coalesce accounting: every input is an old- or new-box result; each
  // coalesced pair turns two inputs into one output, so out = in - merged
  // and out < in iff anything was merged. No output may be duplicated.
  EXPECT_GT(merge->elements_in, 0u);
  EXPECT_GT(old_out->elements_in, 0u);
  EXPECT_LE(old_out->elements_in, merge->elements_in);
  const uint64_t merged = merge->elements_in - merge->elements_out;
  EXPECT_GT(merged, 0u) << "scenario should coalesce at least one pair";
  // Everything the merge emitted reached the controller output exactly once.
  EXPECT_EQ(merge->elements_out, merge_out->elements_in);

  // Snapshot equivalence at the counter level: the migrated run produces
  // exactly the baseline's outputs — coalescing compensated the splits, no
  // result was lost or emitted twice.
  EXPECT_EQ(result.output.size(), baseline.output.size());

  // The controller and its machinery survived into direct mode with frozen
  // merge counters; the registry totals keep serving the trigger read path.
  EXPECT_GT(registry.TotalElementsIn(), merge->elements_in);

  // Exporters accept a registry populated across a migration.
  const std::string json = obs::ToJson(registry, &journal);
  EXPECT_NE(json.find("\"ctrl/coalesce\""), std::string::npos);
  EXPECT_NE(json.find("\"migrations\""), std::string::npos);
  EXPECT_NE(json.find("\"reference_point_switch\""), std::string::npos);
  const std::string csv = obs::ToCsv(registry);
  EXPECT_NE(csv.find("ctrl/coalesce"), std::string::npos);
}

TEST(MigrationMetricsTest, RefPointMergeRegistersAndBalances) {
#ifdef GENMIG_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out (GENMIG_NO_METRICS)";
#endif
  auto inputs = MakeKeyedInputs(3, 200, 4, 5, /*seed=*/29);
  MetricsRegistry registry;
  auto result = RunLogicalMigration(
      LeftDeep3(), RightDeep3(), inputs, Timestamp(200),
      [&](MigrationController& c, Box b) {
        c.AttachMetricsRecursive(&registry);
        MigrationController::GenMigOptions o;
        o.window = kWindow;
        o.variant = MigrationController::GenMigOptions::Variant::kRefPoint;
        c.StartGenMig(std::move(b), o);
      });
  ASSERT_EQ(result.migrations_completed, 1);
  const OperatorMetrics* merge = registry.LastByName("ctrl/refpoint_merge");
  ASSERT_NE(merge, nullptr);
  // The reference-point merge filters by reference point instead of
  // coalescing: it never emits more than it consumed.
  EXPECT_GT(merge->elements_in, 0u);
  EXPECT_LE(merge->elements_out, merge->elements_in);
}

}  // namespace
}  // namespace genmig
