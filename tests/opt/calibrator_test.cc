#include "opt/calibrator.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "obs/metrics.h"
#include "opt/cost.h"
#include "plan/compile.h"
#include "plan/logical.h"

namespace genmig {
namespace {

using testutil::El;

LogicalPtr Src(const std::string& name) {
  return logical::SourceNode(name, Schema::OfInts({"x"}));
}

LogicalPtr TwoSourceJoin() {
  return logical::EquiJoin(Src("S0"), Src("S1"), 0, 0);
}

// --- PlanSignature -----------------------------------------------------------

TEST(PlanSignatureTest, EqualForStructurallyEqualPlans) {
  EXPECT_EQ(PlanSignature(*TwoSourceJoin()), PlanSignature(*TwoSourceJoin()));
}

TEST(PlanSignatureTest, DistinguishesShapeOrderAndSources) {
  const std::string base = PlanSignature(*TwoSourceJoin());
  EXPECT_NE(PlanSignature(*logical::EquiJoin(Src("S1"), Src("S0"), 0, 0)),
            base);
  EXPECT_NE(PlanSignature(*logical::EquiJoin(Src("S0"), Src("S2"), 0, 0)),
            base);
  EXPECT_NE(PlanSignature(*logical::Dedup(TwoSourceJoin())), base);
  EXPECT_NE(PlanSignature(*Src("S0")), PlanSignature(*Src("S1")));
}

TEST(PlanSignatureTest, SharedSubtreeSignatureIsPositionIndependent) {
  // The left subtree of a bushy plan and a standalone plan with the same
  // structure must match: this is what carries observations from the running
  // plan onto the unchanged parts of a candidate rewrite.
  const LogicalPtr shared = TwoSourceJoin();
  const LogicalPtr bushy = logical::EquiJoin(shared, Src("S2"), 0, 0);
  EXPECT_EQ(PlanSignature(*bushy->children[0]),
            PlanSignature(*TwoSourceJoin()));
}

// --- Counter folding ---------------------------------------------------------

TEST(CostCalibratorTest, FoldsCounterDeltasIntoRates) {
  CostCalibrator cal;
  cal.ObserveCounters("k", 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters("k", 200, 100, 64, 10.0, Timestamp(100));
  const CostCalibrator::Observation* obs = cal.Fresh("k", Timestamp(100));
  ASSERT_NE(obs, nullptr);
  EXPECT_DOUBLE_EQ(obs->in_rate, 2.0);
  EXPECT_DOUBLE_EQ(obs->out_rate, 1.0);
  EXPECT_DOUBLE_EQ(obs->selectivity, 0.5);
  EXPECT_DOUBLE_EQ(obs->state_bytes, 64.0);
  EXPECT_DOUBLE_EQ(obs->push_mean_ns, 10.0);
  EXPECT_EQ(obs->samples, 1u);
}

TEST(CostCalibratorTest, EwmaSmoothsSuccessiveSamples) {
  CostCalibrator::Options opt;
  opt.sample_weight = 0.5;
  CostCalibrator cal(opt);
  cal.ObserveCounters("k", 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters("k", 200, 200, 0, 0.0, Timestamp(100));  // Sample 2.0.
  cal.ObserveCounters("k", 300, 300, 0, 0.0, Timestamp(200));  // Sample 1.0.
  const CostCalibrator::Observation* obs = cal.Raw("k");
  ASSERT_NE(obs, nullptr);
  EXPECT_DOUBLE_EQ(obs->in_rate, 0.5 * 1.0 + 0.5 * 2.0);
  EXPECT_EQ(obs->samples, 2u);
}

TEST(CostCalibratorTest, ReadingsCloserThanMinSpanKeepTheOldBaseline) {
  CostCalibrator::Options opt;
  opt.min_sample_span = 10;
  CostCalibrator cal(opt);
  cal.ObserveCounters("k", 0, 0, 0, 0.0, Timestamp(0));
  // Too close to the baseline: no sample, and the baseline must NOT move —
  // otherwise the next reading would difference against a bogus origin.
  cal.ObserveCounters("k", 50, 50, 0, 0.0, Timestamp(5));
  EXPECT_EQ(cal.Raw("k")->samples, 0u);
  cal.ObserveCounters("k", 200, 200, 0, 0.0, Timestamp(20));
  ASSERT_EQ(cal.Raw("k")->samples, 1u);
  EXPECT_DOUBLE_EQ(cal.Raw("k")->in_rate, 200.0 / 20.0);
}

TEST(CostCalibratorTest, CounterResetRebaselinesWithoutASample) {
  CostCalibrator cal;
  cal.ObserveCounters("k", 1000, 1000, 0, 0.0, Timestamp(0));
  cal.ObserveCounters("k", 1100, 1100, 0, 0.0, Timestamp(100));
  ASSERT_EQ(cal.Raw("k")->samples, 1u);
  EXPECT_DOUBLE_EQ(cal.Raw("k")->in_rate, 1.0);
  // A fresh operator instance re-used the key: counters went backwards.
  cal.ObserveCounters("k", 5, 5, 0, 0.0, Timestamp(200));
  EXPECT_EQ(cal.Raw("k")->samples, 1u);  // No negative-rate sample folded.
  EXPECT_DOUBLE_EQ(cal.Raw("k")->in_rate, 1.0);
  // Deltas against the new baseline fold normally again.
  cal.ObserveCounters("k", 105, 105, 0, 0.0, Timestamp(300));
  EXPECT_EQ(cal.Raw("k")->samples, 2u);
  EXPECT_DOUBLE_EQ(cal.Raw("k")->in_rate, 1.0);
}

// --- Staleness ---------------------------------------------------------------

TEST(CostCalibratorTest, StaleObservationsStopOverriding) {
  CostCalibrator::Options opt;
  opt.stale_after = 50;
  CostCalibrator cal(opt);
  cal.ObserveCounters("k", 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters("k", 100, 100, 0, 0.0, Timestamp(10));
  EXPECT_NE(cal.Fresh("k", Timestamp(60)), nullptr);
  EXPECT_EQ(cal.Fresh("k", Timestamp(61)), nullptr);
  // Raw access ignores staleness (introspection only).
  EXPECT_NE(cal.Raw("k"), nullptr);
}

TEST(CostCalibratorTest, LookupAgesOutViaTheObservationClock) {
  CostCalibrator::Options opt;
  opt.stale_after = 50;
  CostCalibrator cal(opt);
  const LogicalPtr plan = TwoSourceJoin();
  cal.ObserveCounters(PlanSignature(*plan), 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters(PlanSignature(*plan), 100, 100, 0, 0.0, Timestamp(100));
  ASSERT_NE(cal.Lookup(*plan), nullptr);
  EXPECT_DOUBLE_EQ(cal.Lookup(*plan)->out_rate, 1.0);
  // Skipped observation passes (e.g. mid-migration) advance the clock so the
  // frozen rates age out instead of overriding the cost model forever.
  cal.AdvanceTime(Timestamp(200));
  EXPECT_EQ(cal.Lookup(*plan), nullptr);
}

TEST(CostCalibratorTest, UnknownKeyHasNoObservation) {
  CostCalibrator cal;
  EXPECT_EQ(cal.Fresh("missing", Timestamp(0)), nullptr);
  EXPECT_EQ(cal.Raw("missing"), nullptr);
  const LogicalPtr plan = TwoSourceJoin();
  EXPECT_EQ(cal.Lookup(*plan), nullptr);
}

// --- ObservePlanBox ----------------------------------------------------------

TEST(CostCalibratorTest, UnattachedBoxYieldsNoObservations) {
  // Operators without a metric slot (box never attached to a registry, or
  // metrics compiled out entirely) must be skipped, not folded as zeros.
  const LogicalPtr plan = TwoSourceJoin();
  Box box = CompilePlan(*plan);
  CostCalibrator cal;
  EXPECT_EQ(cal.ObservePlanBox(*plan, box, Timestamp(0)), 0u);
  EXPECT_EQ(cal.Lookup(*plan), nullptr);
  // The pass still advances the observation clock.
  EXPECT_EQ(cal.last_observation(), Timestamp(0));
}

TEST(CostCalibratorTest, NodeOperatorCountMismatchIsRejected) {
  // Passing the windowed plan against a box compiled from the stripped plan
  // breaks the one-op-per-node pairing; the calibrator must refuse to guess.
  const LogicalPtr windowed = logical::EquiJoin(
      logical::Window(Src("S0"), 100), logical::Window(Src("S1"), 100), 0, 0);
  Box box = CompilePlan(*logical::StripWindows(windowed));
  CostCalibrator cal;
  EXPECT_EQ(cal.ObservePlanBox(*windowed, box, Timestamp(0)), 0u);
}

#ifndef GENMIG_NO_METRICS

TEST(CostCalibratorTest, ObservesRunningBoxRates) {
  const LogicalPtr plan = TwoSourceJoin();
  Box box = CompilePlan(*plan);
  obs::MetricsRegistry registry;
  box.AttachMetrics(&registry);
  CostCalibrator cal;
  // Baseline pass: 2 sources + 1 join.
  EXPECT_EQ(cal.ObservePlanBox(*plan, box, Timestamp(0)), 3u);
  for (int64_t t = 1; t <= 100; ++t) {
    box.input(0)->PushElement(0, El(t % 4, t, t + 30));
    box.input(1)->PushElement(0, El(t % 4, t, t + 30));
  }
  EXPECT_EQ(cal.ObservePlanBox(*plan, box, Timestamp(100)), 3u);
  const CostCalibrator::Observation* src =
      cal.Fresh(PlanSignature(*plan->children[0]), Timestamp(100));
  ASSERT_NE(src, nullptr);
  EXPECT_NEAR(src->out_rate, 1.0, 0.05);  // 100 elements / 100 time units.
  const PlanObservations::NodeObservation* join = cal.Lookup(*plan);
  ASSERT_NE(join, nullptr);
  EXPECT_GT(join->out_rate, 0.0);
}

TEST(CostCalibratorTest, ChainPlanIsObservedUnderItsTopNode) {
  // select -> project under a join compiles to one StatelessChain, so the
  // box has fewer operators (4) than the plan has nodes (5). The chain is
  // observed under its top node, the join under its own.
  const LogicalPtr chain = logical::Project(
      logical::Select(Src("S0"),
                      Expr::Compare(Expr::CmpOp::kNe, Expr::Column(0),
                                    Expr::Const(Value(int64_t{0})))),
      {0});
  const LogicalPtr plan = logical::EquiJoin(chain, Src("S1"), 0, 0);
  Box box = CompilePlan(*plan);
  ASSERT_EQ(box.ops().size(), 4u);
  obs::MetricsRegistry registry;
  box.AttachMetrics(&registry);
  CostCalibrator cal;
  EXPECT_EQ(cal.ObservePlanBox(*plan, box, Timestamp(0)), 4u);
  for (int64_t t = 1; t <= 100; ++t) {
    box.input(0)->PushElement(0, El(t % 4, t, t + 30));
    box.input(1)->PushElement(0, El(t % 4, t, t + 30));
  }
  EXPECT_EQ(cal.ObservePlanBox(*plan, box, Timestamp(100)), 4u);
  const PlanObservations::NodeObservation* top = cal.Lookup(*chain);
  ASSERT_NE(top, nullptr);
  EXPECT_NEAR(top->in_rate, 1.0, 0.05);    // The chain's input.
  EXPECT_NEAR(top->out_rate, 0.75, 0.05);  // Keys 1..3 of 0..3 pass.
  EXPECT_NE(cal.Lookup(*plan), nullptr);
  // The select shares the chain's operator and has no slot of its own.
  EXPECT_EQ(cal.Lookup(*chain->children[0]), nullptr);
}

TEST(CostCalibratorTest, DuplicateSubtreesGetDistinctKeys) {
  // Self-join: both leaves have the same signature; the occurrence suffix
  // must keep their (different) observed rates apart.
  const LogicalPtr plan = logical::EquiJoin(Src("S0"), Src("S0"), 0, 0);
  Box box = CompilePlan(*plan);
  obs::MetricsRegistry registry;
  box.AttachMetrics(&registry);
  CostCalibrator cal;
  ASSERT_EQ(cal.ObservePlanBox(*plan, box, Timestamp(0)), 3u);
  for (int64_t t = 1; t <= 100; ++t) {
    box.input(0)->PushElement(0, El(t % 4, t, t + 30));
    if (t <= 50) box.input(1)->PushElement(0, El(t % 4, t, t + 30));
  }
  ASSERT_EQ(cal.ObservePlanBox(*plan, box, Timestamp(100)), 3u);
  const std::string key = PlanSignature(*plan->children[0]);
  const CostCalibrator::Observation* first = cal.Raw(key);
  const CostCalibrator::Observation* second = cal.Raw(key + "@1");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NEAR(first->out_rate, 1.0, 0.05);
  EXPECT_NEAR(second->out_rate, 0.5, 0.05);
}

#endif  // GENMIG_NO_METRICS

// --- Calibrated outputs ------------------------------------------------------

TEST(CostCalibratorTest, CalibratedOverridesSourceRatesKeepsDistincts) {
  CostCalibrator cal;
  cal.ObserveCounters("S:S0", 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters("S:S0", 300, 300, 0, 0.0, Timestamp(100));  // 3.0/unit.
  StatsCatalog base;
  base.SetSource("S0", 0.5, 10.0);
  base.SetSource("S1", 0.7, 20.0);
  const StatsCatalog calibrated = cal.Calibrated(base);
  EXPECT_DOUBLE_EQ(calibrated.Get("S0").rate, 3.0);
  EXPECT_DOUBLE_EQ(calibrated.Get("S0").DistinctOf(0), 10.0);
  // No observation for S1: the estimate passes through untouched.
  EXPECT_DOUBLE_EQ(calibrated.Get("S1").rate, 0.7);
}

// --- Calibrated CPU cost (push-latency -> cost model) ------------------------

TEST(CostCalibratorTest, UseCpuCostExposesPushLatencyThroughLookup) {
  const LogicalPtr src = Src("S0");
  CostCalibrator::Options opt;
  opt.use_cpu_cost = true;
  CostCalibrator cal(opt);
  cal.ObserveCounters(PlanSignature(*src), 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters(PlanSignature(*src), 200, 200, 0, 200.0,
                      Timestamp(100));
  const PlanObservations::NodeObservation* obs = cal.Lookup(*src);
  ASSERT_NE(obs, nullptr);
  EXPECT_DOUBLE_EQ(obs->in_rate, 2.0);
  EXPECT_DOUBLE_EQ(obs->cpu_ns_per_element, 200.0);

  // Default options keep the CPU channel closed: same observations, no
  // cpu_ns_per_element, so EstimatePlan keeps the structural cost scale.
  CostCalibrator off;
  off.ObserveCounters(PlanSignature(*src), 0, 0, 0, 0.0, Timestamp(0));
  off.ObserveCounters(PlanSignature(*src), 200, 200, 0, 200.0,
                      Timestamp(100));
  ASSERT_NE(off.Lookup(*src), nullptr);
  EXPECT_DOUBLE_EQ(off.Lookup(*src)->cpu_ns_per_element, 0.0);
}

TEST(CostCalibratorTest, CpuCostOverlayReplacesStructuralSelfCost) {
  const LogicalPtr src = Src("S0");
  StatsCatalog catalog;
  catalog.SetSource("S0", 0.5, 10.0);

  CostCalibrator::Options opt;
  opt.use_cpu_cost = true;
  CostCalibrator cal(opt);
  cal.ObserveCounters(PlanSignature(*src), 0, 0, 0, 0.0, Timestamp(0));
  // 2 elements/unit at a measured 200 ns each: 2 * 200 / kCostUnitNs = 4
  // model cost units replace the source's structural self-cost.
  cal.ObserveCounters(PlanSignature(*src), 200, 200, 0, 200.0,
                      Timestamp(100));
  const PlanEstimate calibrated = EstimatePlan(*src, catalog, &cal);
  EXPECT_DOUBLE_EQ(calibrated.rate, 2.0);
  EXPECT_DOUBLE_EQ(calibrated.self_cost, 2.0 * 200.0 / kCostUnitNs);
  EXPECT_DOUBLE_EQ(calibrated.cost, 2.0 * 200.0 / kCostUnitNs);

  // With the flag off the same observations only recalibrate the rate.
  CostCalibrator off;
  off.ObserveCounters(PlanSignature(*src), 0, 0, 0, 0.0, Timestamp(0));
  off.ObserveCounters(PlanSignature(*src), 200, 200, 0, 200.0,
                      Timestamp(100));
  const PlanEstimate structural = EstimatePlan(*src, catalog, &off);
  EXPECT_DOUBLE_EQ(structural.rate, 2.0);
  EXPECT_DOUBLE_EQ(structural.cost, 0.5);  // Catalog rate = structural cost.
}

TEST(CostCalibratorTest, CpuCostOverlayOnlyChargesTheObservedNode) {
  // Join over two sources, only the join observed: the children keep their
  // structural costs and the cumulative cost moves by (measured - self).
  const LogicalPtr plan = TwoSourceJoin();
  StatsCatalog catalog;
  catalog.SetSource("S0", 1.0, 10.0);
  catalog.SetSource("S1", 1.0, 10.0);
  const PlanEstimate structural = EstimatePlan(*plan, catalog);

  CostCalibrator::Options opt;
  opt.use_cpu_cost = true;
  CostCalibrator cal(opt);
  cal.ObserveCounters(PlanSignature(*plan), 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters(PlanSignature(*plan), 1000, 100, 0, 500.0,
                      Timestamp(100));  // in_rate 10, 500 ns/element.
  const PlanEstimate calibrated = EstimatePlan(*plan, catalog, &cal);
  const double measured = 10.0 * 500.0 / kCostUnitNs;
  EXPECT_DOUBLE_EQ(calibrated.self_cost, measured);
  EXPECT_DOUBLE_EQ(calibrated.cost,
                   structural.cost - structural.self_cost + measured);
}

TEST(CostCalibratorTest, PushLatencyReadingsAreEwmaFolded) {
  CostCalibrator::Options opt;
  opt.sample_weight = 0.5;
  CostCalibrator cal(opt);
  cal.ObserveCounters("k", 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters("k", 100, 100, 0, 100.0, Timestamp(100));
  EXPECT_DOUBLE_EQ(cal.Raw("k")->push_mean_ns, 100.0);
  cal.ObserveCounters("k", 200, 200, 0, 300.0, Timestamp(200));
  EXPECT_DOUBLE_EQ(cal.Raw("k")->push_mean_ns, 0.5 * 300.0 + 0.5 * 100.0);
  // A zero reading (sampling produced no data this period) does not drag the
  // calibrated latency toward zero.
  cal.ObserveCounters("k", 300, 300, 0, 0.0, Timestamp(300));
  EXPECT_DOUBLE_EQ(cal.Raw("k")->push_mean_ns, 200.0);
}

TEST(CostCalibratorTest, ObservedRatesOverrideCostModelEstimates) {
  const LogicalPtr src = Src("S0");
  StatsCatalog catalog;
  catalog.SetSource("S0", 0.5, 10.0);
  CostCalibrator cal;
  cal.ObserveCounters(PlanSignature(*src), 0, 0, 0, 0.0, Timestamp(0));
  cal.ObserveCounters(PlanSignature(*src), 200, 200, 0, 0.0, Timestamp(100));
  EXPECT_DOUBLE_EQ(EstimatePlan(*src, catalog).rate, 0.5);
  EXPECT_DOUBLE_EQ(EstimatePlan(*src, catalog, &cal).rate, 2.0);
  // A node that was never observed keeps its structural estimate.
  const LogicalPtr other = Src("S1");
  catalog.SetSource("S1", 0.5, 10.0);
  EXPECT_DOUBLE_EQ(EstimatePlan(*other, catalog, &cal).rate, 0.5);
}

}  // namespace
}  // namespace genmig
