// End-to-end integration: CQL text -> logical plan -> physical box ->
// execution with live migrations -> snapshot-equivalence oracle; plus a
// chaos sweep that fires randomized sequences of migrations.

#include <gtest/gtest.h>

#include "../migration/migration_test_util.h"
#include "cql/parser.h"
#include "engine/dsms.h"

namespace genmig {
namespace {

using testutil::MakeKeyedInputs;

cql::Catalog MakeCatalog(int streams) {
  cql::Catalog catalog;
  for (int s = 0; s < streams; ++s) {
    catalog.Register("S" + std::to_string(s), Schema::OfInts({"x"}));
  }
  return catalog;
}

TEST(EndToEndTest, CqlPairMigratesUnderEveryApplicableStrategy) {
  cql::Catalog catalog = MakeCatalog(2);
  const LogicalPtr old_plan =
      cql::ParseQuery(
          "SELECT DISTINCT S0.x FROM S0 [RANGE 60], S1 [RANGE 60] "
          "WHERE S0.x = S1.x",
          catalog)
          .ValueOrDie();
  // The rewritten form, as CQL cannot express it: dedup pushed down.
  const LogicalPtr new_plan = *rules::PushDownDedup(old_plan);
  auto inputs = MakeKeyedInputs(2, 150, 4, 3, /*seed=*/301);

  // GenMig / coalesce.
  MigrationController::GenMigOptions opts;
  opts.window = 60;
  auto gm = testutil::RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(250),
      [&](MigrationController& c, Box b) {
        c.StartGenMig(std::move(b), opts);
      });
  EXPECT_EQ(gm.migrations_completed, 1);
  EXPECT_TRUE(ref::CheckPlanOutput(*old_plan, inputs, gm.output).ok());

  // Parallel Track — expected to corrupt this rewrite (Section 3.2).
  auto pt = testutil::RunLogicalMigration(
      old_plan, new_plan, inputs, Timestamp(250),
      [&](MigrationController& c, Box b) {
        c.StartParallelTrack(std::move(b), 60);
      },
      Executor::Options(), /*relax_sink=*/true);
  EXPECT_FALSE(ref::CheckPlanOutput(*old_plan, inputs, pt.output).ok());
}

TEST(EndToEndTest, DsmsDistinctJoinReoptimizesToDedupPushdown) {
  Dsms::Options options;
  options.stats_horizon = 500;
  Dsms dsms(options);
  // Heavy duplicates: 3 keys at high rate make dedup pushdown attractive.
  dsms.RegisterStream("S0", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(800, 2, 3, 302)));
  dsms.RegisterStream("S1", Schema::OfInts({"x"}),
                      ToPhysicalStream(GenerateKeyedStream(800, 2, 3, 303)));
  auto id = dsms.InstallQuery(
      "SELECT DISTINCT S0.x FROM S0 [RANGE 200], S1 [RANGE 200] "
      "WHERE S0.x = S1.x");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  dsms.RunUntil(Timestamp(600));
  EXPECT_EQ(dsms.ReoptimizeNow(), 1);  // Dedup pushdown pays off.
  dsms.RunToCompletion();
  EXPECT_EQ(dsms.Info(id.value()).migrations_completed, 1);
  EXPECT_TRUE(
      ref::CheckNoDuplicateSnapshots(dsms.Results(id.value())).ok());
}

struct ChaosParam {
  uint64_t seed;
  Executor::Policy policy;
};

class ChaosSweep : public testing::TestWithParam<ChaosParam> {};

TEST_P(ChaosSweep, RepeatedRandomMigrationsStayCorrect) {
  const ChaosParam& p = GetParam();
  std::mt19937_64 rng(p.seed);
  constexpr Duration kW = 30;

  using namespace logical;  // NOLINT
  auto ws = [&](int i) {
    return Window(SourceNode("S" + std::to_string(i),
                             Schema::OfInts({"x"})),
                  kW);
  };
  std::vector<LogicalPtr> variants = {
      EquiJoin(EquiJoin(ws(0), ws(1), 0, 0), ws(2), 0, 0),
      EquiJoin(ws(0), EquiJoin(ws(1), ws(2), 0, 0), 0, 0),
      Join(EquiJoin(ws(0), ws(1), 0, 0), ws(2),
           Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0),
                         Expr::Column(2))),
  };

  auto inputs = MakeKeyedInputs(3, 300, 3, 4, p.seed);
  MigrationController controller(
      "ctrl", CompilePlan(*StripWindows(variants[0])));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);
  Executor::Options exec_opts;
  exec_opts.policy = p.policy;
  exec_opts.seed = p.seed;
  Executor exec(exec_opts);
  std::vector<std::unique_ptr<StatelessChain>> windows;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "S" + std::to_string(i);
    const int feed = exec.AddFeed(name, inputs.at(name));
    windows.push_back(std::make_unique<StatelessChain>(
        "w" + name, StatelessChain::Window(kW)));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, &controller, i);
  }

  // Fire migrations at random times; skip if one is still in flight.
  int64_t next_trigger = 100 + static_cast<int64_t>(rng() % 100);
  int fired = 0;
  while (!exec.finished()) {
    exec.RunUntil(Timestamp(next_trigger));
    if (exec.finished()) break;
    if (!controller.migration_in_progress()) {
      const LogicalPtr target =
          variants[static_cast<size_t>(rng() % variants.size())];
      Box new_box = CompilePlan(*StripWindows(target));
      MigrationController::GenMigOptions opts;
      opts.window = kW;
      if (rng() % 2 == 0) {
        opts.variant =
            MigrationController::GenMigOptions::Variant::kRefPoint;
      }
      if (rng() % 4 == 0) opts.end_timestamp_split = true;
      controller.StartGenMig(std::move(new_box), opts);
      ++fired;
    }
    next_trigger += 40 + static_cast<int64_t>(rng() % 120);
  }
  exec.RunToCompletion();
  EXPECT_GE(fired, 2);
  EXPECT_TRUE(IsOrderedByStart(sink.collected()));
  const Status eq =
      ref::CheckPlanOutput(*variants[0], inputs, sink.collected());
  EXPECT_TRUE(eq.ok()) << "seed " << p.seed << ": " << eq.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, ChaosSweep,
    testing::Values(ChaosParam{1, Executor::Policy::kGlobalOrder},
                    ChaosParam{2, Executor::Policy::kGlobalOrder},
                    ChaosParam{3, Executor::Policy::kRoundRobin},
                    ChaosParam{4, Executor::Policy::kRoundRobin},
                    ChaosParam{5, Executor::Policy::kRandom},
                    ChaosParam{6, Executor::Policy::kRandom},
                    ChaosParam{7, Executor::Policy::kRandom},
                    ChaosParam{8, Executor::Policy::kGlobalOrder}),
    [](const testing::TestParamInfo<ChaosParam>& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace genmig
