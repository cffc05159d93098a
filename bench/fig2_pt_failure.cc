// Figure 2 / Example 1 (Section 3.2): the Parallel Track strategy produces
// duplicate snapshots when duplicate elimination is pushed below a join,
// while GenMig stays correct. Prints the per-snapshot multiplicity of the
// affected tuple around the migration, plus a randomized summary.

#include <cstdio>

#include "migration/controller.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "ref/eval.h"
#include "stream/generator.h"

using namespace genmig;           // NOLINT
using namespace genmig::logical;  // NOLINT

namespace {

constexpr Duration kW = 100;

LogicalPtr WS(const std::string& name) {
  return Window(SourceNode(name, Schema::OfInts({"x"})), kW);
}
LogicalPtr OldPlan() {
  return Dedup(Project(EquiJoin(WS("A"), WS("B"), 0, 0), {0}));
}
LogicalPtr NewPlan() {
  return Project(EquiJoin(Dedup(WS("A")), Dedup(WS("B")), 0, 0), {0});
}

StreamElement El(int64_t v, int64_t t) {
  return StreamElement(Tuple::OfInts({v}),
                       TimeInterval(Timestamp(t), Timestamp(t + 1)));
}

MaterializedStream RunScenario(bool use_genmig, const ref::InputMap& inputs,
                               int64_t migration_start) {
  MigrationController controller("ctrl",
                                 CompilePlan(*StripWindows(OldPlan())));
  CollectorSink sink("sink");
  sink.SetRelaxedInputOrdering(0);
  controller.ConnectTo(0, &sink, 0);
  Executor exec;
  StatelessChain wa("wa", StatelessChain::Window(kW));
  StatelessChain wb("wb", StatelessChain::Window(kW));
  exec.ConnectFeed(exec.AddFeed("A", inputs.at("A")), &wa, 0);
  exec.ConnectFeed(exec.AddFeed("B", inputs.at("B")), &wb, 0);
  wa.ConnectTo(0, &controller, 0);
  wb.ConnectTo(0, &controller, 1);
  exec.RunUntil(Timestamp(migration_start));
  Box new_box = CompilePlan(*StripWindows(NewPlan()));
  if (use_genmig) {
    MigrationController::GenMigOptions opts;
    opts.window = kW;
    controller.StartGenMig(std::move(new_box), opts);
  } else {
    controller.StartParallelTrack(std::move(new_box), kW);
  }
  exec.RunToCompletion();
  return sink.collected();
}

}  // namespace

int main() {
  std::printf("Figure 2 / Example 1: duplicate elimination pushed below the "
              "join; w=%lld, migration start 40\n\n",
              static_cast<long long>(kW));

  // The Example 1 style trace: a on B at 20 (pre-migration), a on A at 50
  // and on B at 70 (post-migration).
  ref::InputMap inputs;
  inputs["A"] = {El(1, 50)};
  inputs["B"] = {El(1, 20), El(1, 70)};

  MaterializedStream pt = RunScenario(/*use_genmig=*/false, inputs, 40);
  MaterializedStream gm = RunScenario(/*use_genmig=*/true, inputs, 40);
  MaterializedStream expected = ref::EvalPlanToStream(*OldPlan(), inputs);

  std::printf("%10s %10s %10s %10s   (multiplicity of tuple (1))\n",
              "snapshot", "expected", "pt", "genmig");
  for (int64_t t = 40; t <= 180; t += 10) {
    const Timestamp ts(t);
    std::printf("%10lld %10zu %10zu %10zu%s\n", static_cast<long long>(t),
                ref::SnapshotAt(expected, ts).size(),
                ref::SnapshotAt(pt, ts).size(),
                ref::SnapshotAt(gm, ts).size(),
                ref::SnapshotAt(pt, ts).size() !=
                        ref::SnapshotAt(expected, ts).size()
                    ? "   <-- PT duplicate"
                    : "");
  }

  std::printf("\nPT output duplicate-free: %s\n",
              ref::CheckNoDuplicateSnapshots(pt).ok() ? "yes" : "NO");
  std::printf("GenMig output duplicate-free: %s\n",
              ref::CheckNoDuplicateSnapshots(gm).ok() ? "yes" : "NO");
  std::printf("PT snapshot-equivalent to query: %s\n",
              ref::CheckPlanOutput(*OldPlan(), inputs, pt).ok() ? "yes"
                                                                : "NO");
  std::printf("GenMig snapshot-equivalent to query: %s\n",
              ref::CheckPlanOutput(*OldPlan(), inputs, gm).ok() ? "yes"
                                                                : "NO");

  // Randomized sweep: how often does PT corrupt the output?
  int pt_failures = 0;
  int gm_failures = 0;
  const int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    ref::InputMap rnd;
    rnd["A"] = ToPhysicalStream(
        GenerateKeyedStream(60, 7, 2, 1000 + static_cast<uint64_t>(trial)));
    rnd["B"] = ToPhysicalStream(
        GenerateKeyedStream(60, 7, 2, 2000 + static_cast<uint64_t>(trial)));
    if (!ref::CheckPlanOutput(*OldPlan(), rnd,
                              RunScenario(false, rnd, 150))
             .ok()) {
      ++pt_failures;
    }
    if (!ref::CheckPlanOutput(*OldPlan(), rnd, RunScenario(true, rnd, 150))
             .ok()) {
      ++gm_failures;
    }
  }
  std::printf("\nrandomized dedup-pushdown migrations (%d trials): "
              "PT incorrect in %d, GenMig incorrect in %d\n",
              kTrials, pt_failures, gm_failures);
  return 0;
}
