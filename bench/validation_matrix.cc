// Validation matrix (Section 5, first paragraph: "we validated GenMig for a
// variety of transformation rules beyond join reordering"): runs every
// transformation rule under every applicable migration strategy and checks
// the merged output against the reference snapshot oracle.
//
// Two matrices: rules x migration variants on the uniform workload, then
// rules x workload classes (Zipf key skew, bursty arrival rate, bounded
// disorder through a DisorderBuffer feed) under the coalesce variant — the
// oracle is always the in-order reference evaluation.

#include <cstdio>

#include "migration/controller.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "ref/eval.h"
#include "stream/generator.h"

using namespace genmig;           // NOLINT
using namespace genmig::logical;  // NOLINT

namespace {

constexpr Duration kW = 60;

LogicalPtr WS(const std::string& name) {
  return Window(SourceNode(name, Schema::OfInts({"x"})), kW);
}

struct Rule {
  const char* name;
  LogicalPtr old_plan;
  LogicalPtr new_plan;
  int streams;
  bool refpoint_safe;  // Optimization 1 applies (interval-preserving ops).
};

std::vector<Rule> MakeRules() {
  auto lt2 = Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0),
                           Expr::Const(Value(int64_t{2})));
  auto eq01 =
      Expr::Compare(Expr::CmpOp::kEq, Expr::Column(0), Expr::Column(1));
  std::vector<Rule> rules;
  rules.push_back({"join reordering (left->right deep)",
                   EquiJoin(EquiJoin(WS("S0"), WS("S1"), 0, 0), WS("S2"), 0,
                            0),
                   EquiJoin(WS("S0"),
                            EquiJoin(WS("S1"), WS("S2"), 0, 0), 0, 0),
                   3, true});
  rules.push_back({"hash join -> nested loops join",
                   EquiJoin(WS("S0"), WS("S1"), 0, 0),
                   Join(WS("S0"), WS("S1"), eq01), 2, true});
  rules.push_back(
      {"dedup pushdown (Figure 2)",
       Dedup(Project(EquiJoin(WS("S0"), WS("S1"), 0, 0), {0})),
       Project(EquiJoin(Dedup(WS("S0")), Dedup(WS("S1")), 0, 0), {0}), 2,
       false});
  rules.push_back({"selection pushdown",
                   Select(EquiJoin(WS("S0"), WS("S1"), 0, 0), lt2),
                   EquiJoin(Select(WS("S0"), lt2), WS("S1"), 0, 0), 2,
                   true});
  rules.push_back(
      {"aggregation over rewritten join",
       Aggregate(EquiJoin(WS("S0"), WS("S1"), 0, 0), {0},
                 {{AggKind::kCount, 0}, {AggKind::kSum, 1}}),
       Aggregate(Join(WS("S0"), WS("S1"), eq01), {0},
                 {{AggKind::kCount, 0}, {AggKind::kSum, 1}}),
       2, false});
  rules.push_back(
      {"difference with selection pushdown",
       Select(Difference(WS("S0"), WS("S1")), lt2),
       Difference(Select(WS("S0"), lt2), Select(WS("S1"), lt2)), 2, false});
  rules.push_back({"union commutativity", Union(WS("S0"), WS("S1")),
                   Union(WS("S1"), WS("S0")), 2, true});
  return rules;
}

enum class Workload {
  kUniform,   // Uniform keys, constant rate (the original matrix).
  kZipf,      // Zipf(1.2) key skew, constant rate.
  kBursty,    // Zipf(0.8) keys, dense bursts with long idle stretches.
  kDisorder,  // Uniform keys delivered through a bounded shuffle + buffer.
};

/// Ordered (oracle-view) input streams for one workload class.
ref::InputMap MakeInputs(const Rule& rule, Workload w, uint64_t seed) {
  ref::InputMap inputs;
  for (int s = 0; s < rule.streams; ++s) {
    const uint64_t ss = seed + static_cast<uint64_t>(s);
    std::vector<TimedTuple> raw;
    switch (w) {
      case Workload::kUniform:
      case Workload::kDisorder:
        raw = GenerateKeyedStream(150, 4, 4, ss);
        break;
      case Workload::kZipf:
        raw = GenerateZipfStream(150, 4, 4, /*skew=*/1.2, ss);
        break;
      case Workload::kBursty: {
        AdversarialStreamSpec spec;
        spec.count = 150;
        spec.period = 4;
        spec.num_keys = 4;
        spec.zipf_skew = 0.8;
        spec.profile = RateProfile::kBursty;
        spec.burst_len = 12;
        spec.burst_idle_factor = 8;
        spec.seed = ss;
        raw = GenerateAdversarialStream(spec);
        break;
      }
    }
    inputs["S" + std::to_string(s)] = ToPhysicalStream(raw);
  }
  return inputs;
}

/// Runs one migration and reports whether the output matched the oracle.
bool RunOne(const Rule& rule, bool refpoint, uint64_t seed,
            Workload workload = Workload::kUniform) {
  const ref::InputMap inputs = MakeInputs(rule, workload, seed);
  Box old_box = CompilePlan(*StripWindows(rule.old_plan));
  Box new_box = CompilePlan(*StripWindows(rule.new_plan));
  new_box.ReorderInputs(CollectSourceNames(*StripWindows(rule.old_plan)));

  MigrationController controller("ctrl", std::move(old_box));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);
  Executor exec;
  std::vector<std::unique_ptr<StatelessChain>> windows;
  const auto names = CollectSourceNames(*rule.old_plan);
  const auto leaf_windows = CollectLeafWindows(*rule.old_plan);
  for (size_t i = 0; i < names.size(); ++i) {
    int feed;
    if (workload == Workload::kDisorder) {
      // Bounded shuffle of the ordered stream, replayed through a lossless
      // DisorderBuffer (delta = realized max lateness => zero drops, so the
      // released sequence equals the ordered stream the oracle sees).
      const DisorderedArrivals d = ApplyBoundedShuffle(
          inputs.at(names[i]), /*window=*/10, seed * 31 + i);
      DisorderBuffer::Options dopt;
      dopt.delta = d.max_lateness;
      feed = exec.AddDisorderedFeed(names[i], d.arrivals, dopt);
    } else {
      feed = exec.AddFeed(names[i], inputs.at(names[i]));
    }
    windows.push_back(std::make_unique<StatelessChain>(
        "w" + std::to_string(i), StatelessChain::Window(leaf_windows[i])));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, &controller, static_cast<int>(i));
  }
  exec.RunUntil(Timestamp(250));
  MigrationController::GenMigOptions opts;
  opts.window = kW;
  if (refpoint) {
    opts.variant = MigrationController::GenMigOptions::Variant::kRefPoint;
  }
  controller.StartGenMig(std::move(new_box), opts);
  exec.RunToCompletion();
  if (controller.migrations_completed() != 1) return false;
  return ref::CheckPlanOutput(*rule.old_plan, inputs, sink.collected()).ok();
}

}  // namespace

int main() {
  std::printf("GenMig validation matrix: transformation rules x variants\n");
  std::printf("(correctness against the snapshot-equivalence oracle; 3 "
              "random workloads per cell)\n\n");
  std::printf("%-40s %-18s %-18s\n", "transformation rule",
              "genmig/coalesce", "genmig/refpoint");
  int pass = 0;
  int total = 0;
  for (const Rule& rule : MakeRules()) {
    bool coalesce_ok = true;
    bool refpoint_ok = true;
    for (uint64_t seed : {11u, 22u, 33u}) {
      coalesce_ok &= RunOne(rule, /*refpoint=*/false, seed);
      if (rule.refpoint_safe) {
        refpoint_ok &= RunOne(rule, /*refpoint=*/true, seed);
      }
    }
    std::printf("%-40s %-18s %-18s\n", rule.name,
                coalesce_ok ? "PASS" : "FAIL",
                rule.refpoint_safe ? (refpoint_ok ? "PASS" : "FAIL")
                                   : "n/a (see docs)");
    pass += (coalesce_ok ? 1 : 0) + (rule.refpoint_safe && refpoint_ok);
    total += 1 + (rule.refpoint_safe ? 1 : 0);
  }

  std::printf("\nworkload classes (genmig/coalesce): Zipf(1.2) key skew, "
              "bursty rate, bounded disorder via DisorderBuffer\n\n");
  std::printf("%-40s %-10s %-10s %-10s\n", "transformation rule", "zipf",
              "bursty", "disorder");
  const Workload kClasses[] = {Workload::kZipf, Workload::kBursty,
                               Workload::kDisorder};
  for (const Rule& rule : MakeRules()) {
    bool ok[3] = {true, true, true};
    for (int w = 0; w < 3; ++w) {
      for (uint64_t seed : {11u, 22u, 33u}) {
        ok[w] &= RunOne(rule, /*refpoint=*/false, seed, kClasses[w]);
      }
      pass += ok[w] ? 1 : 0;
      ++total;
    }
    std::printf("%-40s %-10s %-10s %-10s\n", rule.name,
                ok[0] ? "PASS" : "FAIL", ok[1] ? "PASS" : "FAIL",
                ok[2] ? "PASS" : "FAIL");
  }

  std::printf("\n%d/%d strategy/rule/workload combinations correct\n", pass,
              total);
  return pass == total ? 0 : 1;
}
