// Positive-negative bridge: the same continuous join evaluated under both
// physical models of Section 2 — the interval-based implementation [2,8] and
// the positive-negative tuple implementation [5,9] — including a GenMig
// migration in the PN engine (Section 4.6), with the outputs cross-checked
// snapshot-by-snapshot.
//
//   ./build/examples/pn_bridge

#include <cstdio>

#include "ops/join.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "ops/stateless.h"
#include "pn/pn_genmig.h"
#include "ref/checker.h"
#include "stream/generator.h"

using namespace genmig;  // NOLINT: example brevity.

namespace {

constexpr Duration kW = 300;

bool EqFirst(const Tuple& l, const Tuple& r) {
  return l.field(0) == r.field(0);
}

/// Interval engine: source -> window -> join -> sink.
MaterializedStream RunInterval(const std::vector<TimedTuple>& a,
                               const std::vector<TimedTuple>& b) {
  Source sa("a");
  Source sb("b");
  StatelessChain wa("wa", StatelessChain::Window(kW));
  StatelessChain wb("wb", StatelessChain::Window(kW));
  NestedLoopsJoin join("join", EqFirst);
  CollectorSink sink("sink");
  sa.ConnectTo(0, &wa, 0);
  sb.ConnectTo(0, &wb, 0);
  wa.ConnectTo(0, &join, 0);
  wb.ConnectTo(0, &join, 1);
  join.ConnectTo(0, &sink, 0);
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool ta = j >= b.size() || (i < a.size() && a[i].t <= b[j].t);
    if (ta) {
      sa.InjectRaw(a[i].tuple, a[i].t);
      ++i;
    } else {
      sb.InjectRaw(b[j].tuple, b[j].t);
      ++j;
    }
  }
  sa.Close();
  sb.Close();
  return sink.collected();
}

PnBox MakePnJoinBox() {
  PnBox box;
  PnJoin* join = box.Make<PnJoin>("join", EqFirst);
  PnFilter* in0 = box.Make<PnFilter>("i0", [](const Tuple&) { return true; });
  PnFilter* in1 = box.Make<PnFilter>("i1", [](const Tuple&) { return true; });
  in0->ConnectTo(0, join, 0);
  in1->ConnectTo(0, join, 1);
  box.AddInput(in0);
  box.AddInput(in1);
  box.output = join;
  return box;
}

/// PN engine with a GenMig migration at t=1500.
PnStream RunPn(const std::vector<TimedTuple>& a,
               const std::vector<TimedTuple>& b, int* migrations) {
  PnSource sa("a");
  PnSource sb("b");
  PnWindow wa("wa", kW);
  PnWindow wb("wb", kW);
  PnMigrationController controller("ctrl", MakePnJoinBox());
  PnCollector sink("sink");
  sa.ConnectTo(0, &wa, 0);
  sb.ConnectTo(0, &wb, 0);
  wa.ConnectTo(0, &controller, 0);
  wb.ConnectTo(0, &controller, 1);
  controller.ConnectTo(0, &sink, 0);
  size_t i = 0;
  size_t j = 0;
  bool fired = false;
  while (i < a.size() || j < b.size()) {
    const bool ta = j >= b.size() || (i < a.size() && a[i].t <= b[j].t);
    const int64_t t = ta ? a[i].t : b[j].t;
    if (!fired && t >= 1500) {
      controller.StartGenMig(MakePnJoinBox(), kW);
      fired = true;
    }
    if (ta) {
      sa.InjectRaw(a[i].tuple, a[i].t);
      ++i;
    } else {
      sb.InjectRaw(b[j].tuple, b[j].t);
      ++j;
    }
  }
  sa.Close();
  sb.Close();
  *migrations = controller.migrations_completed();
  return sink.collected();
}

}  // namespace

int main() {
  std::printf("=== interval vs positive-negative implementation bridge "
              "===\n\n");
  const auto a = GenerateKeyedStream(600, 5, 6, 21);
  const auto b = GenerateKeyedStream(600, 5, 6, 22);

  const MaterializedStream interval_out = RunInterval(a, b);
  int migrations = 0;
  const PnStream pn_out = RunPn(a, b, &migrations);

  std::printf("interval engine: %zu result elements (2 timestamps each)\n",
              interval_out.size());
  std::printf("PN engine:       %zu result elements (1 timestamp + sign "
              "each), %d GenMig migration(s) included\n",
              pn_out.size(), migrations);

  // Cross-model check: "even at this physical level, the semantic
  // equivalence of both approaches becomes obvious" (Section 2.3).
  std::set<Timestamp> points;
  ref::CollectEndpoints(interval_out, &points);
  for (const PnElement& e : pn_out) points.insert(e.t);
  size_t mismatches = 0;
  for (const Timestamp& p : points) {
    if (!ref::BagsEqual(ref::SnapshotAt(interval_out, p),
                        PnSnapshotAt(pn_out, p))) {
      ++mismatches;
    }
  }
  std::printf("cross-model snapshot check: %zu instants, %zu mismatches "
              "(%s)\n",
              points.size(), mismatches, mismatches == 0 ? "PASS" : "FAIL");
  std::printf("note the PN model's doubled element count — the drawback the "
              "interval approach avoids (Section 2.3).\n");
  return mismatches == 0 ? 0 : 1;
}
