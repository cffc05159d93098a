#include "ops/stateless.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "ops/sink.h"

namespace genmig {
namespace {

using testutil::El;
using testutil::El2;

// One-stage chains: the select, project and window stages on their own.

TEST(FilterTest, KeepsMatchingTuples) {
  auto pred = [](const Tuple& t) { return t.field(0).AsInt64() > 2; };
  StatelessChain f("select", StatelessChain::Select(pred));
  auto out = testutil::RunUnary(&f, {El(1, 1, 2), El(3, 2, 3), El(5, 3, 4)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tuple.field(0).AsInt64(), 3);
  EXPECT_EQ(out[1].tuple.field(0).AsInt64(), 5);
}

TEST(FilterTest, HeartbeatsAdvanceEvenWhenAllDropped) {
  Source src("s");
  auto none = [](const Tuple&) { return false; };
  StatelessChain f("select", StatelessChain::Select(none));
  CollectorSink sink("k");
  src.ConnectTo(0, &f, 0);
  f.ConnectTo(0, &sink, 0);
  src.Inject(El(1, 10, 11));
  EXPECT_EQ(sink.count(), 0u);
  // The dropped element still advanced downstream progress via heartbeat.
  EXPECT_EQ(sink.input_watermark(0), Timestamp(10));
}

TEST(MapTest, ProjectionKeepsIntervalAndEpoch) {
  StatelessChain m("project", StatelessChain::Project({1}));
  auto out = testutil::RunUnary(&m, {El2(7, 8, 5, 9, /*epoch=*/3)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple, Tuple::OfInts({8}));
  EXPECT_EQ(out[0].interval, TimeInterval(5, 9));
  EXPECT_EQ(out[0].epoch, 3u);
}

TEST(TimeWindowTest, ExtendsEndByWindowSize) {
  StatelessChain w("window", StatelessChain::Window(100));
  auto out = testutil::RunUnary(&w, {El(1, 20, 21)});
  ASSERT_EQ(out.size(), 1u);
  // The paper's running example: arrival at 20 with w=100 -> [20, 121).
  EXPECT_EQ(out[0].interval, TimeInterval(20, 121));
}

TEST(TimeWindowTest, ZeroWindowIsIdentity) {
  StatelessChain w("window", StatelessChain::Window(0));
  auto out = testutil::RunUnary(&w, {El(1, 5, 6)});
  EXPECT_EQ(out[0].interval, TimeInterval(5, 6));
}

TEST(StatelessChainTest, SelectionOnlyChainForwardsThePushedElement) {
  // The scalar path of a chain that changes no tuple and no interval hands
  // the pushed element itself downstream: no copy per row (the join
  // workload's select runs this path on every element of A).
  auto all = [](const Tuple&) { return true; };
  auto not_two = [](const Tuple& t) { return t.field(0).AsInt64() != 2; };
  StatelessChain f("select+select", {
      StatelessChain::Select(all),
      StatelessChain::Select(not_two),
  });
  CallbackOp tap("tap");
  std::vector<const StreamElement*> seen;
  tap.on_element = [&seen](const StreamElement& e) { seen.push_back(&e); };
  f.ConnectTo(0, &tap, 0);
  const StreamElement kept = El(1, 10, 11);
  const StreamElement dropped = El(2, 12, 13);
  f.PushElement(0, kept);
  f.PushElement(0, dropped);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], &kept);
}

}  // namespace
}  // namespace genmig
