// Randomized snapshot-equivalence harness: seeded random join/dedup/window
// plans, random migration points (state-bytes and periodic auto-triggers
// polled after every executor step), random executor scheduling — every
// run's output must be snapshot-equivalent to the src/ref no-migration
// oracle (Definition 2).
//
// The default seed set is fixed (CI-deterministic); set GENMIG_FUZZ_ITERS to
// run more iterations locally, e.g. GENMIG_FUZZ_ITERS=500. Failures print
// the offending seed; re-run with --gtest_filter and the seed stays in the
// deterministic sequence, or plug it into RunOneSeed directly.
//
// GENMIG_FUZZ_DISORDER=1 widens the Disordered* sweeps from their default
// smoke size to the full GENMIG_FUZZ_ITERS count: Zipf-keyed cases with
// bounded-shuffled (out-of-order) arrivals and a random mid-run migration in
// scalar, batched, sharded, and chain-tail modes, all against the exact
// in-order src/ref oracle.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "../migration/migration_test_util.h"
#include "migration/controller.h"
#include "par/coordinator.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "plan/logical.h"
#include "ref/checker.h"
#include "ref/eval.h"
#include "stream/disorder.h"
#include "stream/generator.h"

namespace genmig {
namespace {

size_t NumIters() {
  if (const char* env = std::getenv("GENMIG_FUZZ_ITERS")) {
    const long parsed = std::atol(env);  // NOLINT(runtime/int)
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 50;
}

/// A random join tree over `leaves` (each used exactly once) with all joins
/// on column 0 — every bracketing computes the same "all x equal" result up
/// to column permutation. `leaf_order` receives the leaf index sequence in
/// output-column order.
LogicalPtr RandomJoinTree(const std::vector<LogicalPtr>& leaves,
                          std::mt19937_64& rng,
                          std::vector<size_t>* leaf_order) {
  std::vector<std::pair<LogicalPtr, std::vector<size_t>>> pool;
  for (size_t i = 0; i < leaves.size(); ++i) pool.push_back({leaves[i], {i}});
  while (pool.size() > 1) {
    const size_t a = rng() % pool.size();
    auto left = std::move(pool[a]);
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(a));
    const size_t b = rng() % pool.size();
    auto right = std::move(pool[b]);
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(b));
    std::vector<size_t> order = left.second;
    order.insert(order.end(), right.second.begin(), right.second.end());
    pool.push_back(
        {logical::EquiJoin(left.first, right.first, 0, 0), std::move(order)});
  }
  *leaf_order = pool[0].second;
  return pool[0].first;
}

struct FuzzCase {
  LogicalPtr old_plan;
  LogicalPtr new_plan;
  ref::InputMap inputs;
  Duration max_window = 0;
  int64_t span = 0;  // Last input timestamp (roughly).
};

constexpr size_t kArity = 2;  // x = join key, y = payload telling ports apart.

FuzzCase MakeCase(uint64_t seed, bool zipf_keys = false) {
  std::mt19937_64 rng(seed);
  FuzzCase c;
  const size_t num_streams = 2 + rng() % 2;

  std::vector<LogicalPtr> leaves;
  for (size_t i = 0; i < num_streams; ++i) {
    const std::string name = "S" + std::to_string(i);
    const size_t count = 60 + rng() % 60;
    const int64_t period = 2 + static_cast<int64_t>(rng() % 6);
    const int64_t max_key = 2 + static_cast<int64_t>(rng() % 5);
    if (zipf_keys) {
      // Skewed join keys (hot key 0): drawn from a side rng so the shared
      // draws above keep the same consumption as the uniform branch.
      std::mt19937_64 krng(seed * 97 + i);
      const double skew =
          0.6 + static_cast<double>(rng() % 8) * 0.2;  // 0.6 .. 2.0.
      ZipfDistribution zipf(max_key + 1, skew);
      std::vector<TimedTuple> raw;
      int64_t t = 0;
      for (size_t n = 0; n < count; ++n, t += period) {
        raw.push_back(
            {Tuple::OfInts({zipf(krng), static_cast<int64_t>(krng() % 8)}),
             t});
      }
      c.inputs[name] = ToPhysicalStream(raw);
    } else {
      UniformStreamSpec spec;
      spec.count = count;
      spec.period = period;
      spec.min_value = 0;
      spec.max_value = max_key;  // Small key domain.
      spec.arity = kArity;
      spec.seed = seed * 97 + i;
      c.inputs[name] = ToPhysicalStream(GenerateUniformStream(spec));
    }
    c.span = std::max(c.span, c.inputs[name].back().interval.start.t);

    const Duration window = 20 + static_cast<Duration>(rng() % 80);
    c.max_window = std::max(c.max_window, window);
    leaves.push_back(logical::Window(
        logical::SourceNode(name, Schema::OfInts({"x", "y"})), window));
  }

  std::vector<size_t> old_order;
  std::vector<size_t> new_order;
  LogicalPtr old_tree = RandomJoinTree(leaves, rng, &old_order);
  LogicalPtr new_tree = RandomJoinTree(leaves, rng, &new_order);

  // Restore the old plan's column order on the new tree: old output column
  // block p belongs to leaf old_order[p]; find it in the new tree's order.
  std::vector<size_t> position_of(num_streams);
  for (size_t q = 0; q < new_order.size(); ++q) position_of[new_order[q]] = q;
  std::vector<size_t> fields;
  for (size_t p = 0; p < old_order.size(); ++p) {
    const size_t q = position_of[old_order[p]];
    for (size_t k = 0; k < kArity; ++k) fields.push_back(q * kArity + k);
  }
  LogicalPtr new_plan = logical::Project(new_tree, fields);

  if (rng() % 5 < 2) {  // Duplicate elimination on top of both plans.
    old_tree = logical::Dedup(old_tree);
    new_plan = logical::Dedup(new_plan);
  }
  c.old_plan = old_tree;
  c.new_plan = new_plan;
  return c;
}

/// Chain-tail mode. A fuzz plan's only stateless chain is otherwise the new
/// plan's one-stage column-restoring projection, so both plans get the same
/// select -> project tail, which the oracle sees too: it keeps the rows
/// whose payload y is not a seed-drawn value. The old box then holds a
/// "select+project" StatelessChain above its stateful part, the new box a
/// "project+select+project" one (its column-restoring projection joins in).
void AddChainTail(std::mt19937_64& rng, LogicalPtr* old_plan,
                  LogicalPtr* new_plan) {
  const ExprPtr keep =
      Expr::Compare(Expr::CmpOp::kNe, Expr::Column(1),
                    Expr::Const(Value(static_cast<int64_t>(rng() % 3))));
  std::vector<size_t> all((*old_plan)->schema.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  *old_plan = logical::Project(logical::Select(*old_plan, keep), all);
  *new_plan = logical::Project(logical::Select(*new_plan, keep), all);
}

bool HasFusedOperator(const Box& box) {
  for (const auto& op : box.ops()) {
    if (op->name().find("select+project#") != std::string::npos) return true;
  }
  return false;
}

/// The automatic migration trigger of the single-threaded modes. Armed at
/// the random trigger time with the new box, it is polled then and after
/// every executor step; while the controller hosts one plan and a stream is
/// still live, it starts the migration once the hosted state reaches
/// `state_threshold` bytes (state-bytes mode) or `period` units of the
/// executor's application time passed since arming (periodic mode). It
/// fires once.
struct AutoTrigger {
  bool use_state_bytes = false;
  size_t state_threshold = 0;
  Duration period = 0;
  MigrationController::GenMigOptions options;
  std::unique_ptr<Box> box;  // Null until armed and after firing.
  Timestamp anchor = Timestamp::MinInstant();

  void Poll(MigrationController& controller, Timestamp now) {
    if (anchor == Timestamp::MinInstant()) anchor = now;
    if (box == nullptr || controller.migration_in_progress() ||
        controller.all_inputs_eos()) {
      return;
    }
    if (use_state_bytes) {
      if (controller.StateBytes() < state_threshold) return;
    } else if (now.t - anchor.t < period) {
      return;
    }
    controller.StartGenMig(std::move(*box), options);
    box.reset();
  }
};

/// Runs one seeded case end to end and checks the output against the
/// no-migration oracle. Returns the number of completed migrations.
/// `batch_size` > 1 drives the identical case through the vectorized
/// injection path (Executor::Options::batch_size — PushBatch all the way to
/// the controller, including mid-batch T_split slicing). `chain_tail` adds
/// the select -> project tail to both plans (AddChainTail).
int RunOneSeed(uint64_t seed, size_t batch_size = 0, bool chain_tail = false) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  const FuzzCase c = MakeCase(seed);

  // Random migration point and auto-trigger flavor.
  const int64_t trigger_time =
      static_cast<int64_t>(rng() % static_cast<uint64_t>(c.span / 2 + 1));
  AutoTrigger auto_trigger;
  auto_trigger.use_state_bytes = rng() % 2 == 0;
  auto_trigger.state_threshold = 1 + rng() % 4096;
  auto_trigger.period =
      c.span / 4 + static_cast<Duration>(rng() % (c.span / 4 + 1));
  const bool dedup = c.old_plan->kind == LogicalNode::Kind::kDedup;
  MigrationController::GenMigOptions& options = auto_trigger.options;
  options.variant =
      !dedup && rng() % 3 == 0
          ? MigrationController::GenMigOptions::Variant::kRefPoint
          : MigrationController::GenMigOptions::Variant::kCoalesce;
  options.end_timestamp_split = rng() % 2 == 0;
  options.window = c.max_window;

  Executor::Options exec_options;
  const uint64_t policy_pick = rng() % 3;
  exec_options.policy = policy_pick == 0   ? Executor::Policy::kGlobalOrder
                        : policy_pick == 1 ? Executor::Policy::kRoundRobin
                                           : Executor::Policy::kRandom;
  exec_options.seed = seed;
  exec_options.eager_heartbeats = rng() % 2 == 0;
  exec_options.batch_size = batch_size;
  // Non-global-order scheduling interleaves sources arbitrarily; the merged
  // output is still snapshot-equivalent but only per-input ordered.
  const bool relax = exec_options.policy != Executor::Policy::kGlobalOrder;

  // Drawn last so the chain-tail sweep reuses the exact cases (plans,
  // inputs, triggers, scheduling) of the other sweeps above.
  LogicalPtr old_plan = c.old_plan;
  LogicalPtr new_plan = c.new_plan;
  if (chain_tail) AddChainTail(rng, &old_plan, &new_plan);

  auto result = testutil::RunLogicalMigration(
      old_plan, new_plan, c.inputs, Timestamp(trigger_time),
      [&](MigrationController&, Box new_box) {
        EXPECT_EQ(HasFusedOperator(new_box), chain_tail) << "seed=" << seed;
        auto_trigger.box = std::make_unique<Box>(std::move(new_box));
        // The new box's ports follow the new plan's (shuffled) leaf order;
        // the controller's ports follow the old plan's. Map by name, as the
        // engine does.
        auto_trigger.box->ReorderInputs(
            logical::CollectSourceNames(*c.old_plan));
      },
      exec_options, relax, {},
      [&](MigrationController& controller, Timestamp now) {
        auto_trigger.Poll(controller, now);
      });

  const Status eq = ref::CheckPlanOutput(*old_plan, c.inputs, result.output);
  EXPECT_TRUE(eq.ok()) << "seed=" << seed << ": " << eq.ToString();
  if (!relax) {
    EXPECT_TRUE(IsOrderedByStart(result.output)) << "seed=" << seed;
  }
  return result.migrations_completed;
}

/// Parallel mode: the same seeded case on the sharded executor. Every shard
/// count must produce a stream that is snapshot-equivalent to the oracle
/// AND canonically byte-identical across shard counts, with one coordinated
/// mid-run GenMig; a repeat run must be byte-identical raw (determinism).
void RunOneParallelSeed(uint64_t seed, size_t batch_size) {
  std::mt19937_64 rng(seed ^ 0xc2b2ae3d27d4eb4full);
  const FuzzCase c = MakeCase(seed);
  const bool dedup = c.old_plan->kind == LogicalNode::Kind::kDedup;

  const Timestamp at(
      static_cast<int64_t>(rng() % static_cast<uint64_t>(c.span / 2 + 1)));
  MigrationController::GenMigOptions base;
  base.variant = !dedup && rng() % 3 == 0
                     ? MigrationController::GenMigOptions::Variant::kRefPoint
                     : MigrationController::GenMigOptions::Variant::kCoalesce;
  base.end_timestamp_split = rng() % 2 == 0;
  const size_t queue_capacity = 16 + rng() % 128;

  auto run = [&](int shards) {
    par::Coordinator::Options options;
    options.shards = shards;
    options.queue_capacity = queue_capacity;
    // The draw of a removed heartbeat-period option, kept so every later
    // seed-derived draw stays the same.
    (void)rng();
    options.batch_size = batch_size;
    CollectorSink sink("sink");
    par::Coordinator coordinator(c.old_plan, &sink, options);
    EXPECT_TRUE(coordinator.spec().ok) << coordinator.spec().reason;
    EXPECT_TRUE(coordinator.ScheduleGenMig(c.new_plan, at, base).ok());
    const Status s = coordinator.Run(c.inputs);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(coordinator.migrations_completed(), shards > 0 ? 1 : 0)
        << "seed=" << seed << " shards=" << shards;
    return sink.collected();
  };

  MaterializedStream canonical;
  for (int shards : {1, 2, 4}) {
    const MaterializedStream out = run(shards);
    EXPECT_TRUE(IsOrderedByStart(out)) << "seed=" << seed;
    const Status eq = ref::CheckPlanOutput(*c.old_plan, c.inputs, out);
    EXPECT_TRUE(eq.ok()) << "seed=" << seed << " shards=" << shards << ": "
                         << eq.ToString();
    const MaterializedStream normal = ref::SnapshotNormalForm(out);
    if (shards == 1) {
      canonical = normal;
    } else {
      EXPECT_EQ(normal, canonical)
          << "seed=" << seed << " shards=" << shards
          << ": canonical output diverged from the 1-shard run";
    }
    if (shards == 2) {
      // rng state advanced inside run(); a fresh identical config must
      // reproduce the stream byte for byte.
      par::Coordinator::Options options;
      options.shards = shards;
      options.queue_capacity = queue_capacity;
      options.batch_size = batch_size;
      CollectorSink sink("sink");
      par::Coordinator repeat(c.old_plan, &sink, options);
      EXPECT_TRUE(repeat.ScheduleGenMig(c.new_plan, at, base).ok());
      EXPECT_TRUE(repeat.Run(c.inputs).ok());
      EXPECT_EQ(ref::SnapshotNormalForm(sink.collected()), canonical)
          << "seed=" << seed << ": repeat run diverged";
    }
  }
}

// --- Disorder mode (GENMIG_FUZZ_DISORDER) -----------------------------------
//
// Every seed re-runs a Zipf-keyed case with each input stream bounded-
// shuffled into a random arrival order. The DisorderBuffer allowance is set
// to the shuffle's realized max lateness, so reordering is lossless and the
// EXACT src/ref oracle (on the ordered inputs) still applies — disordered
// ingestion plus a mid-run GenMig must be indistinguishable from an in-order
// run. A short smoke sweep by default; set GENMIG_FUZZ_DISORDER (with
// GENMIG_FUZZ_ITERS) for the full sweep.

struct DisorderSpec {
  ref::InputMap arrivals;  // Per-stream arrival order (not start-ordered).
  std::map<std::string, DisorderBuffer::Options> options;
};

DisorderSpec MakeDisorder(const FuzzCase& c, uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x94d049bb133111ebull);
  DisorderSpec d;
  for (const auto& [name, stream] : c.inputs) {
    const size_t window = 1 + rng() % 30;
    const DisorderedArrivals shuffled =
        ApplyBoundedShuffle(stream, window, rng());
    d.arrivals[name] = shuffled.arrivals;
    DisorderBuffer::Options opt;
    opt.delta = shuffled.max_lateness;  // Lossless: zero drops.
    d.options[name] = opt;
  }
  return d;
}

int RunOneDisorderSeed(uint64_t seed, size_t batch_size = 0,
                       bool chain_tail = false) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  const FuzzCase c = MakeCase(seed, /*zipf_keys=*/true);
  const DisorderSpec d = MakeDisorder(c, seed);

  const int64_t trigger_time =
      static_cast<int64_t>(rng() % static_cast<uint64_t>(c.span / 2 + 1));
  AutoTrigger auto_trigger;
  auto_trigger.use_state_bytes = rng() % 2 == 0;
  auto_trigger.state_threshold = 1 + rng() % 4096;
  auto_trigger.period =
      c.span / 4 + static_cast<Duration>(rng() % (c.span / 4 + 1));
  const bool dedup = c.old_plan->kind == LogicalNode::Kind::kDedup;
  MigrationController::GenMigOptions& options = auto_trigger.options;
  options.variant =
      !dedup && rng() % 3 == 0
          ? MigrationController::GenMigOptions::Variant::kRefPoint
          : MigrationController::GenMigOptions::Variant::kCoalesce;
  options.end_timestamp_split = rng() % 2 == 0;
  options.window = c.max_window;

  Executor::Options exec_options;
  const uint64_t policy_pick = rng() % 3;
  exec_options.policy = policy_pick == 0   ? Executor::Policy::kGlobalOrder
                        : policy_pick == 1 ? Executor::Policy::kRoundRobin
                                           : Executor::Policy::kRandom;
  exec_options.seed = seed;
  exec_options.eager_heartbeats = rng() % 2 == 0;
  exec_options.batch_size = batch_size;
  const bool relax = exec_options.policy != Executor::Policy::kGlobalOrder;

  LogicalPtr old_plan = c.old_plan;
  LogicalPtr new_plan = c.new_plan;
  if (chain_tail) AddChainTail(rng, &old_plan, &new_plan);

  auto result = testutil::RunLogicalMigration(
      old_plan, new_plan, d.arrivals, Timestamp(trigger_time),
      [&](MigrationController&, Box new_box) {
        EXPECT_EQ(HasFusedOperator(new_box), chain_tail) << "seed=" << seed;
        auto_trigger.box = std::make_unique<Box>(std::move(new_box));
        auto_trigger.box->ReorderInputs(
            logical::CollectSourceNames(*c.old_plan));
      },
      exec_options, relax, d.options,
      [&](MigrationController& controller, Timestamp now) {
        auto_trigger.Poll(controller, now);
      });

  // The oracle sees the ORDERED inputs: with a lossless delta, the engine's
  // view after reordering must be exactly the ordered stream.
  const Status eq = ref::CheckPlanOutput(*old_plan, c.inputs, result.output);
  EXPECT_TRUE(eq.ok()) << "seed=" << seed << ": " << eq.ToString();
  if (!relax) {
    EXPECT_TRUE(IsOrderedByStart(result.output)) << "seed=" << seed;
  }
  return result.migrations_completed;
}

void RunOneDisorderParallelSeed(uint64_t seed, size_t batch_size) {
  std::mt19937_64 rng(seed ^ 0xc2b2ae3d27d4eb4full);
  const FuzzCase c = MakeCase(seed, /*zipf_keys=*/true);
  const DisorderSpec d = MakeDisorder(c, seed);
  const bool dedup = c.old_plan->kind == LogicalNode::Kind::kDedup;

  const Timestamp at(
      static_cast<int64_t>(rng() % static_cast<uint64_t>(c.span / 2 + 1)));
  MigrationController::GenMigOptions base;
  base.variant = !dedup && rng() % 3 == 0
                     ? MigrationController::GenMigOptions::Variant::kRefPoint
                     : MigrationController::GenMigOptions::Variant::kCoalesce;
  base.end_timestamp_split = rng() % 2 == 0;
  const size_t queue_capacity = 16 + rng() % 128;

  // The router reads ordered streams only: each disordered stream is
  // reordered once, as Dsms does before a sharded query starts.
  par::InputMap reordered;
  for (const auto& [name, arrivals] : d.arrivals) {
    reordered[name] = Reorder(arrivals, d.options.at(name));
    EXPECT_EQ(reordered[name].size(), arrivals.size())
        << "seed=" << seed << ": drops in " << name;
  }

  auto run = [&](int shards) {
    par::Coordinator::Options options;
    options.shards = shards;
    options.queue_capacity = queue_capacity;
    (void)rng();  // The removed heartbeat-period draw, as in run() above.
    options.batch_size = batch_size;
    CollectorSink sink("sink");
    par::Coordinator coordinator(c.old_plan, &sink, options);
    EXPECT_TRUE(coordinator.spec().ok) << coordinator.spec().reason;
    EXPECT_TRUE(coordinator.ScheduleGenMig(c.new_plan, at, base).ok());
    const Status s = coordinator.Run(reordered);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(coordinator.migrations_completed(), 1)
        << "seed=" << seed << " shards=" << shards;
    return sink.collected();
  };

  MaterializedStream canonical;
  for (int shards : {1, 2, 4}) {
    const MaterializedStream out = run(shards);
    EXPECT_TRUE(IsOrderedByStart(out)) << "seed=" << seed;
    const Status eq = ref::CheckPlanOutput(*c.old_plan, c.inputs, out);
    EXPECT_TRUE(eq.ok()) << "seed=" << seed << " shards=" << shards << ": "
                         << eq.ToString();
    const MaterializedStream normal = ref::SnapshotNormalForm(out);
    if (shards == 1) {
      canonical = normal;
    } else {
      EXPECT_EQ(normal, canonical)
          << "seed=" << seed << " shards=" << shards
          << ": canonical output diverged from the 1-shard run";
    }
  }
}

size_t DisorderIters() {
  return std::getenv("GENMIG_FUZZ_DISORDER") != nullptr ? NumIters() : 10;
}

TEST(EquivalenceFuzzTest, DisorderedPlansSurviveRandomAutoMigrations) {
  const size_t iters = DisorderIters();
  int total_migrations = 0;
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 3000 + i;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    total_migrations += RunOneDisorderSeed(seed);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
  EXPECT_GE(total_migrations, static_cast<int>(iters / 3))
      << "disorder fuzz harness migrated too rarely to be meaningful";
}

TEST(EquivalenceFuzzTest, DisorderedBatchedPlansSurviveRandomAutoMigrations) {
  const size_t iters = DisorderIters();
  int total_migrations = 0;
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 3000 + i;  // Same cases as the scalar disorder sweep.
    const size_t batch_size = 2 + (seed * 2654435761u) % 255;
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " batch_size=" + std::to_string(batch_size));
    total_migrations += RunOneDisorderSeed(seed, batch_size);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
  EXPECT_GE(total_migrations, static_cast<int>(iters / 3))
      << "disorder fuzz harness migrated too rarely to be meaningful";
}

TEST(EquivalenceFuzzTest, DisorderedShardedRunsMatchOracleAcrossShardCounts) {
  const size_t iters = DisorderIters();
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 3000 + i;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunOneDisorderParallelSeed(seed, /*batch_size=*/1);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
}

TEST(EquivalenceFuzzTest, DisorderedChainTailPlansSurviveRandomAutoMigrations) {
  const size_t iters = DisorderIters();
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 3000 + i;
    const size_t batch_size =
        i % 2 == 0 ? 0 : 2 + (seed * 2654435761u) % 255;
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " batch_size=" + std::to_string(batch_size));
    RunOneDisorderSeed(seed, batch_size, /*chain_tail=*/true);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
}

TEST(EquivalenceFuzzTest, ShardedRunsAreByteIdenticalAcrossShardCounts) {
  const size_t iters = NumIters();
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 7000 + i;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunOneParallelSeed(seed, /*batch_size=*/1);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
}

// Batched mode over the SAME seed sequence as the scalar test below: the
// identical cases (plans, inputs, triggers, scheduling policies) run through
// the vectorized injection path with a seed-derived batch size. Any
// divergence between the Push and PushBatch execution paths fails the same
// oracle check on the same seed — a batch/scalar differential at system
// scope, migrations included.
TEST(EquivalenceFuzzTest, BatchedRandomPlansSurviveRandomAutoMigrations) {
  const size_t iters = NumIters();
  int total_migrations = 0;
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 1000 + i;
    const size_t batch_size = 2 + (seed * 2654435761u) % 255;
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " batch_size=" + std::to_string(batch_size));
    total_migrations += RunOneSeed(seed, batch_size);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
  EXPECT_GE(total_migrations, static_cast<int>(iters / 3))
      << "batched fuzz harness migrated too rarely to be meaningful";
}

// Sharded AND batched: the router accumulates per-(port, shard) TupleBatches
// and the shard replicas run the vectorized path; the canonical output must
// still match the 1-shard run exactly.
TEST(EquivalenceFuzzTest, ShardedBatchedRunsMatchScalarCanonicalForm) {
  const size_t iters = NumIters();
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 7000 + i;
    const size_t batch_size = 2 + (seed * 2654435761u) % 127;
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " batch_size=" + std::to_string(batch_size));
    RunOneParallelSeed(seed, batch_size);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
}

// Chain-tail mode: the same cases with a select -> project tail on both
// plans, so both boxes run a multi-stage StatelessChain above the migrating
// join. Even seeds inject scalar, odd seeds batched.
TEST(EquivalenceFuzzTest, ChainTailPlansSurviveRandomAutoMigrations) {
  const size_t iters = NumIters();
  int total_migrations = 0;
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 1000 + i;  // Same cases as the interpreted sweeps.
    const size_t batch_size =
        i % 2 == 0 ? 0 : 2 + (seed * 2654435761u) % 255;
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " batch_size=" + std::to_string(batch_size));
    total_migrations += RunOneSeed(seed, batch_size, /*chain_tail=*/true);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
  EXPECT_GE(total_migrations, static_cast<int>(iters / 3))
      << "chain-tail fuzz harness migrated too rarely to be meaningful";
}

TEST(EquivalenceFuzzTest, RandomPlansSurviveRandomAutoMigrations) {
  const size_t iters = NumIters();
  int total_migrations = 0;
  for (size_t i = 0; i < iters; ++i) {
    const uint64_t seed = 1000 + i;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    total_migrations += RunOneSeed(seed);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed
                    << " (re-run with GENMIG_FUZZ_ITERS and this seed range)";
      break;
    }
  }
  // Most seeds must actually exercise a completed migration; a harness that
  // never migrates would vacuously pass the oracle check.
  EXPECT_GE(total_migrations, static_cast<int>(iters / 3))
      << "fuzz harness migrated too rarely to be meaningful";
}

}  // namespace
}  // namespace genmig
