// Logical-to-physical compilation: builds a Box (physical plan) from a
// logical plan tree. Each source leaf becomes one box input port (a Relay),
// in left-to-right leaf order; the Executor binds ports to input streams by
// that order.

#ifndef GENMIG_PLAN_COMPILE_H_
#define GENMIG_PLAN_COMPILE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "plan/box.h"
#include "plan/logical.h"

namespace genmig {

/// Physical compilation knobs.
struct CompileOptions {
  /// Collapses every maximal chain (length >= 2) of adjacent stateless
  /// operators — selection, projection, time-based window — into a single
  /// FusedStateless loop operator (ops/fused.h). Off by default: fused plans
  /// have different operator names/counts, which plan-shape-sensitive tests
  /// and cost models must opt into.
  bool fuse_stateless = false;
};

/// Compiles `root` into a physical Box. Operator names are derived from the
/// logical node kinds and a running counter, prefixed with `name_prefix`
/// (the parallel shard runtimes pass "s<k>/" so per-shard metric slots stay
/// distinguishable in one shared registry).
Box CompilePlan(const LogicalNode& root, const std::string& name_prefix = "",
                const CompileOptions& options = {});

/// A factory that builds a fresh (state-free) Box every time it is invoked.
/// Migration strategies use it to instantiate the new plan.
using BoxFactory = std::function<Box()>;

/// Wraps a logical plan into a BoxFactory.
BoxFactory MakeBoxFactory(LogicalPtr plan, CompileOptions options = {});

}  // namespace genmig

#endif  // GENMIG_PLAN_COMPILE_H_
