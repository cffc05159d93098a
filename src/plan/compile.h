// Logical-to-physical compilation: builds a Box (physical plan) from a
// logical plan tree. Each source leaf becomes one box input port (a Relay),
// in left-to-right leaf order; the Executor binds ports to input streams by
// that order. Every maximal chain of adjacent select/project/time-window
// nodes, a single node included, becomes one StatelessChain (ops/
// stateless.h); every other node becomes one operator. The compiler is the
// one module that knows which logical nodes share an operator: it records
// the pairing in Box::op_nodes().

#ifndef GENMIG_PLAN_COMPILE_H_
#define GENMIG_PLAN_COMPILE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "plan/box.h"
#include "plan/logical.h"

namespace genmig {

/// Compiles `root` into a physical Box. Operator names are derived from the
/// logical node kinds and a running counter, prefixed with `name_prefix`
/// (the parallel shard runtimes pass "s<k>/" so per-shard metric slots stay
/// distinguishable in one shared registry). A stateless chain is named
/// after its stages in execution order joined by '+' ("select#3",
/// "select+project#3").
Box CompilePlan(const LogicalNode& root, const std::string& name_prefix = "");

/// A factory that builds a fresh (state-free) Box every time it is invoked.
/// Migration strategies use it to instantiate the new plan.
using BoxFactory = std::function<Box()>;

/// Wraps a logical plan into a BoxFactory.
BoxFactory MakeBoxFactory(LogicalPtr plan);

}  // namespace genmig

#endif  // GENMIG_PLAN_COMPILE_H_
