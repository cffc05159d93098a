// Transformation rules. All rules preserve snapshot equivalence (they are
// the conventional relational rules applied to snapshot-reducible operators,
// Section 2.1), so any plan they produce is a legal GenMig migration target.

#ifndef GENMIG_OPT_RULES_H_
#define GENMIG_OPT_RULES_H_

#include <optional>
#include <vector>

#include "opt/cost.h"
#include "plan/logical.h"

namespace genmig {
namespace rules {

/// Selection pushdown: moves each conjunct of a Select above a Join into the
/// child whose columns it references exclusively. Returns nullopt if nothing
/// moved.
std::optional<LogicalPtr> PushDownSelect(const LogicalPtr& plan);

/// Duplicate-elimination pushdown (the Figure 2 rule): rewrites
/// Dedup(Project(EquiJoin(a, b))) and Dedup(EquiJoin(a, b)) into the
/// pushed-down form EquiJoin(Dedup(a), Dedup(b)) when the join keys make the
/// rewrite snapshot-equivalent (single-column tuples joined on that column).
std::optional<LogicalPtr> PushDownDedup(const LogicalPtr& plan);

/// Flattens a tree of equi-joins over single-column windowed sources (the
/// experiment workloads; every column is a transitively shared key) and
/// returns the leaf subplans, or nullopt if the plan does not have that
/// shape.
std::optional<std::vector<LogicalPtr>> FlattenEquiJoinChain(
    const LogicalPtr& plan);

/// Greedy join-order search over a flattened equi-join chain: repeatedly
/// joins the two cheapest (lowest estimated output rate) subplans. Returns
/// nullopt when the plan is not a reorderable join chain.
std::optional<LogicalPtr> ReorderJoins(const LogicalPtr& plan,
                                       const StatsCatalog& catalog);

/// All candidate rewrites of `plan` (including `plan` itself).
std::vector<LogicalPtr> EnumerateRewrites(const LogicalPtr& plan,
                                          const StatsCatalog& catalog);

/// Cheapest rewrite of `plan` other than `plan` itself, costed under `stats`
/// and the observed-rate overlay `observed` (nullable). Returns null when no
/// rewrite exists; `*best_cost` is its estimated cost (0 without one).
LogicalPtr BestCandidate(const LogicalPtr& plan, const StatsCatalog& stats,
                         const PlanObservations* observed, double* best_cost);

}  // namespace rules
}  // namespace genmig

#endif  // GENMIG_OPT_RULES_H_
