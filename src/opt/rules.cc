#include "opt/rules.h"

#include <algorithm>

#include "common/check.h"

namespace genmig {
namespace rules {
namespace {

using Kind = LogicalNode::Kind;

/// Splits a predicate into its top-level conjuncts.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == Expr::Kind::kAnd) {
    CollectConjuncts(expr->children()[0], out);
    CollectConjuncts(expr->children()[1], out);
    return;
  }
  out->push_back(expr);
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr result = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = Expr::And(result, conjuncts[i]);
  }
  return result;
}

/// True when the node is Window(Source) or Source — a leaf a dedup or
/// selection can be pushed onto.
bool IsWindowedSource(const LogicalNode& node) {
  if (node.kind == Kind::kSource) return true;
  return node.kind == Kind::kWindow &&
         node.children[0]->kind == Kind::kSource;
}

}  // namespace

std::optional<LogicalPtr> PushDownSelect(const LogicalPtr& plan) {
  // Recurse first so nested opportunities are found.
  bool changed = false;
  std::vector<LogicalPtr> children = plan->children;
  for (LogicalPtr& child : children) {
    if (auto rewritten = PushDownSelect(child)) {
      child = *rewritten;
      changed = true;
    }
  }
  LogicalPtr base = plan;
  if (changed) {
    auto copy = std::make_shared<LogicalNode>(*plan);
    copy->children = children;
    base = copy;
  }

  if (base->kind != Kind::kSelect ||
      base->children[0]->kind != Kind::kJoin) {
    return changed ? std::optional<LogicalPtr>(base) : std::nullopt;
  }

  const LogicalPtr join = base->children[0];
  const size_t left_cols = join->children[0]->schema.size();
  const size_t total_cols = join->schema.size();
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(base->predicate, &conjuncts);

  std::vector<ExprPtr> left_preds;
  std::vector<ExprPtr> right_preds;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    if (c->ColumnsWithin(0, left_cols)) {
      left_preds.push_back(c);
    } else if (c->ColumnsWithin(left_cols, total_cols)) {
      right_preds.push_back(
          c->ShiftColumns(-static_cast<int64_t>(left_cols)));
    } else {
      residual.push_back(c);
    }
  }
  if (left_preds.empty() && right_preds.empty()) {
    return changed ? std::optional<LogicalPtr>(base) : std::nullopt;
  }

  LogicalPtr left = join->children[0];
  LogicalPtr right = join->children[1];
  if (!left_preds.empty()) left = logical::Select(left, AndAll(left_preds));
  if (!right_preds.empty()) {
    right = logical::Select(right, AndAll(right_preds));
  }
  LogicalPtr new_join;
  if (join->equi_keys.has_value() && join->predicate == nullptr) {
    new_join = logical::EquiJoin(left, right, join->equi_keys->first,
                                 join->equi_keys->second);
  } else {
    new_join = logical::Join(left, right, join->predicate);
    if (join->equi_keys.has_value()) {
      auto copy = std::make_shared<LogicalNode>(*new_join);
      copy->equi_keys = join->equi_keys;
      new_join = copy;
    }
  }
  if (!residual.empty()) {
    return logical::Select(new_join, AndAll(residual));
  }
  return new_join;
}

std::optional<LogicalPtr> PushDownDedup(const LogicalPtr& plan) {
  bool changed = false;
  std::vector<LogicalPtr> children = plan->children;
  for (LogicalPtr& child : children) {
    if (auto rewritten = PushDownDedup(child)) {
      child = *rewritten;
      changed = true;
    }
  }
  LogicalPtr base = plan;
  if (changed) {
    auto copy = std::make_shared<LogicalNode>(*plan);
    copy->children = children;
    base = copy;
  }

  if (base->kind != Kind::kDedup) {
    return changed ? std::optional<LogicalPtr>(base) : std::nullopt;
  }
  // Pattern: Dedup(Project?(EquiJoin(a, b))) where both sides are
  // single-column windowed sources joined on that column — then the join
  // result is fully determined by the key, and dedup distributes.
  LogicalPtr below = base->children[0];
  std::optional<std::vector<size_t>> project_fields;
  if (below->kind == Kind::kProject) {
    project_fields = below->project_fields;
    below = below->children[0];
  }
  if (below->kind != Kind::kJoin || !below->equi_keys.has_value() ||
      below->predicate != nullptr) {
    return changed ? std::optional<LogicalPtr>(base) : std::nullopt;
  }
  const LogicalPtr a = below->children[0];
  const LogicalPtr b = below->children[1];
  if (!IsWindowedSource(*a) || !IsWindowedSource(*b) ||
      a->schema.size() != 1 || b->schema.size() != 1) {
    return changed ? std::optional<LogicalPtr>(base) : std::nullopt;
  }
  LogicalPtr join = logical::EquiJoin(logical::Dedup(a), logical::Dedup(b),
                                      below->equi_keys->first,
                                      below->equi_keys->second);
  if (project_fields.has_value()) {
    return logical::Project(join, *project_fields);
  }
  return join;
}

std::optional<std::vector<LogicalPtr>> FlattenEquiJoinChain(
    const LogicalPtr& plan) {
  if (plan->kind != Kind::kJoin || !plan->equi_keys.has_value() ||
      plan->predicate != nullptr) {
    return std::nullopt;
  }
  // Chains over single-column windowed sources connected by equi joins are
  // reorder-safe without attribute remapping: every column is a key column
  // and the equalities are transitively shared, so the rebuilt tree can join
  // on column 0 throughout.
  std::vector<LogicalPtr> leaves;
  for (const LogicalPtr& child : plan->children) {
    if (child->kind == Kind::kJoin) {
      auto sub = FlattenEquiJoinChain(child);
      if (!sub.has_value()) return std::nullopt;
      leaves.insert(leaves.end(), sub->begin(), sub->end());
    } else if (IsWindowedSource(*child) && child->schema.size() == 1) {
      leaves.push_back(child);
    } else {
      return std::nullopt;
    }
  }
  return leaves;
}

namespace {
void CollectChainLeaves(const LogicalPtr& node,
                        std::vector<LogicalPtr>* out) {
  if (node->kind == LogicalNode::Kind::kJoin) {
    for (const LogicalPtr& child : node->children) {
      CollectChainLeaves(child, out);
    }
    return;
  }
  out->push_back(node);
}
}  // namespace

namespace {
/// Reorders the join chain rooted exactly at `plan` (no recursion).
std::optional<LogicalPtr> ReorderChainAt(const LogicalPtr& plan,
                                         const StatsCatalog& catalog);
}  // namespace

std::optional<LogicalPtr> ReorderJoins(const LogicalPtr& plan,
                                       const StatsCatalog& catalog) {
  // Try the node itself first; otherwise recurse so chains below projections
  // or selections are found too.
  if (auto reordered = ReorderChainAt(plan, catalog)) return reordered;
  bool changed = false;
  std::vector<LogicalPtr> children = plan->children;
  for (LogicalPtr& child : children) {
    if (auto rewritten = ReorderJoins(child, catalog)) {
      child = *rewritten;
      changed = true;
    }
  }
  if (!changed) return std::nullopt;
  auto copy = std::make_shared<LogicalNode>(*plan);
  copy->children = std::move(children);
  return copy;
}

namespace {
std::optional<LogicalPtr> ReorderChainAt(const LogicalPtr& plan,
                                         const StatsCatalog& catalog) {
  auto leaves = FlattenEquiJoinChain(plan);
  if (!leaves.has_value() || leaves->size() < 3) return std::nullopt;

  // Greedy: repeatedly join the two subplans with the lowest estimated
  // output rate (minimizing intermediate stream rates).
  std::vector<LogicalPtr> pool = *leaves;
  while (pool.size() > 1) {
    size_t best_i = 0;
    size_t best_j = 1;
    double best_rate = -1.0;
    for (size_t i = 0; i < pool.size(); ++i) {
      for (size_t j = i + 1; j < pool.size(); ++j) {
        const LogicalPtr candidate = logical::EquiJoin(pool[i], pool[j], 0, 0);
        const double rate = EstimatePlan(*candidate, catalog).rate;
        if (best_rate < 0 || rate < best_rate) {
          best_rate = rate;
          best_i = i;
          best_j = j;
        }
      }
    }
    LogicalPtr joined = logical::EquiJoin(pool[best_i], pool[best_j], 0, 0);
    pool.erase(pool.begin() + static_cast<int64_t>(best_j));
    pool.erase(pool.begin() + static_cast<int64_t>(best_i));
    pool.push_back(joined);
  }
  // Restore the original output column order with a projection (each leaf
  // contributes one column).
  std::vector<LogicalPtr> reordered_leaves;
  CollectChainLeaves(pool[0], &reordered_leaves);
  std::vector<size_t> fields;
  for (const LogicalPtr& original : *leaves) {
    size_t pos = 0;
    for (; pos < reordered_leaves.size(); ++pos) {
      if (reordered_leaves[pos] == original) break;
    }
    GENMIG_CHECK_LT(pos, reordered_leaves.size());
    fields.push_back(pos);
  }
  bool identity = true;
  for (size_t i = 0; i < fields.size(); ++i) identity &= fields[i] == i;
  if (identity) return pool[0];
  return logical::Project(pool[0], fields);
}
}  // namespace

std::vector<LogicalPtr> EnumerateRewrites(const LogicalPtr& plan,
                                          const StatsCatalog& catalog) {
  std::vector<LogicalPtr> out = {plan};
  if (auto p = PushDownSelect(plan)) out.push_back(*p);
  if (auto p = PushDownDedup(plan)) out.push_back(*p);
  for (size_t i = 0, n = out.size(); i < n; ++i) {
    if (auto p = ReorderJoins(out[i], catalog)) out.push_back(*p);
  }
  // Compose: dedup pushdown after select pushdown etc.
  if (out.size() > 1) {
    if (auto p = PushDownDedup(out[1])) out.push_back(*p);
  }
  return out;
}

LogicalPtr BestCandidate(const LogicalPtr& plan, const StatsCatalog& stats,
                         const PlanObservations* observed, double* best_cost) {
  LogicalPtr best;
  *best_cost = 0.0;
  for (const LogicalPtr& candidate : EnumerateRewrites(plan, stats)) {
    if (candidate == plan) continue;
    const double cost = EstimatePlan(*candidate, stats, observed).cost;
    if (best == nullptr || cost < *best_cost) {
      best = candidate;
      *best_cost = cost;
    }
  }
  return best;
}

}  // namespace rules

}  // namespace genmig
