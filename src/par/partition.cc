#include "par/partition.h"

#include <map>
#include <optional>
#include <utility>

#include "common/check.h"

namespace genmig {
namespace par {
namespace {

/// A column's provenance: (leaf index, column in that leaf's schema).
using Origin = std::pair<size_t, size_t>;

/// Union-find over origins.
class OriginSets {
 public:
  size_t IdOf(const Origin& o) {
    auto [it, inserted] = ids_.try_emplace(o, parent_.size());
    if (inserted) parent_.push_back(it->second);
    return it->second;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(const Origin& a, const Origin& b) {
    parent_[Find(IdOf(a))] = Find(IdOf(b));
  }
  bool SameSet(size_t a, size_t b) { return Find(a) == Find(b); }

  const std::map<Origin, size_t>& ids() const { return ids_; }

 private:
  std::map<Origin, size_t> ids_;
  std::vector<size_t> parent_;
};

struct NodeInfo {
  /// Per output column: which leaf column it passes through unchanged
  /// (nullopt for computed columns — none exist today, but Aggregate would
  /// introduce them if it ever became partitionable).
  std::vector<std::optional<Origin>> origins;
};

class Analyzer {
 public:
  explicit Analyzer(PartitionSpec* spec) : spec_(spec) {}

  std::optional<NodeInfo> Walk(const LogicalNode& node) {
    switch (node.kind) {
      case LogicalNode::Kind::kSource: {
        const size_t leaf = spec_->ports.size();
        PortKey port;
        port.source = node.source_name;
        spec_->ports.push_back(port);
        NodeInfo info;
        for (size_t c = 0; c < node.schema.size(); ++c) {
          info.origins.emplace_back(Origin{leaf, c});
        }
        return info;
      }
      case LogicalNode::Kind::kWindow: {
        if (node.window_kind == LogicalNode::WindowKind::kCount) {
          return Fail("count window depends on global arrival order");
        }
        const size_t leaf_before = spec_->ports.size();
        auto child = Walk(*node.children[0]);
        if (!child) return std::nullopt;
        // Window directly above a leaf: record it for that port.
        if (node.children[0]->kind == LogicalNode::Kind::kSource) {
          spec_->ports[leaf_before].window = node.window;
        }
        if (spec_->max_window < node.window) {
          spec_->max_window = node.window;
        }
        return child;
      }
      case LogicalNode::Kind::kSelect:
        return Walk(*node.children[0]);
      case LogicalNode::Kind::kProject: {
        auto child = Walk(*node.children[0]);
        if (!child) return std::nullopt;
        NodeInfo info;
        for (size_t f : node.project_fields) {
          GENMIG_CHECK(f < child->origins.size());
          info.origins.push_back(child->origins[f]);
        }
        return info;
      }
      case LogicalNode::Kind::kJoin: {
        auto left = Walk(*node.children[0]);
        if (!left) return std::nullopt;
        auto right = Walk(*node.children[1]);
        if (!right) return std::nullopt;
        if (!node.equi_keys.has_value()) {
          return Fail("theta join without an equi-key pair");
        }
        const auto [lk, rk] = *node.equi_keys;
        GENMIG_CHECK(lk < left->origins.size());
        GENMIG_CHECK(rk < right->origins.size());
        const std::optional<Origin>& lo = left->origins[lk];
        const std::optional<Origin>& ro = right->origins[rk];
        if (!lo.has_value() || !ro.has_value()) {
          return Fail("join key is a computed column");
        }
        sets_.Union(*lo, *ro);
        constrained_.push_back(*lo);
        NodeInfo info;
        info.origins = std::move(left->origins);
        info.origins.insert(info.origins.end(), right->origins.begin(),
                            right->origins.end());
        return info;
      }
      case LogicalNode::Kind::kDedup: {
        auto child = Walk(*node.children[0]);
        if (!child) return std::nullopt;
        // Defer the key-visibility check until all joins are unioned.
        std::vector<Origin> visible;
        for (const auto& o : child->origins) {
          if (o.has_value()) visible.push_back(*o);
        }
        dedup_inputs_.push_back(std::move(visible));
        return child;
      }
      case LogicalNode::Kind::kAggregate:
        return Fail("aggregate groups span shards");
      case LogicalNode::Kind::kUnion:
        return Fail("union has no co-partitioning key constraint");
      case LogicalNode::Kind::kDifference:
        return Fail("difference has no co-partitioning key constraint");
    }
    return Fail("unknown node kind");
  }

  /// After the walk: resolve the global partition class and per-leaf keys.
  bool Resolve() {
    const size_t leaves = spec_->ports.size();
    if (leaves == 0) return FailFlat("plan has no source leaves");

    if (!constrained_.empty()) {
      // All join-constrained columns must share one union-find class.
      const size_t cls = sets_.Find(sets_.IdOf(constrained_.front()));
      for (const Origin& o : constrained_) {
        if (!sets_.SameSet(sets_.IdOf(o), cls)) {
          return FailFlat("join keys induce more than one partition class");
        }
      }
      // Each leaf needs a column in the class; pick the smallest.
      std::vector<std::optional<size_t>> key(leaves);
      for (const auto& [origin, id] : sets_.ids()) {
        if (!sets_.SameSet(sets_.Find(id), cls)) continue;
        auto& slot = key[origin.first];
        if (!slot.has_value() || *slot > origin.second) slot = origin.second;
      }
      for (size_t l = 0; l < leaves; ++l) {
        if (!key[l].has_value()) {
          return FailFlat("leaf '" + spec_->ports[l].source +
                          "' is not connected to the partition class");
        }
        spec_->ports[l].column = *key[l];
      }
      // Dedup must see at least one class column.
      for (const auto& visible : dedup_inputs_) {
        bool covered = false;
        for (const Origin& o : visible) {
          if (sets_.SameSet(sets_.IdOf(o), sets_.Find(cls))) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          return FailFlat("dedup input does not retain a partition key");
        }
      }
      return true;
    }

    // No joins: exactly one leaf (multi-leaf plans need a join; unions and
    // differences already failed the walk).
    GENMIG_CHECK_EQ(leaves, size_t{1});
    if (dedup_inputs_.empty()) {
      spec_->ports[0].column = 0;
      return true;
    }
    // Pick the smallest source column visible in EVERY dedup input.
    std::optional<size_t> best;
    const std::vector<Origin>& first = dedup_inputs_.front();
    for (const Origin& cand : first) {
      bool everywhere = true;
      for (const auto& visible : dedup_inputs_) {
        bool found = false;
        for (const Origin& o : visible) {
          if (o == cand) {
            found = true;
            break;
          }
        }
        if (!found) {
          everywhere = false;
          break;
        }
      }
      if (everywhere && (!best.has_value() || *best > cand.second)) {
        best = cand.second;
      }
    }
    if (!best.has_value()) {
      return FailFlat("dedup input does not retain any source column");
    }
    spec_->ports[0].column = *best;
    return true;
  }

 private:
  std::optional<NodeInfo> Fail(const std::string& reason) {
    if (spec_->reason.empty()) spec_->reason = reason;
    return std::nullopt;
  }
  bool FailFlat(const std::string& reason) {
    if (spec_->reason.empty()) spec_->reason = reason;
    return false;
  }

  PartitionSpec* spec_;
  OriginSets sets_;
  std::vector<Origin> constrained_;
  std::vector<std::vector<Origin>> dedup_inputs_;
};

}  // namespace

std::string PartitionSpec::ToString() const {
  if (!ok) return "not partitionable: " + reason;
  std::string out = "partition by";
  for (const PortKey& p : ports) {
    out += " " + p.source + "[" + std::to_string(p.column) + "]";
  }
  return out;
}

PartitionSpec AnalyzePlan(const LogicalNode& windowed_root) {
  PartitionSpec spec;
  Analyzer analyzer(&spec);
  auto info = analyzer.Walk(windowed_root);
  if (!info.has_value()) return spec;  // reason already set.
  spec.ok = analyzer.Resolve();
  return spec;
}

size_t OwnerShard(const Tuple& tuple, size_t column, size_t shards) {
  GENMIG_CHECK(shards > 0);
  GENMIG_CHECK(column < tuple.size());
  return OwnerShard(tuple.field(column), shards);
}

}  // namespace par
}  // namespace genmig
