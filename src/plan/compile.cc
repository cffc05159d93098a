#include "plan/compile.h"

#include "ops/count_window.h"
#include "ops/dedup.h"
#include "ops/difference.h"
#include "ops/fused.h"
#include "ops/join.h"
#include "ops/union_op.h"

namespace genmig {
namespace {

/// True for logical nodes the fusion pass may absorb into a FusedStateless.
bool IsFusible(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalNode::Kind::kSelect:
    case LogicalNode::Kind::kProject:
      return true;
    case LogicalNode::Kind::kWindow:
      return node.window_kind == LogicalNode::WindowKind::kTime;
    default:
      return false;
  }
}

/// Scalar + columnar predicate pair for a compiled selection.
Filter::Predicate PredicateFor(const ExprPtr& pred) {
  return [pred](const Tuple& t) { return pred->EvalBool(t); };
}
Filter::BatchPredicate BatchPredicateFor(const ExprPtr& pred) {
  return [pred](const TupleBatch& batch, std::vector<uint8_t>* keep) {
    pred->EvalBoolBatch(batch, keep);
  };
}

class Compiler {
 public:
  Compiler(Box* box, std::string name_prefix, const CompileOptions& options)
      : box_(box), name_prefix_(std::move(name_prefix)), options_(options) {}

  Operator* Compile(const LogicalNode& node) {
    if (options_.fuse_stateless && IsFusible(node)) {
      // Walk down the maximal stateless chain rooted here. The chain is
      // collected top-down; stages execute bottom-up (child first).
      std::vector<const LogicalNode*> chain;
      const LogicalNode* cur = &node;
      while (IsFusible(*cur)) {
        chain.push_back(cur);
        cur = cur->children[0].get();
      }
      if (chain.size() >= 2) {
        Operator* child = Compile(*cur);
        std::vector<FusedStateless::Stage> stages;
        stages.reserve(chain.size());
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
          stages.push_back(StageFor(**it));
        }
        FusedStateless* f =
            box_->Make<FusedStateless>(Name("fused"), std::move(stages));
        child->ConnectTo(0, f, 0);
        return f;
      }
    }
    switch (node.kind) {
      case LogicalNode::Kind::kSource: {
        Relay* relay = box_->Make<Relay>(Name("in_" + node.source_name));
        box_->AddInput(relay, node.source_name);
        return relay;
      }
      case LogicalNode::Kind::kWindow: {
        Operator* child = Compile(*node.children[0]);
        Operator* w = nullptr;
        if (node.window_kind == LogicalNode::WindowKind::kTime) {
          w = box_->Make<TimeWindow>(Name("window"), node.window);
        } else {
          w = box_->Make<CountWindow>(Name("count_window"),
                                      node.window_rows);
        }
        child->ConnectTo(0, w, 0);
        return w;
      }
      case LogicalNode::Kind::kSelect: {
        Operator* child = Compile(*node.children[0]);
        Filter* f =
            box_->Make<Filter>(Name("select"), PredicateFor(node.predicate),
                               BatchPredicateFor(node.predicate));
        child->ConnectTo(0, f, 0);
        return f;
      }
      case LogicalNode::Kind::kProject: {
        Operator* child = Compile(*node.children[0]);
        Map* m = box_->Make<Map>(Name("project"),
                                 Map::Projection(node.project_fields),
                                 Map::BatchProjection(node.project_fields));
        child->ConnectTo(0, m, 0);
        return m;
      }
      case LogicalNode::Kind::kJoin: {
        Operator* left = Compile(*node.children[0]);
        Operator* right = Compile(*node.children[1]);
        JoinBase* join = nullptr;
        if (node.equi_keys.has_value() && node.predicate == nullptr) {
          join = box_->Make<SymmetricHashJoin>(
              Name("hashjoin"), node.equi_keys->first,
              node.equi_keys->second);
        } else {
          ExprPtr pred = node.predicate;
          std::optional<std::pair<size_t, size_t>> keys = node.equi_keys;
          join = box_->Make<NestedLoopsJoin>(
              Name("nljoin"), [pred, keys](const Tuple& l, const Tuple& r) {
                if (keys.has_value() &&
                    !(l.field(keys->first) ==
                      r.field(keys->second))) {
                  return false;
                }
                if (pred == nullptr) return true;
                return pred->EvalBool(Tuple::Concat(l, r));
              });
        }
        left->ConnectTo(0, join, 0);
        right->ConnectTo(0, join, 1);
        return join;
      }
      case LogicalNode::Kind::kDedup: {
        Operator* child = Compile(*node.children[0]);
        DuplicateElimination* d =
            box_->Make<DuplicateElimination>(Name("dedup"));
        child->ConnectTo(0, d, 0);
        return d;
      }
      case LogicalNode::Kind::kAggregate: {
        Operator* child = Compile(*node.children[0]);
        AggregateOp* a = box_->Make<AggregateOp>(Name("aggregate"),
                                             node.group_fields, node.aggs);
        child->ConnectTo(0, a, 0);
        return a;
      }
      case LogicalNode::Kind::kUnion: {
        Operator* left = Compile(*node.children[0]);
        Operator* right = Compile(*node.children[1]);
        UnionOp* u = box_->Make<UnionOp>(Name("union"), 2);
        left->ConnectTo(0, u, 0);
        right->ConnectTo(0, u, 1);
        return u;
      }
      case LogicalNode::Kind::kDifference: {
        Operator* left = Compile(*node.children[0]);
        Operator* right = Compile(*node.children[1]);
        DifferenceOp* d = box_->Make<DifferenceOp>(Name("difference"));
        left->ConnectTo(0, d, 0);
        right->ConnectTo(0, d, 1);
        return d;
      }
    }
    GENMIG_CHECK(false);
  }

 private:
  /// Translates one fusible logical node into a fused-chain stage.
  FusedStateless::Stage StageFor(const LogicalNode& node) {
    switch (node.kind) {
      case LogicalNode::Kind::kSelect:
        return FusedStateless::FilterStage(PredicateFor(node.predicate),
                                           BatchPredicateFor(node.predicate));
      case LogicalNode::Kind::kProject:
        return FusedStateless::MapStage(
            Map::Projection(node.project_fields),
            Map::BatchProjection(node.project_fields));
      case LogicalNode::Kind::kWindow:
        return FusedStateless::WindowStage(node.window);
      default:
        GENMIG_CHECK(false);
    }
  }

  std::string Name(const std::string& base) {
    return name_prefix_ + base + "#" + std::to_string(counter_++);
  }

  Box* box_;
  std::string name_prefix_;
  CompileOptions options_;
  int counter_ = 0;
};

}  // namespace

Box CompilePlan(const LogicalNode& root, const std::string& name_prefix,
                const CompileOptions& options) {
  Box box;
  Compiler compiler(&box, name_prefix, options);
  Operator* out = compiler.Compile(root);
  box.SetOutput(out);
  return box;
}

BoxFactory MakeBoxFactory(LogicalPtr plan, CompileOptions options) {
  return [plan, options]() { return CompilePlan(*plan, "", options); };
}

}  // namespace genmig
