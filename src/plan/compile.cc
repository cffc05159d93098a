#include "plan/compile.h"

#include "ops/count_window.h"
#include "ops/dedup.h"
#include "ops/difference.h"
#include "ops/join.h"
#include "ops/stateless.h"
#include "ops/union_op.h"

namespace genmig {
namespace {

/// True for the logical nodes a StatelessChain implements as one stage.
bool IsStatelessStage(const LogicalNode& node) {
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

class Compiler {
 public:
  Compiler(Box* box, std::string name_prefix)
      : box_(box), name_prefix_(std::move(name_prefix)) {}

  /// Post-order node index of every operator made so far, in ops() order.
  std::vector<size_t> TakeOpNodes() { return std::move(op_nodes_); }

  Operator* Compile(const LogicalNode& node) {
    if (IsStatelessStage(node)) return CompileChain(node);
    switch (node.kind) {
      case LogicalNode::Kind::kSource: {
        Relay* relay = Make<Relay>("in_" + node.source_name);
        box_->AddInput(relay, node.source_name);
        return relay;
      }
      case LogicalNode::Kind::kWindow: {  // Count-based; time is a stage.
        Operator* child = Compile(*node.children[0]);
        CountWindow* w = Make<CountWindow>("count_window", node.window_rows);
        child->ConnectTo(0, w, 0);
        return w;
      }
      case LogicalNode::Kind::kJoin: {
        Operator* left = Compile(*node.children[0]);
        Operator* right = Compile(*node.children[1]);
        JoinBase* join = nullptr;
        if (node.equi_keys.has_value() && node.predicate == nullptr) {
          join = Make<SymmetricHashJoin>("hashjoin", node.equi_keys->first,
                                         node.equi_keys->second);
        } else {
          ExprPtr pred = node.predicate;
          std::optional<std::pair<size_t, size_t>> keys = node.equi_keys;
          join = Make<NestedLoopsJoin>(
              "nljoin", [pred, keys](const Tuple& l, const Tuple& r) {
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
        DuplicateElimination* d = Make<DuplicateElimination>("dedup");
        child->ConnectTo(0, d, 0);
        return d;
      }
      case LogicalNode::Kind::kAggregate: {
        Operator* child = Compile(*node.children[0]);
        AggregateOp* a =
            Make<AggregateOp>("aggregate", node.group_fields, node.aggs);
        child->ConnectTo(0, a, 0);
        return a;
      }
      case LogicalNode::Kind::kUnion: {
        Operator* left = Compile(*node.children[0]);
        Operator* right = Compile(*node.children[1]);
        UnionOp* u = Make<UnionOp>("union", 2);
        left->ConnectTo(0, u, 0);
        right->ConnectTo(0, u, 1);
        return u;
      }
      case LogicalNode::Kind::kDifference: {
        Operator* left = Compile(*node.children[0]);
        Operator* right = Compile(*node.children[1]);
        DifferenceOp* d = Make<DifferenceOp>("difference");
        left->ConnectTo(0, d, 0);
        right->ConnectTo(0, d, 1);
        return d;
      }
      case LogicalNode::Kind::kSelect:
      case LogicalNode::Kind::kProject:
        break;  // Stateless stages: compiled by CompileChain.
    }
    GENMIG_CHECK(false);
  }

 private:
  /// Compiles the maximal stateless chain topped by `top` into one
  /// StatelessChain. The chain is collected top-down; its stages execute
  /// bottom-up (child first).
  Operator* CompileChain(const LogicalNode& top) {
    std::vector<const LogicalNode*> chain;
    const LogicalNode* cur = &top;
    while (IsStatelessStage(*cur)) {
      chain.push_back(cur);
      cur = cur->children[0].get();
    }
    Operator* child = Compile(*cur);
    std::vector<StatelessChain::Stage> stages;
    std::string name;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const LogicalNode& node = **it;
      if (!name.empty()) name += "+";
      switch (node.kind) {
        case LogicalNode::Kind::kSelect: {
          const ExprPtr pred = node.predicate;
          stages.push_back(StatelessChain::Select(
              [pred](const Tuple& t) { return pred->EvalBool(t); },
              [pred](const TupleBatch& batch, std::vector<uint8_t>* keep) {
                pred->EvalBoolBatch(batch, keep);
              }));
          name += "select";
          break;
        }
        case LogicalNode::Kind::kProject:
          stages.push_back(StatelessChain::Project(node.project_fields));
          name += "project";
          break;
        default:
          stages.push_back(StatelessChain::Window(node.window));
          name += "window";
          break;
      }
    }
    // The stages below the top node complete before it in post-order; the
    // operator is recorded under the top node.
    next_node_ += chain.size() - 1;
    StatelessChain* op = Make<StatelessChain>(name, std::move(stages));
    child->ConnectTo(0, op, 0);
    return op;
  }

  /// Makes the operator implementing the logical node that completes next
  /// in post-order (its children are compiled already).
  template <typename Op, typename... Args>
  Op* Make(const std::string& base, Args&&... args) {
    op_nodes_.push_back(next_node_++);
    std::string name = name_prefix_ + base + "#" + std::to_string(counter_++);
    return box_->Make<Op>(std::move(name), std::forward<Args>(args)...);
  }

  Box* box_;
  std::string name_prefix_;
  int counter_ = 0;
  size_t next_node_ = 0;
  std::vector<size_t> op_nodes_;
};

}  // namespace

Box CompilePlan(const LogicalNode& root, const std::string& name_prefix) {
  Box box;
  Compiler compiler(&box, name_prefix);
  Operator* out = compiler.Compile(root);
  box.SetOutput(out);
  box.SetOpNodes(compiler.TakeOpNodes());
  return box;
}

BoxFactory MakeBoxFactory(LogicalPtr plan) {
  return [plan]() { return CompilePlan(*plan); };
}

}  // namespace genmig
