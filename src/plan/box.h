// Box: the physical realization of a (sub)plan — "we use the term box to
// refer to the implementation of a plan, i.e., the physical query plan
// actually executed" (Section 3). A Box owns its operators and exposes
// stable input ports (Relay operators) plus a single output operator, so a
// running box can be unplugged and replaced as one unit during migration.

#ifndef GENMIG_PLAN_BOX_H_
#define GENMIG_PLAN_BOX_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ops/operator.h"
#include "ops/stateless.h"

namespace genmig {

class Box {
 public:
  Box() = default;
  Box(Box&&) = default;
  Box& operator=(Box&&) = default;

  /// Adds an operator to the box and returns a borrowed pointer.
  template <typename Op>
  Op* Add(std::unique_ptr<Op> op) {
    Op* raw = op.get();
    ops_.push_back(std::move(op));
    return raw;
  }

  /// Creates, adds and returns an operator.
  template <typename Op, typename... Args>
  Op* Make(Args&&... args) {
    return Add(std::make_unique<Op>(std::forward<Args>(args)...));
  }

  /// Declares `op` the i-th input port of the box (in call order). Ports are
  /// usually Relay operators so the inner wiring stays private. `name`
  /// identifies the input stream the port expects (used to rebind ports by
  /// name when a rewritten plan permutes its source leaves).
  void AddInput(Operator* op, std::string name = "") {
    inputs_.push_back(op);
    input_names_.push_back(std::move(name));
  }

  const std::vector<std::string>& input_names() const { return input_names_; }

  /// Reorders the input ports so that port i serves stream `names[i]`.
  /// Duplicate names are matched in order. Aborts if the name multisets
  /// differ.
  void ReorderInputs(const std::vector<std::string>& names) {
    GENMIG_CHECK_EQ(names.size(), inputs_.size());
    std::vector<Operator*> new_inputs;
    std::vector<std::string> new_names;
    std::vector<bool> used(inputs_.size(), false);
    for (const std::string& name : names) {
      bool found = false;
      for (size_t i = 0; i < inputs_.size(); ++i) {
        if (!used[i] && input_names_[i] == name) {
          used[i] = true;
          new_inputs.push_back(inputs_[i]);
          new_names.push_back(input_names_[i]);
          found = true;
          break;
        }
      }
      GENMIG_CHECK(found);
    }
    inputs_ = std::move(new_inputs);
    input_names_ = std::move(new_names);
  }

  void SetOutput(Operator* op) { output_ = op; }

  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  Operator* input(int i) const { return inputs_[static_cast<size_t>(i)]; }
  const std::vector<Operator*>& inputs() const { return inputs_; }
  Operator* output() const { return output_; }

  const std::vector<std::unique_ptr<Operator>>& ops() const { return ops_; }

  /// For each operator (parallel to ops()), the post-order index of the
  /// logical node it implements in the plan the box was compiled from; a
  /// stateless chain records its top node. Empty for hand-wired boxes.
  const std::vector<size_t>& op_nodes() const { return op_nodes_; }
  void SetOpNodes(std::vector<size_t> op_nodes) {
    GENMIG_CHECK_EQ(op_nodes.size(), ops_.size());
    op_nodes_ = std::move(op_nodes);
  }

  /// Attaches every owned operator to `registry` (fresh per-instance metric
  /// slots; no-op under GENMIG_NO_METRICS or when `registry` is null).
  void AttachMetrics(obs::MetricsRegistry* registry) {
    for (const auto& op : ops_) op->AttachMetrics(registry);
  }

  // --- Aggregated introspection over all owned operators -------------------

  size_t StateBytes() const {
    size_t bytes = 0;
    for (const auto& op : ops_) bytes += op->StateBytes();
    return bytes;
  }
  size_t StateUnits() const {
    size_t units = 0;
    for (const auto& op : ops_) units += op->StateUnits();
    return units;
  }
  Timestamp MaxStateEnd() const {
    Timestamp max_end = Timestamp::MinInstant();
    for (const auto& op : ops_) {
      const Timestamp end = op->MaxStateEnd();
      if (max_end < end) max_end = end;
    }
    return max_end;
  }
  size_t CountStateWithEpochBelow(uint32_t epoch) const {
    size_t count = 0;
    for (const auto& op : ops_) count += op->CountStateWithEpochBelow(epoch);
    return count;
  }
  Timestamp MaxInsertedStartWithEpochBelow(uint32_t epoch) const {
    Timestamp hwm = Timestamp::MinInstant();
    for (const auto& op : ops_) {
      const Timestamp t = op->MaxInsertedStartWithEpochBelow(epoch);
      if (hwm < t) hwm = t;
    }
    return hwm;
  }

  /// Pushes EOS into every input port (drains the box).
  void SignalEosToInputs() {
    for (Operator* in : inputs_) {
      for (int port = 0; port < in->num_inputs(); ++port) {
        if (!in->input_eos(port)) in->PushEos(port);
      }
    }
  }

 private:
  std::vector<std::unique_ptr<Operator>> ops_;
  std::vector<size_t> op_nodes_;
  std::vector<Operator*> inputs_;
  std::vector<std::string> input_names_;
  Operator* output_ = nullptr;
};

}  // namespace genmig

#endif  // GENMIG_PLAN_BOX_H_
