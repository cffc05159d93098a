// Stateless operators: the Relay port and StatelessChain, the one
// implementation of selection, projection and the time-based sliding window.
//
// A window operator is placed downstream of each source that carries a
// window specification (Section 2.2). For a time-based sliding window of
// size w it extends each element's validity: [tS, tE) becomes [tS, tE + w).
// Stateless operators neither reorder nor buffer, so they preserve the
// physical-stream ordering trivially.
//
// The plan compiler (plan/compile.h) turns every maximal chain of adjacent
// select/project/time-window nodes, a single node included, into one
// StatelessChain: one virtual dispatch, one ordering check and one
// watermark/heartbeat/metrics pass per element or batch for the whole chain.
// Chaining is sound because the stages are stateless and orthogonal:
// selections and projections read only tuples (never validity intervals),
// window stages read only intervals (never tuples) and commute with the
// rest, so their end extensions are summed and applied once.

#ifndef GENMIG_OPS_STATELESS_H_
#define GENMIG_OPS_STATELESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ops/operator.h"

namespace genmig {

/// Identity pass-through. Serves as the stable input/output port of a Box so
/// that plan fragments can be re-wired (migration) without touching their
/// inner operators.
class Relay : public Operator {
 public:
  explicit Relay(std::string name) : Operator(std::move(name), 1, 1) {}

 protected:
  void OnElement(int, const StreamElement& element) override {
    Emit(0, element);
  }

  void OnBatch(int, const TupleBatch& batch) override { EmitBatch(0, batch); }
};

/// A chain of snapshot-reducible stateless stages run as one operator.
///
/// The batch path evaluates each selection over the surviving rows into a
/// bitmap and gathers the kept rows (the emit decision is data, not control
/// flow), projects whole columns, and extends the end array once. The scalar
/// path forwards the pushed element itself when no stage changes it (a chain
/// of selections only).
class StatelessChain : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;
  /// Fills `keep` (pre-sized to batch.size(), all zero) with 0/1 per row.
  using BatchPredicate =
      std::function<void(const TupleBatch&, std::vector<uint8_t>*)>;

  /// One stage of the chain, in execution (source-to-sink) order.
  struct Stage {
    enum class Kind { kSelect, kProject, kWindow };

    Kind kind = Kind::kSelect;
    // kSelect: the scalar predicate is mandatory; the columnar one optional
    // (compiled Expr predicates fill the bitmap straight from the columns).
    Predicate predicate;
    BatchPredicate batch_predicate;
    // kProject: output field i is input field fields[i].
    std::vector<size_t> fields;
    // kWindow: validity-end extension.
    Duration window = 0;
  };

  static Stage Select(Predicate predicate,
                      BatchPredicate batch_predicate = nullptr);
  static Stage Project(std::vector<size_t> fields);
  static Stage Window(Duration window);

  StatelessChain(std::string name, std::vector<Stage> stages);
  StatelessChain(std::string name, Stage stage)
      : StatelessChain(std::move(name), std::vector<Stage>{std::move(stage)}) {}

  const std::vector<Stage>& stages() const { return stages_; }

 protected:
  void OnElement(int, const StreamElement& element) override;
  void OnBatch(int, const TupleBatch& batch) override;

 private:
  std::vector<Stage> stages_;
  Duration window_ = 0;        // Sum of the window stages.
  TupleBatch scratch_[2];      // Ping-pong buffers between stages.
  std::vector<uint8_t> keep_;  // Selection bitmap scratch.
};

}  // namespace genmig

#endif  // GENMIG_OPS_STATELESS_H_
