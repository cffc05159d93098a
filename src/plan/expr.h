// Scalar expressions over tuples: column references, constants, arithmetic,
// comparisons and boolean connectives. Used by the CQL front end, the
// optimizer (predicate analysis for pushdown) and compiled into the
// std::function hooks of StatelessChain selections / NestedLoopsJoin.

#ifndef GENMIG_PLAN_EXPR_H_
#define GENMIG_PLAN_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "stream/batch.h"

namespace genmig {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression tree node.
class Expr {
 public:
  enum class Kind {
    kColumn,   // Field reference by index.
    kConst,    // Literal value.
    kCompare,  // = != < <= > >=
    kArith,    // + - * /
    kAnd,
    kOr,
    kNot,
  };
  enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
  enum class ArithOp { kAdd, kSub, kMul, kDiv };

  // --- Factories ------------------------------------------------------------
  static ExprPtr Column(size_t index, std::string name = "");
  static ExprPtr Const(Value value);
  static ExprPtr Compare(CmpOp op, ExprPtr left, ExprPtr right);
  static ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right);
  static ExprPtr And(ExprPtr left, ExprPtr right);
  static ExprPtr Or(ExprPtr left, ExprPtr right);
  static ExprPtr Not(ExprPtr operand);

  Kind kind() const { return kind_; }
  CmpOp cmp_op() const { return cmp_op_; }
  ArithOp arith_op() const { return arith_op_; }
  size_t column_index() const { return column_index_; }
  const std::string& column_name() const { return column_name_; }
  const Value& constant() const { return constant_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Evaluates against a tuple. Boolean results are int64 0/1.
  Value Eval(const Tuple& tuple) const;

  /// Evaluates as a boolean (non-zero numeric = true).
  bool EvalBool(const Tuple& tuple) const;

  // --- Columnar evaluation (vectorized execution path) ----------------------
  // Same semantics as Eval/EvalBool applied row by row, but operands are read
  // straight from the batch's column arrays: plain column references cost no
  // copy and no Tuple materialization, and the operator dispatch is hoisted
  // out of the row loop.

  /// Evaluates the tree for every row of `batch` into `out` (one Value per
  /// row; `out` is overwritten).
  void EvalBatch(const TupleBatch& batch, std::vector<Value>* out) const;

  /// Evaluates the tree as a boolean per row into the selection bitmap
  /// `keep` (resized to batch.size(); 0/1 per row).
  void EvalBoolBatch(const TupleBatch& batch,
                     std::vector<uint8_t>* keep) const;

  /// Set of column indices referenced anywhere in the tree.
  void CollectColumns(std::vector<size_t>* out) const;

  /// Structural copy with every column index shifted by `delta` (used when
  /// moving predicates across joins).
  ExprPtr ShiftColumns(int64_t delta) const;

  /// True iff every referenced column index is in [lo, hi).
  bool ColumnsWithin(size_t lo, size_t hi) const;

  std::string ToString() const;

 private:
  Expr() = default;

  Kind kind_ = Kind::kConst;
  CmpOp cmp_op_ = CmpOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  size_t column_index_ = 0;
  std::string column_name_;
  Value constant_;
  std::vector<ExprPtr> children_;
};

}  // namespace genmig

#endif  // GENMIG_PLAN_EXPR_H_
