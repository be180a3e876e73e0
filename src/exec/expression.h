#ifndef SCIDB_EXEC_EXPRESSION_H_
#define SCIDB_EXEC_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "array/coordinates.h"
#include "array/schema.h"
#include "common/result.h"
#include "udf/function.h"
#include "udf/shape_function.h"
#include "types/value.h"

namespace scidb {

// One operand array visible to an expression. Join predicates see two
// sides (A and B); scans see one.
struct EvalSide {
  const ArraySchema* schema = nullptr;
  const Coordinates* coords = nullptr;
  const std::vector<Value>* attrs = nullptr;
};

struct EvalContext {
  std::vector<EvalSide> sides;
  const FunctionRegistry* functions = nullptr;

  // Resolves `name` as a dimension or attribute on any side. `side_hint`
  // narrows the search when the reference was qualified ("A.x").
  Result<Value> Resolve(const std::string& name, int side_hint) const;
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

const char* BinaryOpName(BinaryOp op);

// The int64 arithmetic of both evaluators, Expr::Eval and the column
// kernels of bound_expr.cc: + - * wrap modulo 2^64, x / -1 is the wrapped
// negation and x % -1 is 0, so no operand pair traps. `op` is arithmetic;
// a zero divisor yields 0 here, and each evaluator turns it into NULL.
inline int64_t Int64Arith(BinaryOp op, int64_t x, int64_t y) {
  using U = uint64_t;
  switch (op) {
    case BinaryOp::kAdd: return static_cast<int64_t>(U(x) + U(y));
    case BinaryOp::kSub: return static_cast<int64_t>(U(x) - U(y));
    case BinaryOp::kMul: return static_cast<int64_t>(U(x) * U(y));
    case BinaryOp::kDiv:
      if (y == -1) return static_cast<int64_t>(U(0) - U(x));
      return y == 0 ? 0 : x / y;
    default:  // kMod
      return y == 0 || y == -1 ? 0 : x % y;
  }
}

// Immutable expression tree over dimensions, attributes, literals, UDF
// calls, arithmetic and comparisons. Uncertain operands propagate error
// bars through arithmetic (paper §2.13). Shared via shared_ptr — plans
// reuse subtrees freely.
class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Kind { kLiteral, kRef, kBinary, kNot, kCall };

  virtual ~Expr() = default;
  virtual Kind kind() const = 0;
  virtual Result<Value> Eval(const EvalContext& ctx) const = 0;
  virtual std::string ToString() const = 0;

  // Every dimension/attribute name referenced (unqualified), used by
  // Subsample legality checks and chunk pruning.
  virtual void CollectRefs(std::vector<std::string>* out) const = 0;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  Kind kind() const override { return Kind::kLiteral; }
  Result<Value> Eval(const EvalContext&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  void CollectRefs(std::vector<std::string>*) const override {}
  const Value& value() const { return value_; }

 private:
  Value value_;
};

// Reference to a dimension or attribute; side < 0 means "search all sides".
class RefExpr : public Expr {
 public:
  explicit RefExpr(std::string name, int side = -1)
      : name_(std::move(name)), side_(side) {}
  Kind kind() const override { return Kind::kRef; }
  Result<Value> Eval(const EvalContext& ctx) const override {
    return ctx.Resolve(name_, side_);
  }
  std::string ToString() const override;
  void CollectRefs(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }
  const std::string& name() const { return name_; }
  int side() const { return side_; }

 private:
  std::string name_;
  int side_;
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Kind kind() const override { return Kind::kBinary; }
  Result<Value> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override;
  void CollectRefs(std::vector<std::string>* out) const override {
    lhs_->CollectRefs(out);
    rhs_->CollectRefs(out);
  }
  BinaryOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  Kind kind() const override { return Kind::kNot; }
  Result<Value> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override {
    return "not(" + operand_->ToString() + ")";
  }
  void CollectRefs(std::vector<std::string>* out) const override {
    operand_->CollectRefs(out);
  }
  const ExprPtr& operand() const { return operand_; }

 private:
  ExprPtr operand_;
};

// Call into the FunctionRegistry ("even(X)"); multi-output UDFs yield
// their first output in expression position.
class CallExpr : public Expr {
 public:
  CallExpr(std::string fn, std::vector<ExprPtr> args)
      : fn_(std::move(fn)), args_(std::move(args)) {}
  Kind kind() const override { return Kind::kCall; }
  Result<Value> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override;
  void CollectRefs(std::vector<std::string>* out) const override {
    for (const auto& a : args_) a->CollectRefs(out);
  }
  const std::string& fn() const { return fn_; }
  const std::vector<ExprPtr>& args() const { return args_; }

 private:
  std::string fn_;
  std::vector<ExprPtr> args_;
};

// ----- convenience constructors (the C++ "language binding" for
// expressions; the AQL parser produces the same nodes) -----
ExprPtr Lit(Value v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Ref(std::string name, int side = -1);
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);
ExprPtr Mod(ExprPtr l, ExprPtr r);
ExprPtr Call(std::string fn, std::vector<ExprPtr> args);

// ----- structural-predicate analysis (Subsample legality + pruning) -----

// True when the predicate is a conjunction of conditions each over at most
// one distinct dimension of `schema` and no attributes — the paper's
// Subsample restriction ("X = 3 and Y < 4" legal, "X = Y" not).
[[nodiscard]] bool IsPerDimensionConjunction(const Expr& pred,
                                             const ArraySchema& schema);

// Conservative per-dimension bounds implied by the predicate within
// `domain`: simple comparisons against literals tighten bounds; anything
// unrecognized leaves the dimension's full domain. Used for chunk pruning;
// exact cell filtering still re-evaluates the predicate.
// `exact` (optional) is set true when every conjunct was captured by the
// returned bounds, i.e. the predicate IS the box and per-cell
// re-evaluation can be skipped entirely.
std::vector<DimBounds> ExtractDimBounds(const Expr& pred,
                                        const ArraySchema& schema,
                                        const Box& domain,
                                        bool* exact = nullptr);

}  // namespace scidb

#endif  // SCIDB_EXEC_EXPRESSION_H_
