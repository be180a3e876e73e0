#ifndef SCIDB_EXEC_BOUND_EXPR_H_
#define SCIDB_EXEC_BOUND_EXPR_H_

#include <memory>
#include <vector>

#include "array/chunk.h"
#include "array/schema.h"
#include "common/result.h"
#include "exec/expression.h"
#include "udf/function.h"

namespace scidb {

enum class CellMap { kFilter, kApply };

// An expression bound once against its operand's schema (DESIGN.md §8,
// "Bound expressions and column kernels"). When every node is numeric
// (non-uncertain int64/double/float attributes, dimensions, numeric and
// boolean literals, arithmetic, comparisons, and/or/not over booleans)
// each reference becomes a dimension or attribute slot, searched in
// EvalContext::Resolve's order (dimension, then attribute), the tree gets
// a static type and runs as column kernels over whole chunks. Any other
// tree stays untyped and runs Expr::Eval cell by cell, so a reference to
// another side or to an unknown name fails with Resolve's NotFound only
// when a cell is evaluated — an empty input still succeeds.
//
// `schema` and `functions` must outlive the BoundExpr.
class BoundExpr {
 public:
  static BoundExpr Bind(ExprPtr e, const ArraySchema& schema,
                        const FunctionRegistry* functions);

  // The chunk body Filter and Apply share: evaluates the expression over
  // `in`, a chunk of the bound schema, and returns the output chunk over
  // the same box, whose leading attributes copy `in`'s. kFilter turns
  // every attribute NULL where the expression is not true; kApply stores
  // it into the one extra trailing attribute of `out_attrs`. Fails with
  // the Status of the first failing cell in rank order.
  Result<std::shared_ptr<Chunk>> MapChunk(
      CellMap kind, const Chunk& in,
      const std::vector<AttributeDesc>& out_attrs) const;

  struct Node;

 private:
  BoundExpr(ExprPtr expr, const ArraySchema* schema,
            const FunctionRegistry* functions,
            std::shared_ptr<const Node> root)
      : expr_(std::move(expr)),
        schema_(schema),
        functions_(functions),
        root_(std::move(root)) {}

  ExprPtr expr_;
  const ArraySchema* schema_;
  const FunctionRegistry* functions_;
  std::shared_ptr<const Node> root_;  // null: untyped, runs expr_
};

}  // namespace scidb

#endif  // SCIDB_EXEC_BOUND_EXPR_H_
