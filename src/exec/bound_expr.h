#ifndef SCIDB_EXEC_BOUND_EXPR_H_
#define SCIDB_EXEC_BOUND_EXPR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "array/chunk.h"
#include "array/schema.h"
#include "common/result.h"
#include "exec/expression.h"
#include "udf/function.h"

namespace scidb {

enum class CellMap { kFilter, kApply };

// An expression bound once against its operands (DESIGN.md §8, "Bound
// expressions and column kernels"), the one way an operator evaluates
// one. The operands are laid side by side in each chunk it reads: side
// 0's dimensions and attributes first, then side 1's. Each reference
// resolves once, here, as Expr::Eval resolves names: side by side (only
// the hinted side of "B.x"), dimension before attribute. When every node
// is numeric (non-uncertain int64/double/float attributes, dimensions,
// numeric and boolean literals, arithmetic, comparisons, and/or/not over
// booleans) the tree gets a static type and runs as column kernels over
// whole chunks. Any other tree stays untyped and runs Expr::Eval cell by
// cell, so a reference to a missing side or an unknown name fails with
// NotFound only when a present cell is evaluated — an empty input still
// succeeds.
//
// The schemas in `sides` and `functions` must outlive the BoundExpr.
class BoundExpr {
 public:
  static BoundExpr Bind(ExprPtr e, std::vector<const ArraySchema*> sides,
                        const FunctionRegistry* functions);

  // Filter's keep rule, per rank of `in`: 1 where the cell is present and
  // the expression is a non-null boolean true. The untyped path evaluates
  // exactly the present cells inside `within` (a sub-box of in.box()), in
  // rank order; entries of cells outside it are unspecified. Fails with
  // the Status of the first failing cell.
  Result<std::vector<uint8_t>> Keep(const Chunk& in, const Box& within) const;

  // The chunk body Filter (and so Cjoin) and Apply share: evaluates the
  // expression over `in` and returns the output chunk over the same box,
  // whose leading attributes copy `in`'s. kFilter turns every attribute
  // NULL where Keep is 0; kApply stores the result into the one extra
  // trailing attribute of `out_attrs`. Fails with the Status of the first
  // failing cell in rank order.
  Result<std::shared_ptr<Chunk>> MapChunk(
      CellMap kind, const Chunk& in,
      const std::vector<AttributeDesc>& out_attrs) const;

  struct Node;

 private:
  BoundExpr() = default;

  ExprPtr expr_;
  std::vector<const ArraySchema*> sides_;
  const FunctionRegistry* functions_ = nullptr;
  std::shared_ptr<const Node> root_;  // null: untyped, runs expr_
};

}  // namespace scidb

#endif  // SCIDB_EXEC_BOUND_EXPR_H_
