#ifndef SCIDB_QUERY_OPTIMIZER_H_
#define SCIDB_QUERY_OPTIMIZER_H_

#include "common/result.h"
#include "query/parse_tree.h"

namespace scidb {

// Logical rewrites over operator trees. §2.2.1 observes that structural
// operators "do not necessarily have to read the data values", so the
// planner's job is to move them below content-dependent work where chunk
// pruning can cut the scan set before any values are touched.
//
// Rules applied to fixpoint (top-down, then bottom-up merge):
//   R1  Subsample(Filter(A, p), q)   ->  Filter(Subsample(A, q), p)
//       (structural-below-content swap; q prunes chunks first)
//   R2  Subsample(Subsample(A, p), q) -> Subsample(A, p and q)
//   R3  Filter(Filter(A, p), q)       -> Filter(A, p and q)
//       (Filter NULLs non-matching cells, and NULL fails any predicate,
//        so cascaded filters conjoin)
//   R4  Subsample(Apply(A, x, e), q)  -> Apply(Subsample(A, q), x, e)
//       (Apply is cell-wise; compute e only for surviving cells)
//   R5  Project(Project(A, xs), ys)   -> Project(A, ys)
//       (ys must already be a subset of xs or binding fails later)
//
// The rewriter is purely structural: it never inspects the catalog, so a
// rewritten tree binds/execute exactly like the original.
struct OptimizerStats {
  int subsample_pushdowns = 0;   // R1 + R4
  int subsample_merges = 0;      // R2
  int filter_merges = 0;         // R3
  int project_collapses = 0;     // R5
  int total() const {
    return subsample_pushdowns + subsample_merges + filter_merges +
           project_collapses;
  }
};

Result<OpNodePtr> OptimizeOpTree(const OpNodePtr& root,
                                 OptimizerStats* stats = nullptr);

// The predicate whose box an array-reference input of `node` reads
// instead of its whole extent (DESIGN.md §5): a Subsample's, else null.
// R1 and R4 sink Subsamples onto array references to make this apply.
const Expr* RegionPredicate(const OpNode& node);

}  // namespace scidb

#endif  // SCIDB_QUERY_OPTIMIZER_H_
