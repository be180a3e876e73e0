#ifndef SCIDB_EXEC_OPERATORS_H_
#define SCIDB_EXEC_OPERATORS_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "array/array_source.h"
#include "array/mem_array.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/expression.h"
#include "exec/slice_gate.h"
#include "udf/aggregate.h"
#include "udf/function.h"

namespace scidb {

// Shared operator environment: registries plus optional execution
// statistics for the pruning/ablation benchmarks.
struct ExecStats {
  int64_t chunks_scanned = 0;
  int64_t chunks_pruned = 0;
  int64_t cells_visited = 0;
  // Morsel accounting (DESIGN.md §8): chunk-morsels dispatched and the
  // widest pool that ran them (1 = serial).
  int64_t morsels = 0;
  int64_t parallel_workers = 0;
};

struct ExecContext {
  const FunctionRegistry* functions = nullptr;
  const AggregateRegistry* aggregates = nullptr;
  // Ablation switch for EXP-CHUNK / DESIGN.md §5: when false, Subsample
  // visits every chunk instead of pruning via the predicate's box.
  bool enable_chunk_pruning = true;
  ExecStats* stats = nullptr;  // optional
  // Morsel executor for chunk-parallel operators (exec/parallel.h); null
  // or width-1 runs the serial path. Non-owning (Session owns it).
  ThreadPool* pool = nullptr;
  // Query-server hooks (DESIGN.md §15), all optional and non-owning.
  // `cancel` is checked before every morsel (parallel and serial paths)
  // and before every input chunk of a serial cell walk (WalkCells): once
  // set, the operator aborts with Cancelled within one chunk.
  const std::atomic<bool>* cancel = nullptr;
  // Fair-scheduling gate: morsels dispatch in bounded slices so the
  // shared pool time-slices across concurrent queries.
  SliceGate* gate = nullptr;
  // Per-query worker cap on the shared pool (0 = full pool width). The
  // server clamps each session's requested parallelism to this.
  int max_workers = 0;
};

// ===================== structural operators (§2.2.1) =====================
// Data-agnostic: results depend only on input structure.

// Subsample(A, P): P must be a conjunction of per-dimension conditions
// ("X = 3 and Y < 4" legal, "X = Y" not — rejected as Invalid). Keeps the
// matching cells at their original index values; same dimensionality.
Result<MemArray> Subsample(const ExecContext& ctx, const MemArray& a,
                           const ExprPtr& pred);

// The box a Subsample by `pred` needs read from `source` (DESIGN.md §5):
// ExtractDimBounds of the predicate over source.Extent(), empty when no
// cell can match. The whole extent when ctx.enable_chunk_pruning is off
// or `pred` is not a per-dimension conjunction (Subsample then rejects it
// after a full read, as it would without pushdown). Subsample still
// applies the exact predicate to what the box read returns.
Box SubsampleBox(const ExecContext& ctx, const ArraySource& source,
                 const Expr& pred);

// Exists? [A, 7, 7]
[[nodiscard]] bool Exists(const MemArray& a, const Coordinates& c);

// Reshape(G, [X, Z, Y], [U = 1:8, V = 1:3]): relinearizes the array by
// iterating `dim_order` (first-listed slowest) and refolding into
// `new_dims`. Cell counts must match; the input must be bounded.
Result<MemArray> Reshape(const ExecContext& ctx, const MemArray& a,
                         const std::vector<std::string>& dim_order,
                         std::vector<DimensionDesc> new_dims);

// Sjoin(A, B, A.x = B.y, ...): join predicate over dimensions only
// (equality pairs). Result has (m + n - k) dimensions — A's dimensions
// plus B's un-joined dimensions — with concatenated cell tuples where both
// cells are present.
Result<MemArray> Sjoin(
    const ExecContext& ctx, const MemArray& a, const MemArray& b,
    const std::vector<std::pair<std::string, std::string>>& dim_pairs);

// Adds a size-1 dimension named `name` (coordinate = low = 1).
Result<MemArray> AddDimension(const ExecContext& ctx, const MemArray& a,
                              const std::string& name);

// Removes dimension `name`; every pair of present cells must agree on the
// remaining coordinates (guaranteed when the dimension has extent 1),
// otherwise Invalid.
Result<MemArray> RemoveDimension(const ExecContext& ctx, const MemArray& a,
                                 const std::string& name);

// Concatenates B after A along dimension `dim`; schemas must match
// (attribute lists equal, same dimensionality).
Result<MemArray> Concat(const ExecContext& ctx, const MemArray& a,
                        const MemArray& b, const std::string& dim);

// Cross product: (m + n)-dimensional, every pair of present cells,
// concatenated tuples.
Result<MemArray> CrossProduct(const ExecContext& ctx, const MemArray& a,
                              const MemArray& b);

// ================== content-dependent operators (§2.2.2) =================

// Filter(A, P): same dimensions; cells where P is true keep their values,
// cells where P is false or NULL become NULL-valued (still present), per
// the paper's definition.
Result<MemArray> Filter(const ExecContext& ctx, const MemArray& a,
                        const ExprPtr& pred);

// Aggregate(A, {G...}, agg(attr)): groups over the k grouping dimensions;
// each group aggregates the (n-k)-dimensional subarray. `attr` may be "*"
// for the first attribute (the paper's Sum(*)).
Result<MemArray> Aggregate(const ExecContext& ctx, const MemArray& a,
                           const std::vector<std::string>& group_dims,
                           const std::string& agg, const std::string& attr);

// Multi-aggregate variant: several (agg, attr) pairs computed in ONE pass
// over the input; the output has one attribute per pair, named
// "<agg>_<attr>" ("<agg>" when attr is "*"), deduplicated with "_2".
struct AggCall {
  std::string agg;
  std::string attr;  // "*" = first attribute
};
Result<MemArray> AggregateMulti(const ExecContext& ctx, const MemArray& a,
                                const std::vector<std::string>& group_dims,
                                const std::vector<AggCall>& calls);

// Cjoin(A, B, P over data values): (m + n)-dimensional result; cell
// [a..., b...] holds the concatenated tuple where P is true, NULL where P
// is false (per Figure 3).
Result<MemArray> Cjoin(const ExecContext& ctx, const MemArray& a,
                       const MemArray& b, const ExprPtr& pred);

// Apply(A, name, type, e): appends attribute `name` computed by `e` over
// each present cell (dims and attrs are in scope).
Result<MemArray> Apply(const ExecContext& ctx, const MemArray& a,
                       const std::string& name, DataType type,
                       const ExprPtr& e, bool uncertain = false);

// Project(A, attrs): keeps the named attributes, in the given order.
Result<MemArray> Project(const ExecContext& ctx, const MemArray& a,
                         const std::vector<std::string>& attrs);

// ======================= science operators (§2.3) ========================

// Regrid(A, factors, agg(attr)): coarsens the array by `factors[d]` along
// each dimension, aggregating the cells of each block — the paper's
// canonical "regrid" science operation.
Result<MemArray> Regrid(const ExecContext& ctx, const MemArray& a,
                        const std::vector<int64_t>& factors,
                        const std::string& agg, const std::string& attr);

// WindowAggregate(A, radii, agg(attr)): sliding-window aggregate — every
// present cell c gets agg over the present cells of the box
// [c - radii, c + radii]. Smoothing/moving averages for the time-series
// analytics of §2.14 and the image processing of §2.10.
Result<MemArray> WindowAggregate(const ExecContext& ctx, const MemArray& a,
                                 const std::vector<int64_t>& radii,
                                 const std::string& agg,
                                 const std::string& attr);

// ========================= helpers shared by ops =========================

// The output attribute produced by aggregate `agg` over attribute `in`
// (count -> int64, usum/uavg -> uncertain double, min/max -> in's type,
// everything else -> double).
AttributeDesc AggOutputAttr(const std::string& agg, const AttributeDesc& in);

}  // namespace scidb

#endif  // SCIDB_EXEC_OPERATORS_H_
