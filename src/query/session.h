#ifndef SCIDB_QUERY_SESSION_H_
#define SCIDB_QUERY_SESSION_H_

#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "array/array_source.h"
#include "array/mem_array.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/operators.h"
#include "provenance/provenance.h"
#include "query/parse_tree.h"
#include "udf/enhanced_array.h"
#include "udf/aggregate.h"
#include "udf/function.h"

namespace scidb {

class StorageManager;

// The result of executing one statement.
struct QueryResult {
  enum class Kind { kNone, kArray, kBool, kCells, kValues, kExplain };
  Kind kind = Kind::kNone;
  std::shared_ptr<MemArray> array;
  bool boolean = false;
  std::string message;             // "defined", "created", ... ; for
                                   // kExplain: the rendered plan/trace
  std::vector<CellRef> cells;      // trace results (kCells)
  std::vector<Value> values;       // enhanced-read results (kValues)
  // kExplain with analyze: the structured per-operator trace behind
  // `message` (null for plain explain).
  std::shared_ptr<const QueryTrace> trace;
};

// A user-registered array operation (paper §2.3): receives the evaluated
// input arrays and the raw expression arguments of its call site.
using UserArrayOp = std::function<Result<MemArray>(
    const ExecContext& ctx, const std::vector<MemArray>& inputs,
    const std::vector<ExprPtr>& args)>;

// A session owns the catalog (array type definitions + array instances)
// and the function/aggregate registries, and executes parse trees —
// whether produced by the AQL parser (Execute(string)) or by a language
// binding (Execute(OpNodePtr) / Execute(Statement)). This is the paper's
// §2.4 architecture: one command representation, many bindings.
class Session {
 public:
  Session();

  FunctionRegistry* functions() { return &functions_; }
  AggregateRegistry* aggregates() { return &aggregates_; }
  ExecContext MakeContext() const;

  // ---- catalog ----
  Status Define(const ArraySchema& type_schema);
  Status CreateArray(const std::string& name, const std::string& type_name,
                     const std::vector<int64_t>& highs);
  // Registers an externally built array instance under its schema name.
  Status RegisterArray(std::shared_ptr<MemArray> array);
  Result<std::shared_ptr<MemArray>> GetArray(const std::string& name) const;
  [[nodiscard]] bool HasArray(const std::string& name) const;
  std::vector<std::string> ArrayNames() const;

  // ---- execution ----
  Result<QueryResult> Execute(const std::string& statement);
  Result<QueryResult> Execute(const Statement& stmt);
  // Evaluates an operator tree to an array (the binding entry point).
  Result<MemArray> Eval(const OpNodePtr& node) const;

  // Logical optimization of query trees before execution (default on);
  // see query/optimizer.h. Off-switch for ablation benchmarks.
  void set_optimize(bool on) { optimize_ = on; }
  bool optimize() const { return optimize_; }

  // ---- morsel parallelism (DESIGN.md §8) ----
  // Sets the worker-pool width for chunk-parallel execution; the AQL
  // statement `set parallelism = N` routes here. Width 1 tears the pool
  // down and restores the serial engine (identical to pre-pool behavior);
  // widths above kMaxParallelism are rejected.
  [[nodiscard]] Status set_parallelism(int workers) LOCKS_EXCLUDED(mu_);
  int parallelism() const LOCKS_EXCLUDED(mu_);
  static constexpr int kMaxParallelism = 64;

  // ---- query-server hooks (DESIGN.md §15) ----
  // Shared-pool mode: the session stops owning a worker pool and instead
  // borrows `pool` (non-owning, must outlive the session), with each
  // query's effective width clamped to `per_query_cap`. In this mode
  // `set parallelism = N` records a per-session REQUEST — precedence is
  // min(requested, per_query_cap), documented in README — instead of
  // building a private pool, so one session cannot grab the whole
  // server. Pass nullptr to leave shared mode.
  void UseSharedPool(ThreadPool* pool, int per_query_cap)
      LOCKS_EXCLUDED(mu_);

  // Per-query controls the server installs around each Execute call:
  // a cancel flag polled once per morsel and a fair-scheduling slice
  // gate (both non-owning; cleared with {}). Read by MakeContext.
  struct QueryControls {
    const std::atomic<bool>* cancel = nullptr;
    SliceGate* gate = nullptr;
  };
  void set_query_controls(const QueryControls& qc) LOCKS_EXCLUDED(mu_) {
    MutexLock lock(mu_);
    controls_ = qc;
  }

  // Fallback array source consulted by array references that miss the
  // session catalog, BEFORE the attached storage manager. The query
  // server installs a per-query resolver that returns epoch-pinned
  // snapshot sources of shared arrays (DESIGN.md §15), which is what
  // makes reads run against a stable version while loaders commit.
  // Return NotFound to fall through; any other error aborts the query.
  // Null detaches.
  using ArrayResolver =
      std::function<Result<std::shared_ptr<const ArraySource>>(
          const std::string& name)>;
  void set_array_resolver(ArrayResolver resolver) LOCKS_EXCLUDED(mu_) {
    MutexLock lock(mu_);
    resolver_ = std::move(resolver);
  }

  // ---- observability (DESIGN.md §7) ----
  // Array references not found in the in-memory catalog fall back to this
  // storage manager (DiskArray reads through its chunk cache), so
  // `explain analyze` can report cache hit ratios for stored arrays.
  // Non-owning; pass nullptr to detach.
  void AttachStorage(StorageManager* storage) LOCKS_EXCLUDED(mu_) {
    MutexLock lock(mu_);
    storage_ = storage;
  }

  // Injectable trace clock (nanoseconds, monotone). Tests install a fake
  // to make `explain analyze` timings deterministic; null restores the
  // steady clock.
  void set_clock(TraceClock clock);

  // The trace of the most recent `explain analyze`, or null.
  std::shared_ptr<const QueryTrace> last_trace() const LOCKS_EXCLUDED(mu_) {
    MutexLock lock(mu_);
    return last_trace_;
  }

  // Snapshot of the process-wide metrics registry (counters, gauges,
  // histograms) — the programmatic face of tools/metrics_dump.
  scidb::MetricsSnapshot MetricsSnapshot() const;

  // ---- §2.1 enhancements / shapes on catalog arrays ----
  // The enhanced wrapper for a catalog array (created on first use).
  Result<EnhancedArray*> Enhanced(const std::string& array_name);

  // ---- §2.12 provenance query language ----
  // Attaches a provenance log; afterwards "trace back X [c...]" and
  // "trace forward X [c...]" statements resolve against it (non-owning;
  // the log must outlive the session or be detached with nullptr).
  void AttachProvenance(const ProvenanceLog* log) { provenance_ = log; }

  // ---- §2.3 extendability: user array operations ----
  // Registers `name` as a new operator usable from AQL and Eval().
  // Built-in operator names cannot be shadowed.
  Status RegisterArrayOp(const std::string& name, UserArrayOp op);
  [[nodiscard]] bool HasArrayOp(const std::string& name) const;

 private:
  int EffectiveParallelismLocked() const EXCLUSIVE_LOCKS_REQUIRED(mu_);
  Result<QueryResult> ExecuteQueryNode(const OpNodePtr& node) const;
  Result<QueryResult> ExecuteStatement(const Statement& stmt);
  Result<QueryResult> ExecuteExplain(const Statement& stmt);

  // The source an array reference reads from: the session catalog
  // first, then the query-server resolver, then the attached storage
  // manager. NotFound when none holds the name. A non-null `tn` gets the
  // `snapshot` note for resolver sources.
  Result<std::shared_ptr<const ArraySource>> ResolveArrayRef(
      const std::string& name, TraceNode* tn) const;

  // Reads an array reference (DESIGN.md §5). Under a Subsample (its
  // predicate is `subsample`) only SubsampleBox is read; the Subsample
  // still applies the exact predicate. Every other parent reads the
  // whole extent. A non-null `tn` is traced: the `region` read, and the
  // disk-byte and chunk-cache deltas of stored arrays.
  Result<MemArray> ReadArrayRef(const std::string& name,
                                const Expr* subsample, TraceNode* tn) const;

  // Applies one operator to its already-evaluated inputs.
  Result<MemArray> EvalOp(const OpNode& node,
                          const std::vector<MemArray>& inputs,
                          const ExecContext& ctx) const;

  // Evaluates an operator tree bottom-up and flushes each operator's
  // ExecStats to the scidb.exec.* metrics. When `self` is non-null
  // (labeled by the caller) the evaluation is traced: wall time, output
  // cells and ExecStats notes, recursing into child TraceNodes.
  // `subsample` is the predicate of the Subsample `node` feeds, if any.
  Result<MemArray> EvalNode(const OpNodePtr& node, TraceNode* self,
                            const Expr* subsample = nullptr) const;

  // Catalog state: a Session is driven by one statement-issuing thread
  // (worker threads only see operator-local state), so the registries and
  // named-array catalog are not under mu_ — only the control-plane knobs
  // below are shared.
  FunctionRegistry functions_;   // NOLINT(lock-coverage): statement thread
  AggregateRegistry aggregates_;  // NOLINT(lock-coverage): statement thread
  std::map<std::string, ArraySchema>
      defines_;  // NOLINT(lock-coverage): statement thread
  std::map<std::string, std::shared_ptr<MemArray>>
      arrays_;  // NOLINT(lock-coverage): statement thread
  std::map<std::string, std::shared_ptr<EnhancedArray>>
      enhanced_;  // NOLINT(lock-coverage): statement thread
  std::map<std::string, UserArrayOp>
      user_ops_;  // NOLINT(lock-coverage): statement thread
  // Lowercase, for the parser.
  std::set<std::string>
      user_op_names_;  // NOLINT(lock-coverage): statement thread
  bool optimize_ = true;  // NOLINT(lock-coverage): statement thread
  // Control-plane state other threads may flip or inspect while a
  // statement executes — the parallelism knob, the attached storage
  // fallback, and the last explain-analyze trace. mu_ is held only for
  // pointer reads/swaps, never across an execution, so it nests strictly
  // outside every engine lock (Session::mu_ -> ThreadPool/cache locks is
  // the only order the debug lock-order detector ever sees).
  mutable Mutex mu_{"Session::mu_"};
  // Null at width 1: the serial path must not pay even an empty pool.
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(mu_);
  // Shared-pool mode (DESIGN.md §15): non-null shared_pool_ supersedes
  // pool_; requested_parallelism_ is the session's `set parallelism`
  // wish, clamped to per_query_cap_ at context-build time.
  ThreadPool* shared_pool_ GUARDED_BY(mu_) = nullptr;
  int per_query_cap_ GUARDED_BY(mu_) = 0;
  int requested_parallelism_ GUARDED_BY(mu_) = 0;  // 0 = use the cap
  QueryControls controls_ GUARDED_BY(mu_);
  ArrayResolver resolver_ GUARDED_BY(mu_);
  const ProvenanceLog*
      provenance_ = nullptr;  // NOLINT(lock-coverage): set pre-exec
  StorageManager* storage_ GUARDED_BY(mu_) = nullptr;
  // Never null (ctor installs SteadyNowNs); test-time injection only,
  // set before any concurrent use.
  TraceClock clock_;  // NOLINT(lock-coverage): set pre-exec
  std::shared_ptr<const QueryTrace> last_trace_ GUARDED_BY(mu_);
  // Parse timing + statement text carried from Execute(string) into the
  // Statement overload, so explain traces can report the parse phase.
  uint64_t pending_parse_ns_ = 0;  // NOLINT(lock-coverage): stmt thread
  std::string pending_statement_;  // NOLINT(lock-coverage): stmt thread
};

// ------------------- fluent C++ binding (paper §2.4) -------------------
// Builds the same OpNode parse trees the text parser emits, using native
// C++ control structures — "fit large array manipulation cleanly into the
// target language", no ODBC/JDBC-style data sublanguage.
namespace binding {

OpNodePtr Array(std::string name);
OpNodePtr Subsample(OpNodePtr in, ExprPtr pred);
OpNodePtr Filter(OpNodePtr in, ExprPtr pred);
OpNodePtr Sjoin(OpNodePtr a, OpNodePtr b, ExprPtr dim_equalities);
OpNodePtr Cjoin(OpNodePtr a, OpNodePtr b, ExprPtr pred);
OpNodePtr Aggregate(OpNodePtr in, std::vector<std::string> group_dims,
                    std::string agg, std::string attr);
OpNodePtr Apply(OpNodePtr in, std::string attr, ExprPtr e);
OpNodePtr Project(OpNodePtr in, std::vector<std::string> attrs);
OpNodePtr Reshape(OpNodePtr in, std::vector<std::string> dim_order,
                  std::vector<DimensionDesc> new_dims);
OpNodePtr Regrid(OpNodePtr in, std::vector<int64_t> factors,
                 std::string agg, std::string attr);
OpNodePtr Window(OpNodePtr in, std::vector<int64_t> radii,
                 std::string agg, std::string attr);
OpNodePtr Concat(OpNodePtr a, OpNodePtr b, std::string dim);
OpNodePtr CrossProduct(OpNodePtr a, OpNodePtr b);
OpNodePtr AddDimension(OpNodePtr in, std::string name);
OpNodePtr RemoveDimension(OpNodePtr in, std::string name);

}  // namespace binding

}  // namespace scidb

#endif  // SCIDB_QUERY_SESSION_H_
