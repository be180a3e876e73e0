#include "query/session.h"

#include "common/macros.h"
#include "query/lexer.h"
#include "query/operator_table.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan_printer.h"
#include "storage/storage_manager.h"

namespace scidb {

Session::Session() : clock_(SteadyNowNs) {}

void Session::set_clock(TraceClock clock) {
  clock_ = clock ? std::move(clock) : TraceClock(SteadyNowNs);
}

scidb::MetricsSnapshot Session::MetricsSnapshot() const {
  return Metrics::Instance().Snapshot();
}

ExecContext Session::MakeContext() const {
  ExecContext ctx;
  ctx.functions = &functions_;
  ctx.aggregates = &aggregates_;
  {
    MutexLock lock(mu_);
    if (shared_pool_ != nullptr) {
      // Shared-pool mode: borrow the server's pool under the per-query
      // clamp (README "parallelism precedence"). An effective width of 1
      // runs the serial engine — no pool, no gate, no slice overhead —
      // exactly like a width-1 session pool.
      int width = EffectiveParallelismLocked();
      if (width > 1) {
        ctx.pool = shared_pool_;
        ctx.max_workers = width;
        ctx.gate = controls_.gate;
      }
    } else {
      ctx.pool = pool_.get();  // null at parallelism 1 → serial engine
    }
    ctx.cancel = controls_.cancel;
  }
  return ctx;
}

int Session::EffectiveParallelismLocked() const {
  if (shared_pool_ == nullptr) {
    return pool_ != nullptr ? pool_->parallelism() : 1;
  }
  int width = requested_parallelism_ > 0 ? requested_parallelism_
                                         : per_query_cap_;
  if (per_query_cap_ > 0 && width > per_query_cap_) width = per_query_cap_;
  if (width > shared_pool_->parallelism()) {
    width = shared_pool_->parallelism();
  }
  return width < 1 ? 1 : width;
}

int Session::parallelism() const {
  MutexLock lock(mu_);
  return EffectiveParallelismLocked();
}

void Session::UseSharedPool(ThreadPool* pool, int per_query_cap) {
  MutexLock lock(mu_);
  shared_pool_ = pool;
  per_query_cap_ = pool != nullptr ? per_query_cap : 0;
  if (pool != nullptr) pool_.reset();  // one pool per query server
}

Status Session::set_parallelism(int workers) {
  if (workers < 1 || workers > kMaxParallelism) {
    return Status::Invalid("parallelism must be in [1, " +
                           std::to_string(kMaxParallelism) + "], got " +
                           std::to_string(workers));
  }
  MutexLock lock(mu_);
  if (shared_pool_ != nullptr) {
    // Shared-pool mode records the wish; the clamp happens in
    // MakeContext so a later cap change applies to the same request.
    requested_parallelism_ = workers;
    return Status::OK();
  }
  int current = pool_ != nullptr ? pool_->parallelism() : 1;
  if (workers == current) return Status::OK();
  if (workers == 1) {
    pool_.reset();
    return Status::OK();
  }
  pool_ = std::make_unique<ThreadPool>(workers);
  return Status::OK();
}

Status Session::Define(const ArraySchema& type_schema) {
  RETURN_NOT_OK(type_schema.Validate());
  auto [it, inserted] = defines_.emplace(type_schema.name(), type_schema);
  if (!inserted) {
    return Status::AlreadyExists("type '" + type_schema.name() +
                                 "' already defined");
  }
  return Status::OK();
}

Status Session::CreateArray(const std::string& name,
                            const std::string& type_name,
                            const std::vector<int64_t>& highs) {
  auto def = defines_.find(type_name);
  if (def == defines_.end()) {
    return Status::NotFound("no array type named '" + type_name + "'");
  }
  if (arrays_.count(name)) {
    return Status::AlreadyExists("array '" + name + "' already exists");
  }
  ArraySchema schema = def->second;
  if (highs.size() != schema.ndims()) {
    return Status::Invalid("create " + name + ": expected " +
                           std::to_string(schema.ndims()) +
                           " bounds, got " + std::to_string(highs.size()));
  }
  auto* dims = schema.mutable_dims();
  for (size_t d = 0; d < highs.size(); ++d) {
    (*dims)[d].high = highs[d] == kUnboundedDim
                          ? kUnboundedDim
                          : (*dims)[d].low + highs[d] - 1;
  }
  schema.set_name(name);
  RETURN_NOT_OK(schema.Validate());
  arrays_.emplace(name, std::make_shared<MemArray>(std::move(schema)));
  return Status::OK();
}

Status Session::RegisterArray(std::shared_ptr<MemArray> array) {
  if (array == nullptr) return Status::Invalid("null array");
  const std::string& name = array->schema().name();
  if (name.empty()) return Status::Invalid("array has no name");
  auto [it, inserted] = arrays_.emplace(name, std::move(array));
  if (!inserted) {
    return Status::AlreadyExists("array '" + name + "' already exists");
  }
  return Status::OK();
}

Result<std::shared_ptr<MemArray>> Session::GetArray(
    const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    return Status::NotFound("no array named '" + name + "'");
  }
  return it->second;
}

bool Session::HasArray(const std::string& name) const {
  return arrays_.count(name) > 0;
}

std::vector<std::string> Session::ArrayNames() const {
  std::vector<std::string> out;
  for (const auto& [name, a] : arrays_) out.push_back(name);
  return out;
}

Result<QueryResult> Session::Execute(const std::string& statement) {
  // Parse is timed here (the Statement overload never sees the text);
  // ExecuteExplain picks the measurement up from pending_parse_ns_.
  uint64_t t0 = clock_();
  Result<Statement> stmt = ParseStatement(
      statement, user_op_names_.empty() ? nullptr : &user_op_names_);
  pending_parse_ns_ = clock_() - t0;
  pending_statement_ = statement;
  RETURN_NOT_OK(stmt.status());
  return Execute(stmt.value());
}

Result<EnhancedArray*> Session::Enhanced(const std::string& array_name) {
  auto it = enhanced_.find(array_name);
  if (it == enhanced_.end()) {
    ASSIGN_OR_RETURN(std::shared_ptr<MemArray> arr, GetArray(array_name));
    it = enhanced_
             .emplace(array_name, std::make_shared<EnhancedArray>(arr))
             .first;
  }
  return it->second.get();
}

namespace {

Result<std::shared_ptr<EnhancementFunction>> BuildEnhancement(
    const std::string& func, const std::vector<Value>& args, size_t ndims) {
  auto out_names = [&](const char* prefix) {
    std::vector<std::string> names;
    for (size_t d = 0; d < ndims; ++d) {
      names.push_back(std::string(prefix) + std::to_string(d + 1));
    }
    return names;
  };
  auto int_args = [&]() -> Result<std::vector<int64_t>> {
    std::vector<int64_t> out;
    for (const Value& v : args) {
      ASSIGN_OR_RETURN(int64_t i, v.AsInt64());
      out.push_back(i);
    }
    return out;
  };
  if (func == "scale") {
    if (args.size() != 1) return Status::Invalid("scale(factor)");
    ASSIGN_OR_RETURN(int64_t k, args[0].AsInt64());
    return std::shared_ptr<EnhancementFunction>(
        std::make_shared<ScaleEnhancement>(
            "scale" + std::to_string(k), out_names("K"), k));
  }
  if (func == "translate") {
    ASSIGN_OR_RETURN(std::vector<int64_t> offsets, int_args());
    if (offsets.size() != ndims) {
      return Status::Invalid("translate needs one offset per dimension");
    }
    return std::shared_ptr<EnhancementFunction>(
        std::make_shared<TranslateEnhancement>("translate", out_names("T"),
                                               offsets));
  }
  if (func == "transpose") {
    ASSIGN_OR_RETURN(std::vector<int64_t> perm1, int_args());
    if (perm1.size() != ndims) {
      return Status::Invalid("transpose needs a full permutation");
    }
    std::vector<size_t> perm;
    for (int64_t p : perm1) {
      if (p < 1 || static_cast<size_t>(p) > ndims) {
        return Status::Invalid("transpose permutation entries are 1-based");
      }
      perm.push_back(static_cast<size_t>(p - 1));
    }
    return std::shared_ptr<EnhancementFunction>(
        std::make_shared<TransposeEnhancement>("transpose", out_names("P"),
                                               perm));
  }
  if (func == "mercator") {
    if (args.size() != 2 || ndims != 2) {
      return Status::Invalid("mercator(rows, cols) on a 2-D array");
    }
    ASSIGN_OR_RETURN(int64_t rows, args[0].AsInt64());
    ASSIGN_OR_RETURN(int64_t cols, args[1].AsInt64());
    return std::shared_ptr<EnhancementFunction>(
        std::make_shared<MercatorEnhancement>("mercator", rows, cols));
  }
  return Status::NotFound("unknown enhancement builder '" + func +
                          "' (scale|translate|transpose|mercator)");
}

Result<std::shared_ptr<ShapeFunction>> BuildShape(
    const std::string& func, const std::vector<Value>& args, size_t ndims) {
  auto int_args = [&]() -> Result<std::vector<int64_t>> {
    std::vector<int64_t> out;
    for (const Value& v : args) {
      ASSIGN_OR_RETURN(int64_t i, v.AsInt64());
      out.push_back(i);
    }
    return out;
  };
  if (func == "circle") {
    if (args.size() != 3 || ndims != 2) {
      return Status::Invalid("circle(ci, cj, r) on a 2-D array");
    }
    ASSIGN_OR_RETURN(std::vector<int64_t> a, int_args());
    return std::shared_ptr<ShapeFunction>(
        std::make_shared<CircleShape>(a[0], a[1], a[2]));
  }
  if (func == "triangle") {
    if (args.size() != 1 || ndims != 2) {
      return Status::Invalid("triangle(n) on a 2-D array");
    }
    ASSIGN_OR_RETURN(int64_t n, args[0].AsInt64());
    return std::shared_ptr<ShapeFunction>(
        std::make_shared<TriangleShape>(n));
  }
  if (func == "rectangle") {
    ASSIGN_OR_RETURN(std::vector<int64_t> a, int_args());
    if (a.size() != 2 * ndims) {
      return Status::Invalid("rectangle(lo1, hi1, lo2, hi2, ...)");
    }
    Box box;
    for (size_t d = 0; d < ndims; ++d) {
      box.low.push_back(a[2 * d]);
      box.high.push_back(a[2 * d + 1]);
    }
    return std::shared_ptr<ShapeFunction>(
        std::make_shared<RectangleShape>(box));
  }
  return Status::NotFound("unknown shape builder '" + func +
                          "' (circle|triangle|rectangle)");
}

}  // namespace

Status Session::RegisterArrayOp(const std::string& name, UserArrayOp op) {
  if (name.empty()) return Status::Invalid("operator name is empty");
  if (op == nullptr) return Status::Invalid("null operator body");
  std::string lower = ToLower(name);
  if (FindOperator(lower) != nullptr) {
    return Status::Invalid("cannot shadow built-in operator '" + lower +
                           "'");
  }
  auto [it, inserted] = user_ops_.emplace(lower, std::move(op));
  if (!inserted) {
    return Status::AlreadyExists("operator '" + lower +
                                 "' already registered");
  }
  user_op_names_.insert(lower);
  return Status::OK();
}

bool Session::HasArrayOp(const std::string& name) const {
  return user_ops_.count(ToLower(name)) > 0;
}

namespace {

// Query-level metrics (scidb.query.*), registered once.
struct QueryMetrics {
  Counter* const statements =
      Metrics::Instance().counter("scidb.query.statements");
  Counter* const failures =
      Metrics::Instance().counter("scidb.query.failures");
  Histogram* const latency_us =
      Metrics::Instance().histogram("scidb.query.latency_us");

  static const QueryMetrics& Get() {
    static auto* const m = new QueryMetrics();
    return *m;
  }
};

}  // namespace

Result<QueryResult> Session::Execute(const Statement& stmt) {
  const QueryMetrics& qm = QueryMetrics::Get();
  uint64_t t0 = clock_();
  Result<QueryResult> result = ExecuteStatement(stmt);
  qm.latency_us->Record(static_cast<int64_t>((clock_() - t0) / 1000));
  qm.statements->Inc();
  if (!result.ok()) qm.failures->Inc();
  // Parse bookkeeping is one-shot: whatever statement ran, the next
  // Execute(Statement) from a binding must not inherit this text.
  pending_parse_ns_ = 0;
  pending_statement_.clear();
  return result;
}

Result<QueryResult> Session::ExecuteStatement(const Statement& stmt) {
  QueryResult result;
  switch (stmt.kind) {
    case Statement::Kind::kDefine:
      RETURN_NOT_OK(Define(stmt.define_schema));
      result.message = "defined " + stmt.define_schema.name();
      return result;
    case Statement::Kind::kCreate:
      RETURN_NOT_OK(
          CreateArray(stmt.create_name, stmt.create_type, stmt.create_highs));
      result.message = "created " + stmt.create_name;
      return result;
    case Statement::Kind::kInsert: {
      ASSIGN_OR_RETURN(std::shared_ptr<MemArray> arr,
                       GetArray(stmt.insert_array));
      RETURN_NOT_OK(arr->SetCell(stmt.insert_coords, stmt.insert_values));
      result.message = "inserted 1 cell";
      return result;
    }
    case Statement::Kind::kEnhance: {
      ASSIGN_OR_RETURN(EnhancedArray* arr, Enhanced(stmt.target_array));
      ASSIGN_OR_RETURN(
          std::shared_ptr<EnhancementFunction> fn,
          BuildEnhancement(stmt.func_name, stmt.func_args,
                           arr->base().schema().ndims()));
      RETURN_NOT_OK(arr->Enhance(fn));
      result.message = "enhanced " + stmt.target_array + " with " +
                       stmt.func_name;
      return result;
    }
    case Statement::Kind::kShape: {
      ASSIGN_OR_RETURN(EnhancedArray* arr, Enhanced(stmt.target_array));
      ASSIGN_OR_RETURN(std::shared_ptr<ShapeFunction> fn,
                       BuildShape(stmt.func_name, stmt.func_args,
                                  arr->base().schema().ndims()));
      RETURN_NOT_OK(arr->SetShape(fn));
      result.message = "shaped " + stmt.target_array + " with " +
                       stmt.func_name;
      return result;
    }
    case Statement::Kind::kEnhancedRead: {
      ASSIGN_OR_RETURN(EnhancedArray* arr, Enhanced(stmt.read_array));
      ASSIGN_OR_RETURN(result.values,
                       arr->GetEnhancedAny(stmt.read_pseudo));
      result.kind = QueryResult::Kind::kValues;
      return result;
    }
    case Statement::Kind::kTrace: {
      if (provenance_ == nullptr) {
        return Status::Invalid(
            "no provenance log attached to this session");
      }
      CellRef d{stmt.trace_array, stmt.trace_coords};
      result.kind = QueryResult::Kind::kCells;
      if (stmt.trace_back) {
        ASSIGN_OR_RETURN(auto steps, provenance_->TraceBack(d));
        for (const auto& step : steps) {
          for (const CellRef& c : step.contributors) {
            result.cells.push_back(c);
          }
        }
        result.message =
            "derivation spans " + std::to_string(steps.size()) + " step(s)";
      } else {
        ASSIGN_OR_RETURN(result.cells, provenance_->TraceForward(d));
        result.message = std::to_string(result.cells.size()) +
                         " downstream element(s)";
      }
      return result;
    }
    case Statement::Kind::kExplain:
      RETURN_NOT_OK(ValidateOpTree(stmt.query, &user_op_names_));
      return ExecuteExplain(stmt);
    case Statement::Kind::kQuery:
    case Statement::Kind::kStore: {
      // Validated once against the operator table, so the optimizer,
      // the plan labels and the executors may index arguments freely.
      RETURN_NOT_OK(ValidateOpTree(stmt.query, &user_op_names_));
      OpNodePtr tree = stmt.query;
      if (optimize_) {
        ASSIGN_OR_RETURN(tree, OptimizeOpTree(tree));
      }
      if (stmt.kind == Statement::Kind::kQuery) return ExecuteQueryNode(tree);
      ASSIGN_OR_RETURN(MemArray out, EvalNode(tree, nullptr));
      if (arrays_.count(stmt.store_into)) {
        return Status::AlreadyExists("array '" + stmt.store_into +
                                     "' already exists");
      }
      out.mutable_schema()->set_name(stmt.store_into);
      arrays_.emplace(stmt.store_into,
                      std::make_shared<MemArray>(std::move(out)));
      result.message = "stored " + stmt.store_into;
      return result;
    }
    case Statement::Kind::kSet: {
      if (stmt.set_option != "parallelism") {
        return Status::Invalid("unknown session option '" +
                               stmt.set_option + "'");
      }
      if (stmt.set_value < 1 ||
          stmt.set_value > static_cast<int64_t>(kMaxParallelism)) {
        return Status::Invalid("parallelism must be in [1, " +
                               std::to_string(kMaxParallelism) + "], got " +
                               std::to_string(stmt.set_value));
      }
      RETURN_NOT_OK(set_parallelism(static_cast<int>(stmt.set_value)));
      int effective = parallelism();
      result.message = "parallelism set to " + std::to_string(effective);
      if (effective < stmt.set_value) {
        // Shared-pool mode (DESIGN.md §15): the server's per-query cap
        // wins; README documents the precedence.
        result.message += " (requested " + std::to_string(stmt.set_value) +
                          ", clamped to the server's per-query cap)";
      }
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

namespace {

// Handles to the network counters `explain analyze` reports as root
// notes (net.*). Registered once; reading them is two relaxed loads.
struct NetExplainCounters {
  Counter* const frames = Metrics::Instance().counter("scidb.net.frames_sent");
  Counter* const bytes = Metrics::Instance().counter("scidb.net.bytes_sent");
  Counter* const retries = Metrics::Instance().counter("scidb.net.retries");
  Counter* const timeouts = Metrics::Instance().counter("scidb.net.timeouts");
  Histogram* const latency =
      Metrics::Instance().histogram("scidb.net.rpc_latency_us");

  static const NetExplainCounters& Get() {
    static const NetExplainCounters c;
    return c;
  }
};

}  // namespace

Result<QueryResult> Session::ExecuteExplain(const Statement& stmt) {
  auto trace = std::make_shared<QueryTrace>();
  trace->statement = pending_statement_;
  trace->parse_ns = pending_parse_ns_;

  OpNodePtr tree = stmt.query;
  if (optimize_) {
    uint64_t t0 = clock_();
    ASSIGN_OR_RETURN(tree, OptimizeOpTree(tree));
    trace->optimize_ns = clock_() - t0;
  }

  QueryResult result;
  result.kind = QueryResult::Kind::kExplain;
  if (!stmt.explain_analyze) {
    // Plain explain: show the optimized plan, execute nothing.
    result.message = FormatPlan(*tree);
    return result;
  }

  trace->root.label = PlanLabel(*tree);
  const NetExplainCounters& net = NetExplainCounters::Get();
  const int64_t net_frames0 = net.frames->value();
  const int64_t net_bytes0 = net.bytes->value();
  const int64_t net_retries0 = net.retries->value();
  const int64_t net_timeouts0 = net.timeouts->value();
  const int64_t net_rpcs0 = net.latency->count();
  const int64_t net_us0 = net.latency->sum();
  uint64_t t0 = clock_();
  const OperatorRow* row = FindOperator(tree->op);
  if (row != nullptr && row->test != nullptr) {
    // Top-level boolean probe: trace the input scan, note the verdict.
    TraceSpan span(clock_, &trace->root);
    TraceNode* child = trace->root.AddChild();
    child->label = PlanLabel(*tree->inputs[0]);
    ASSIGN_OR_RETURN(MemArray in, EvalNode(tree->inputs[0], child));
    trace->root.AddNote(tree->op, row->test(*tree, in) ? 1 : 0);
  } else {
    // EvalNode stamps trace->root's span itself.
    ASSIGN_OR_RETURN(MemArray out, EvalNode(tree, &trace->root));
    (void)out;  // explain analyze reports the trace, not the data
  }
  trace->execute_ns = clock_() - t0;
  // Network activity attributable to this query (grid-backed plans);
  // queries that touched no transport stay note-free.
  if (net.frames->value() != net_frames0) {
    trace->root.AddNote(
        "net.frames_sent",
        static_cast<double>(net.frames->value() - net_frames0));
    trace->root.AddNote(
        "net.bytes_sent",
        static_cast<double>(net.bytes->value() - net_bytes0));
    trace->root.AddNote(
        "net.rpcs", static_cast<double>(net.latency->count() - net_rpcs0));
    trace->root.AddNote(
        "net.rpc_time_us",
        static_cast<double>(net.latency->sum() - net_us0));
    trace->root.AddNote(
        "net.retries",
        static_cast<double>(net.retries->value() - net_retries0));
    trace->root.AddNote(
        "net.timeouts",
        static_cast<double>(net.timeouts->value() - net_timeouts0));
  }
  {
    MutexLock lock(mu_);
    last_trace_ = trace;
  }
  result.trace = trace;
  result.message = trace->ToString(true);
  return result;
}

Result<QueryResult> Session::ExecuteQueryNode(const OpNodePtr& node) const {
  QueryResult result;
  const OperatorRow* row = FindOperator(node->op);
  if (row != nullptr && row->test != nullptr) {
    // Exists? [A, 7, 7] — boolean result (paper §2.2.1).
    ASSIGN_OR_RETURN(MemArray in, EvalNode(node->inputs[0], nullptr));
    result.kind = QueryResult::Kind::kBool;
    result.boolean = row->test(*node, in);
    return result;
  }
  ASSIGN_OR_RETURN(MemArray out, EvalNode(node, nullptr));
  result.kind = QueryResult::Kind::kArray;
  result.array = std::make_shared<MemArray>(std::move(out));
  return result;
}

namespace {

// Exec-layer metrics (scidb.exec.*). The shared counters live in one
// registered-once struct; the per-operator counter is looked up by name
// on each flush — once per operator invocation, never per cell.
struct ExecMetrics {
  Counter* const ops = Metrics::Instance().counter("scidb.exec.ops");
  Counter* const cells_visited =
      Metrics::Instance().counter("scidb.exec.cells_visited");
  Counter* const chunks_scanned =
      Metrics::Instance().counter("scidb.exec.chunks_scanned");
  Counter* const chunks_pruned =
      Metrics::Instance().counter("scidb.exec.chunks_pruned");
  Counter* const morsels = Metrics::Instance().counter("scidb.exec.morsels");
  Histogram* const op_latency_us =
      Metrics::Instance().histogram("scidb.exec.op_latency_us");

  static const ExecMetrics& Get() {
    static auto* const m = new ExecMetrics();
    return *m;
  }
};

void FlushExecStats(const std::string& op, const ExecStats& stats,
                    uint64_t wall_ns) {
  const ExecMetrics& m = ExecMetrics::Get();
  m.ops->Inc();
  m.cells_visited->Inc(stats.cells_visited);
  m.chunks_scanned->Inc(stats.chunks_scanned);
  m.chunks_pruned->Inc(stats.chunks_pruned);
  m.morsels->Inc(stats.morsels);
  m.op_latency_us->Record(static_cast<int64_t>(wall_ns / 1000));
  Metrics::Instance().counter("scidb.exec.op." + op)->Inc();
}

}  // namespace

Result<std::shared_ptr<const ArraySource>> Session::ResolveArrayRef(
    const std::string& name, TraceNode* tn) const {
  if (auto it = arrays_.find(name); it != arrays_.end()) {
    // Shares the catalog's chunks; operators never mutate their inputs.
    return std::shared_ptr<const ArraySource>(
        std::make_shared<MemArraySource>(it->second));
  }
  // Snapshot the guarded pointers; mu_ must not be held across the read
  // itself (it can run for a long time and takes engine locks).
  StorageManager* storage = nullptr;
  ArrayResolver resolver;
  {
    MutexLock lock(mu_);
    storage = storage_;
    resolver = resolver_;
  }
  // Query-server snapshots shadow disk arrays but not session-local
  // names: a session's own `store` always wins (session isolation),
  // while shared arrays resolve to the epoch-pinned version.
  if (resolver != nullptr) {
    Result<std::shared_ptr<const ArraySource>> resolved = resolver(name);
    if (resolved.ok() || !resolved.status().IsNotFound()) {
      if (resolved.ok() && tn != nullptr) tn->AddNote("snapshot", 1.0);
      return resolved;
    }
  }
  if (storage != nullptr) {
    Result<DiskArray*> da = storage->OpenArray(name);
    // The storage manager owns the array: alias it without ownership.
    if (da.ok()) {
      return std::shared_ptr<const ArraySource>(std::shared_ptr<void>(),
                                                da.value());
    }
  }
  return Status::NotFound("no array named '" + name + "'");
}

Result<MemArray> Session::ReadArrayRef(const std::string& name,
                                       const Expr* subsample,
                                       TraceNode* tn) const {
  ASSIGN_OR_RETURN(std::shared_ptr<const ArraySource> source,
                   ResolveArrayRef(name, tn));
  ThreadPool* pool = nullptr;
  {
    MutexLock lock(mu_);
    pool = pool_.get();
  }
  const Box box = subsample != nullptr
                      ? SubsampleBox(MakeContext(), *source, *subsample)
                      : source->Extent();
  // Deltas, not totals: the trace reports what THIS read did to the
  // cache and the disk, not their lifetime history.
  const auto* disk = dynamic_cast<const DiskArray*>(source.get());
  ChunkCache::Stats before;
  int64_t bytes_read_before = 0;
  if (tn != nullptr && disk != nullptr) {
    if (disk->cache() != nullptr) before = disk->cache()->stats();
    bytes_read_before = disk->stats().bytes_read;
  }
  ASSIGN_OR_RETURN(MemArray out, source->ReadRegion(box, pool));
  if (tn == nullptr) return out;
  if (subsample != nullptr) {
    tn->AddNote("region " + box.ToString(),
                static_cast<double>(out.CellCount()));
  }
  if (disk != nullptr) {
    tn->AddNote("disk_bytes_read",
                static_cast<double>(disk->stats().bytes_read -
                                    bytes_read_before));
    if (disk->cache() != nullptr) {
      const ChunkCache::Stats& after = disk->cache()->stats();
      double hits = static_cast<double>(after.hits - before.hits);
      double misses = static_cast<double>(after.misses - before.misses);
      tn->AddNote("cache_hits", hits);
      tn->AddNote("cache_misses", misses);
      if (hits + misses > 0) {
        tn->AddNote("cache_hit_ratio", hits / (hits + misses));
      }
    }
  }
  return out;
}

Result<MemArray> Session::EvalOp(const OpNode& node,
                                 const std::vector<MemArray>& inputs,
                                 const ExecContext& ctx) const {
  if (const OperatorRow* row = FindOperator(node.op)) {
    if (row->exec == nullptr) {
      return Status::Invalid(node.op +
                             " is a top-level predicate, not an array "
                             "expression");
    }
    return row->exec(ctx, node, inputs);
  }
  if (auto it = user_ops_.find(node.op); it != user_ops_.end()) {
    return it->second(ctx, inputs, node.exprs);
  }
  return Status::NotImplemented("unknown operator '" + node.op + "'");
}

Result<MemArray> Session::Eval(const OpNodePtr& node) const {
  RETURN_NOT_OK(ValidateOpTree(node, &user_op_names_));
  return EvalNode(node, nullptr);
}

Result<MemArray> Session::EvalNode(const OpNodePtr& node, TraceNode* self,
                                   const Expr* subsample) const {
  if (node == nullptr) return Status::Invalid("null query node");
  TraceSpan span(clock_, self);

  if (node->is_array_ref()) {
    ASSIGN_OR_RETURN(MemArray out, ReadArrayRef(node->array, subsample, self));
    if (self != nullptr) self->out_cells = out.CellCount();
    return out;
  }

  // Pushdown at the leaf: an array reference a Subsample reads directly
  // reads only the predicate's box.
  const Expr* pushdown = RegionPredicate(*node);
  std::vector<MemArray> inputs;
  inputs.reserve(node->inputs.size());
  for (const auto& in : node->inputs) {
    TraceNode* child = nullptr;
    if (self != nullptr && in != nullptr) {
      child = self->AddChild();
      child->label = PlanLabel(*in);
    }
    ASSIGN_OR_RETURN(MemArray a, EvalNode(in, child, pushdown));
    inputs.push_back(std::move(a));
  }

  ExecContext ctx = MakeContext();
  ExecStats stats;
  ctx.stats = &stats;
  uint64_t t0 = clock_();
  Result<MemArray> out = EvalOp(*node, inputs, ctx);
  FlushExecStats(node->op, stats, clock_() - t0);
  if (!out.ok() || self == nullptr) return out;

  self->out_cells = out.value().CellCount();
  if (stats.cells_visited > 0) {
    self->AddNote("cells_visited", static_cast<double>(stats.cells_visited));
  }
  if (stats.chunks_scanned > 0) {
    self->AddNote("chunks_scanned",
                  static_cast<double>(stats.chunks_scanned));
  }
  if (stats.chunks_pruned > 0) {
    self->AddNote("chunks_pruned", static_cast<double>(stats.chunks_pruned));
  }
  // Gated on an actual pool so serial explain-analyze output is unchanged.
  if (stats.parallel_workers > 1) {
    self->AddNote("morsels", static_cast<double>(stats.morsels));
    self->AddNote("workers", static_cast<double>(stats.parallel_workers));
  }
  return out;
}

// ------------------------------- binding --------------------------------

namespace binding {

namespace {
std::shared_ptr<OpNode> Node(std::string op) {
  auto n = std::make_shared<OpNode>();
  n->op = std::move(op);
  return n;
}
}  // namespace

OpNodePtr Array(std::string name) {
  auto n = std::make_shared<OpNode>();
  n->array = std::move(name);
  return n;
}

OpNodePtr Subsample(OpNodePtr in, ExprPtr pred) {
  auto n = Node("subsample");
  n->inputs = {std::move(in)};
  n->exprs = {std::move(pred)};
  return n;
}

OpNodePtr Filter(OpNodePtr in, ExprPtr pred) {
  auto n = Node("filter");
  n->inputs = {std::move(in)};
  n->exprs = {std::move(pred)};
  return n;
}

OpNodePtr Sjoin(OpNodePtr a, OpNodePtr b, ExprPtr dim_equalities) {
  auto n = Node("sjoin");
  n->inputs = {std::move(a), std::move(b)};
  n->exprs = {std::move(dim_equalities)};
  return n;
}

OpNodePtr Cjoin(OpNodePtr a, OpNodePtr b, ExprPtr pred) {
  auto n = Node("cjoin");
  n->inputs = {std::move(a), std::move(b)};
  n->exprs = {std::move(pred)};
  return n;
}

OpNodePtr Aggregate(OpNodePtr in, std::vector<std::string> group_dims,
                    std::string agg, std::string attr) {
  auto n = Node("aggregate");
  n->inputs = {std::move(in)};
  n->names = std::move(group_dims);
  n->aggs = {{std::move(agg), std::move(attr)}};
  return n;
}

OpNodePtr Apply(OpNodePtr in, std::string attr, ExprPtr e) {
  auto n = Node("apply");
  n->inputs = {std::move(in)};
  n->names = {std::move(attr)};
  n->exprs = {std::move(e)};
  return n;
}

OpNodePtr Project(OpNodePtr in, std::vector<std::string> attrs) {
  auto n = Node("project");
  n->inputs = {std::move(in)};
  n->names = std::move(attrs);
  return n;
}

OpNodePtr Reshape(OpNodePtr in, std::vector<std::string> dim_order,
                  std::vector<DimensionDesc> new_dims) {
  auto n = Node("reshape");
  n->inputs = {std::move(in)};
  n->names = std::move(dim_order);
  n->dims = std::move(new_dims);
  return n;
}

OpNodePtr Regrid(OpNodePtr in, std::vector<int64_t> factors, std::string agg,
                 std::string attr) {
  auto n = Node("regrid");
  n->inputs = {std::move(in)};
  n->numbers = std::move(factors);
  n->aggs = {{std::move(agg), std::move(attr)}};
  return n;
}

OpNodePtr Window(OpNodePtr in, std::vector<int64_t> radii, std::string agg,
                 std::string attr) {
  auto n = Node("window");
  n->inputs = {std::move(in)};
  n->numbers = std::move(radii);
  n->aggs = {{std::move(agg), std::move(attr)}};
  return n;
}

OpNodePtr Concat(OpNodePtr a, OpNodePtr b, std::string dim) {
  auto n = Node("concat");
  n->inputs = {std::move(a), std::move(b)};
  n->names = {std::move(dim)};
  return n;
}

OpNodePtr CrossProduct(OpNodePtr a, OpNodePtr b) {
  auto n = Node("crossproduct");
  n->inputs = {std::move(a), std::move(b)};
  return n;
}

OpNodePtr AddDimension(OpNodePtr in, std::string name) {
  auto n = Node("adddimension");
  n->inputs = {std::move(in)};
  n->names = {std::move(name)};
  return n;
}

OpNodePtr RemoveDimension(OpNodePtr in, std::string name) {
  auto n = Node("removedimension");
  n->inputs = {std::move(in)};
  n->names = {std::move(name)};
  return n;
}

}  // namespace binding

}  // namespace scidb
