#include "server/query_server.h"

#include <utility>

#include "common/macros.h"
#include "query/parse_tree.h"
#include "query/parser.h"
#include "storage/chunk_serde.h"

namespace scidb {
namespace server {

namespace {

Metrics& M() { return Metrics::Instance(); }

}  // namespace

QueryServer::QueryServer(net::Transport* transport, int node, Options opts)
    : transport_(transport),
      node_(node),
      opts_(opts),
      clock_(opts.clock ? opts.clock : TraceClock([] { return SteadyNowNs(); })),
      scheduler_(FairScheduler::Options{opts.pool_width, opts.slice_morsels}),
      rpc_(transport, node),
      queries_(M().counter("scidb.server.queries")),
      admission_rejects_(M().counter("scidb.server.admission_rejects")),
      cancels_(M().counter("scidb.server.cancels")),
      active_queries_(M().gauge("scidb.server.active_queries")),
      queued_bytes_gauge_(M().gauge("scidb.server.queued_result_bytes")),
      latency_us_(M().histogram("scidb.server.query_latency_us")) {}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  rpc_.Handle(net::MessageType::kQuery,
              [this](int src, const std::vector<uint8_t>& p) {
                return HandleQuery(src, p);
              });
  rpc_.Handle(net::MessageType::kQueryDone,
              [this](int src, const std::vector<uint8_t>& p) {
                return HandleDone(src, p);
              });
  rpc_.Handle(net::MessageType::kResultChunk,
              [this](int src, const std::vector<uint8_t>& p) {
                return HandleChunk(src, p);
              });
  rpc_.Handle(net::MessageType::kCancel,
              [this](int src, const std::vector<uint8_t>& p) {
                return HandleCancel(src, p);
              });
  return net::BindNode(transport_, node_, &rpc_, nullptr);
}

Result<std::vector<uint8_t>> QueryServer::HandleQuery(
    int src, const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::QueryRequest req, net::QueryRequest::Decode(payload));
  std::shared_ptr<ClientState> cs;
  std::shared_ptr<QueryState> qs;
  {
    MutexLock lk(mu_);
    if (shutdown_) {
      return Status::Unavailable("query server shutting down");
    }
    const QueryKey key(src, req.client_qid);
    // Idempotency: a duplicated/retried submit of a live id, or of an id
    // at or below the client's released watermark, acks without
    // resubmitting — the first copy's execution is the execution.
    auto wm = released_.find(src);
    if ((wm != released_.end() && req.client_qid <= wm->second) ||
        queries_live_.count(key) > 0) {
      return std::vector<uint8_t>{};
    }
    // Admission control: reject (typed Busy), never queue. The two
    // bounds cap server memory from both directions — running queries
    // and finished-but-unfetched result buffers.
    if (active_ >= opts_.max_concurrent_queries) {
      admission_rejects_->Inc();
      return Status::Busy("admission: " + std::to_string(active_) +
                          " queries already running");
    }
    if (queued_bytes_ >= opts_.max_queued_result_bytes) {
      admission_rejects_->Inc();
      return Status::Busy(
          "admission: " + std::to_string(queued_bytes_) +
          " result bytes queued; fetch or release finished queries");
    }
    auto sit = sessions_.find(src);
    if (sit == sessions_.end()) {
      // First statement from this client: a private Session (its own
      // catalog and knobs — the isolation boundary) wired onto the
      // shared pool under the server's per-query cap.
      auto session = std::make_unique<Session>();
      session->UseSharedPool(scheduler_.pool(), opts_.per_query_parallelism);
      sit = sessions_
                .emplace(src,
                         std::make_shared<ClientState>(std::move(session)))
                .first;
    }
    cs = sit->second;
    qs = std::make_shared<QueryState>(src, req.client_qid);
    queries_live_.emplace(key, qs);
    ++active_;
    active_queries_->Set(active_);
  }
  // Spawn the driver outside the registry lock, then hand the handle
  // over under qs->mu (see QueryState::driver).
  std::thread driver(
      [this, cs, qs, stmt = std::move(req.statement)]() mutable {
        RunQuery(std::move(cs), std::move(qs), std::move(stmt));
      });
  {
    MutexLock lk(qs->mu);
    qs->driver = std::move(driver);
    qs->driver_set = true;
    qs->done_cv.notify_all();
  }
  return std::vector<uint8_t>{};
}

Result<QueryResult> QueryServer::ExecuteOnSession(
    ClientState* cs, QueryState* qs, int64_t* epoch,
    const std::string& statement) {
  ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  // Inserts into shared-catalog arrays commit globally (advancing the
  // epoch); everything else — including inserts into the session's own
  // arrays — runs on the private session.
  if (stmt.kind == Statement::Kind::kInsert &&
      catalog_.Has(stmt.insert_array)) {
    ASSIGN_OR_RETURN(
        int64_t commit_epoch,
        catalog_.CommitCells(stmt.insert_array,
                             {CellUpdate::Set(stmt.insert_coords,
                                              stmt.insert_values)}));
    *epoch = commit_epoch;
    QueryResult r;
    r.kind = QueryResult::Kind::kNone;
    r.message = "inserted into shared array " + stmt.insert_array +
                " (epoch " + std::to_string(commit_epoch) + ")";
    return r;
  }
  Session* session = cs->session.get();
  // Snapshot reads: shared arrays resolve to their state as of the
  // pinned epoch for the whole statement. Concurrent commits land in
  // later epochs and are invisible — the result is bit-identical to a
  // serial run against epoch `pinned`.
  const int64_t pinned = *epoch;
  session->set_array_resolver(
      [this, pinned](const std::string& name)
          -> Result<std::shared_ptr<const ArraySource>> {
        return catalog_.Source(name, pinned);
      });
  std::unique_ptr<SliceGate> gate = scheduler_.MakeGate(&qs->cancel);
  Session::QueryControls controls;
  controls.cancel = &qs->cancel;
  controls.gate = gate.get();
  session->set_query_controls(controls);
  Result<QueryResult> result = session->Execute(stmt);
  session->set_query_controls(Session::QueryControls{});
  session->set_array_resolver(nullptr);
  return result;
}

void QueryServer::RunQuery(std::shared_ptr<ClientState> cs,
                           std::shared_ptr<QueryState> qs,
                           std::string statement) {
  queries_->Inc();
  const uint64_t t0 = clock_();
  // Statements from one client run one at a time; the busy flag (not a
  // mutex held across Execute — the engine blocks on the pool inside)
  // serializes them while letting other clients' drivers interleave.
  {
    MutexLock lk(cs->mu);
    while (cs->busy) cs->cv.wait(cs->mu);
    cs->busy = true;
  }
  int64_t epoch = catalog_.epoch();
  Result<QueryResult> result =
      ExecuteOnSession(cs.get(), qs.get(), &epoch, statement);
  {
    MutexLock lk(cs->mu);
    cs->busy = false;
    cs->cv.notify_all();
  }

  // Serialize the result into wire chunks outside every lock.
  Status st = result.ok() ? Status::OK() : result.status();
  uint8_t kind = 0;
  uint8_t boolean = 0;
  std::string message;
  std::vector<std::vector<uint8_t>> chunks;
  bool has_schema = false;
  ArraySchema schema;
  size_t bytes = 0;
  if (result.ok()) {
    const QueryResult& r = result.value();
    kind = static_cast<uint8_t>(r.kind);
    boolean = r.boolean ? 1 : 0;
    message = r.message;
    if (r.kind == QueryResult::Kind::kArray && r.array != nullptr) {
      has_schema = true;
      schema = r.array->schema();
      for (const auto& [origin, chunk] : r.array->chunks()) {
        (void)origin;  // chunk bytes carry the box; origin is rederived
        chunks.push_back(SerializeChunk(*chunk));
        bytes += chunks.back().size();
      }
    } else if (r.kind == QueryResult::Kind::kCells ||
               r.kind == QueryResult::Kind::kValues) {
      // Provenance cells / enhanced-read values are session-local
      // diagnostics; only their summary message crosses the wire.
      if (message.empty()) {
        message = std::to_string(r.kind == QueryResult::Kind::kCells
                                     ? r.cells.size()
                                     : r.values.size()) +
                  " results (not transported; see README)";
      }
    }
  }
  // Registry accounting BEFORE done flips: a release (Reap) can only
  // run after observing done, so the bytes it subtracts were always
  // added first — the ordering that keeps queued_bytes_ from
  // underflowing.
  {
    MutexLock lk(mu_);
    --active_;
    queued_bytes_ += bytes;
    active_queries_->Set(active_);
    queued_bytes_gauge_->Set(static_cast<int64_t>(queued_bytes_));
  }
  {
    MutexLock lk(qs->mu);
    qs->status = std::move(st);
    qs->kind = kind;
    qs->boolean = boolean;
    qs->message = std::move(message);
    qs->chunks = std::move(chunks);
    qs->has_schema = has_schema;
    qs->schema = std::move(schema);
    qs->snapshot_epoch = epoch;
    qs->result_bytes = bytes;
    qs->done = true;
    qs->done_cv.notify_all();
  }
  latency_us_->Record(static_cast<int64_t>((clock_() - t0) / 1000));
}

Result<std::vector<uint8_t>> QueryServer::HandleDone(
    int src, const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::QueryDoneRequest req,
                   net::QueryDoneRequest::Decode(payload));
  std::shared_ptr<QueryState> qs;
  {
    MutexLock lk(mu_);
    auto it = queries_live_.find(QueryKey(src, req.client_qid));
    if (it == queries_live_.end()) {
      auto wm = released_.find(src);
      if (wm != released_.end() && req.client_qid <= wm->second) {
        // Released id (cancelled, or a delayed duplicate poll after
        // release — the RPC layer discards stale duplicates anyway).
        net::QueryDoneResponse resp;
        resp.done = 1;
        resp.status_code =
            static_cast<uint8_t>(StatusCode::kCancelled);
        resp.status_message = "query cancelled or released";
        return resp.EncodePayload();
      }
      return Status::NotFound("unknown query id " +
                              std::to_string(req.client_qid));
    }
    qs = it->second;
  }
  net::QueryDoneResponse resp;
  {
    MutexLock lk(qs->mu);
    if (!qs->done) {
      resp.done = 0;
      return resp.EncodePayload();
    }
    resp.done = 1;
    resp.status_code = static_cast<uint8_t>(qs->status.code());
    resp.status_message = qs->status.message();
    resp.kind = qs->kind;
    resp.boolean = qs->boolean;
    resp.message = qs->message;
    resp.n_chunks = qs->chunks.size();
    resp.snapshot_epoch = qs->snapshot_epoch;
    resp.has_schema = qs->has_schema ? 1 : 0;
    if (qs->has_schema) resp.schema = qs->schema;
  }
  return resp.EncodePayload();
}

Result<std::vector<uint8_t>> QueryServer::HandleChunk(
    int src, const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::ResultChunkRequest req,
                   net::ResultChunkRequest::Decode(payload));
  std::shared_ptr<QueryState> qs;
  {
    MutexLock lk(mu_);
    auto it = queries_live_.find(QueryKey(src, req.client_qid));
    if (it == queries_live_.end()) {
      return Status::NotFound("unknown query id " +
                              std::to_string(req.client_qid));
    }
    qs = it->second;
  }
  net::ResultChunkResponse resp;
  MutexLock lk(qs->mu);
  if (!qs->done) {
    resp.ready = 0;
    return resp.EncodePayload();
  }
  if (req.seq >= qs->chunks.size()) {
    return Status::OutOfRange("chunk seq " + std::to_string(req.seq) +
                              " past result of " +
                              std::to_string(qs->chunks.size()) + " chunks");
  }
  resp.ready = 1;
  // A copy per fetch: re-fetching seq k (RPC retry) returns the same
  // bytes — the reassembly idempotency the fault-injection suite checks.
  resp.chunk_bytes = qs->chunks[static_cast<size_t>(req.seq)];
  return resp.EncodePayload();
}

std::shared_ptr<QueryServer::QueryState> QueryServer::Reap(
    const QueryKey& key) {
  MutexLock lk(mu_);
  auto it = queries_live_.find(key);
  if (it == queries_live_.end()) return nullptr;
  std::shared_ptr<QueryState> qs = it->second;
  queries_live_.erase(it);
  {
    MutexLock qlk(qs->mu);
    queued_bytes_ -= qs->result_bytes;
  }
  queued_bytes_gauge_->Set(static_cast<int64_t>(queued_bytes_));
  uint64_t& wm = released_[key.first];
  if (key.second > wm) wm = key.second;
  return qs;
}

Result<std::vector<uint8_t>> QueryServer::HandleCancel(
    int src, const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::CancelRequest req, net::CancelRequest::Decode(payload));
  const QueryKey key(src, req.client_qid);
  std::shared_ptr<QueryState> qs;
  {
    MutexLock lk(mu_);
    auto it = queries_live_.find(key);
    if (it == queries_live_.end()) {
      return std::vector<uint8_t>{};  // already released: no-op
    }
    qs = it->second;
  }
  // Abort if still running: the engine polls the flag before every
  // morsel, and Poke() wakes a gate-queued acquire so it observes it.
  {
    MutexLock lk(qs->mu);
    if (!qs->done) cancels_->Inc();
  }
  qs->cancel.store(true, std::memory_order_release);
  scheduler_.Poke();
  // Wait for the driver to publish, take its handle, and reap. Another
  // concurrent Cancel may win the Reap race; only the winner joins.
  std::thread driver;
  {
    MutexLock lk(qs->mu);
    while (!qs->done || !qs->driver_set) qs->done_cv.wait(qs->mu);
    driver = std::move(qs->driver);
  }
  (void)Reap(key);  // null if a concurrent Cancel already reaped
  if (driver.joinable()) driver.join();
  return std::vector<uint8_t>{};
}

void QueryServer::Shutdown() {
  std::vector<std::pair<QueryKey, std::shared_ptr<QueryState>>> live;
  {
    MutexLock lk(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    live.assign(queries_live_.begin(), queries_live_.end());
  }
  for (auto& [key, qs] : live) {
    (void)key;
    qs->cancel.store(true, std::memory_order_release);
  }
  scheduler_.Poke();
  for (auto& [key, qs] : live) {
    std::thread driver;
    {
      MutexLock lk(qs->mu);
      while (!qs->done || !qs->driver_set) qs->done_cv.wait(qs->mu);
      driver = std::move(qs->driver);
    }
    (void)Reap(key);
    if (driver.joinable()) driver.join();
  }
}

}  // namespace server
}  // namespace scidb
