#include "grid/cluster.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

#include "common/byte_io.h"
#include "common/flight_recorder.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "exec/expr_serde.h"
#include "exec/grouped_aggregate.h"
#include "grid/node_service.h"
#include "net/inprocess_transport.h"
#include "net/message.h"
#include "net/tcp_transport.h"
#include "storage/chunk_serde.h"

namespace scidb {

namespace {

// Grid-wide coordinator counters (scidb.grid.*). The scan counters
// live with the node's ScanShard handler (node_service.cc).
struct GridMetrics {
  Counter* const parallel_ops =
      Metrics::Instance().counter("scidb.grid.parallel_ops");
  // Replication & failover (DESIGN.md §13).
  Counter* const failover_reads =
      Metrics::Instance().counter("scidb.grid.failover_reads");
  Counter* const nodes_declared_dead =
      Metrics::Instance().counter("scidb.grid.nodes_declared_dead");
  Counter* const rereplicated_chunks =
      Metrics::Instance().counter("scidb.grid.rereplicated_chunks");
  Counter* const rereplicated_bytes =
      Metrics::Instance().counter("scidb.grid.rereplicated_bytes");

  static const GridMetrics& Get() {
    static auto* const m = new GridMetrics();
    return *m;
  }
};

// RPC outcomes that mean "the peer may be gone" — the ones failover and
// failure detection react to. Anything else (Invalid, Corruption, a
// server-side error Status) is a real answer from a live node.
bool IsPeerFailure(const Status& s) {
  return s.IsUnavailable() || s.IsDeadlineExceeded();
}

}  // namespace

MetricsSnapshot ClusterMetrics::Labeled() const {
  MetricsSnapshot out;
  for (const NodeMetrics& nm : nodes) {
    if (!nm.reachable) continue;
    for (const MetricsSnapshot::Entry& e : nm.snapshot.entries) {
      MetricsSnapshot::Entry labeled = e;
      labeled.name = "node" + std::to_string(nm.node) + "." + e.name;
      out.entries.push_back(std::move(labeled));
    }
  }
  return out;
}

DistributedArray::DistributedArray(
    ArraySchema schema, std::shared_ptr<const Partitioner> partitioner,
    GridNetOptions net)
    : schema_(std::move(schema)),
      partitioner_(std::move(partitioner)),
      net_opts_(std::move(net)) {
  SCIDB_CHECK(partitioner_ != nullptr);
  clock_ = net_opts_.clock ? net_opts_.clock : TraceClock(SteadyNowNs);
  placement_ =
      std::make_unique<ReplicaPlacement>(partitioner_, net_opts_.replication);
  {
    MutexLock lk(meta_mu_);
    consec_fail_.assign(static_cast<size_t>(num_nodes()), 0);
  }
  InitNet();
}

DistributedArray::~DistributedArray() { ShutdownNet(); }

void DistributedArray::InitNet() {
  switch (net_opts_.transport) {
    case GridNetOptions::TransportKind::kInline:
      base_transport_ = std::make_unique<net::InProcessTransport>(
          net::InProcessTransport::Mode::kInline);
      break;
    case GridNetOptions::TransportKind::kThreaded:
      base_transport_ = std::make_unique<net::InProcessTransport>(
          net::InProcessTransport::Mode::kThreaded);
      break;
    case GridNetOptions::TransportKind::kTcp:
      base_transport_ = std::make_unique<net::LoopbackTcpTransport>();
      break;
  }
  transport_ = base_transport_.get();
  if (net_opts_.fault_seed != 0) {
    fault_ = std::make_unique<net::FaultInjectingTransport>(
        base_transport_.get(), net_opts_.fault_profile, net_opts_.fault_seed);
    transport_ = fault_.get();
  }
  // Servers share the resolved clock so server-side handler spans are
  // deterministic under VirtualTime, like every other timing here.
  net::RpcServer::Options sopts;
  sopts.clock = clock_;
  for (int node = 0; node < num_nodes(); ++node) {
    services_.push_back(std::make_unique<GridNodeService>(
        node, schema_, clock_));
    servers_.push_back(
        std::make_unique<net::RpcServer>(transport_, node, sopts));
    services_.back()->Install(servers_.back().get());
    Status bound =
        net::BindNode(transport_, node, servers_.back().get(), nullptr);
    SCIDB_CHECK(bound.ok());
  }
  net::RpcClient::Options copts;
  copts.clock = net_opts_.clock;
  copts.sleep = net_opts_.sleep;
  copts.jitter_seed =
      net_opts_.fault_seed != 0 ? net_opts_.fault_seed : uint64_t{1};
  copts.spans = &client_spans_;
  client_ = std::make_unique<net::RpcClient>(transport_, coordinator_id(),
                                             copts);
  Status bound =
      net::BindNode(transport_, coordinator_id(), nullptr, client_.get());
  SCIDB_CHECK(bound.ok());
}

void DistributedArray::ShutdownNet() {
  if (transport_ != nullptr) transport_->Shutdown();
  client_.reset();
  servers_.clear();
  services_.clear();
  transport_ = nullptr;
  fault_.reset();
  base_transport_.reset();
}

ThreadPool* DistributedArray::FanoutPool() {
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_nodes());
  return pool_.get();
}

TraceNode* DistributedArray::TraceChild(const char* label) {
  if (trace_node_ == nullptr) return nullptr;
  TraceNode* child = trace_node_->AddChild();
  child->label = label;
  return child;
}

TraceContext DistributedArray::BeginOpTrace() const {
  if (trace_node_ == nullptr) return {};
  TraceContext ctx;
  ctx.trace_id = NextTraceId();
  ctx.span_id = NextSpanId();
  ctx.parent_span_id = 0;
  return ctx;
}

void DistributedArray::StitchOpTrace(TraceNode* child,
                                     const TraceContext& ctx) const {
  if (child == nullptr || !ctx.active()) return;
  std::vector<SpanRecord> client = client_spans_.Take(ctx.trace_id);
  // The stitch's own TraceGet RPCs are deliberately untraced: they must
  // not add spans to the trace they are collecting. Declared-dead nodes
  // are skipped outright rather than burning a deadline each.
  const std::set<int> dead = DeadSnapshot();
  net::CallOptions co = net_opts_.call;
  co.trace = {};
  for (int node = 0; node < num_nodes(); ++node) {
    std::vector<SpanRecord> server;
    if (dead.count(node) == 0) {
      net::TraceGetRequest req;
      req.trace_id = ctx.trace_id;
      Result<std::vector<uint8_t>> r = client_->Call(
          node, net::MessageType::kTraceGet, req.EncodePayload(), co);
      if (r.ok()) {
        Result<net::TraceGetResponse> resp =
            net::TraceGetResponse::Decode(r.value());
        if (resp.ok()) server = std::move(resp.value().spans);
      }
    }
    // Every node gets a sub-tree even when it served no RPC of this
    // trace (or was unreachable for the stitch), so the tree shape stays
    // comparable across runs and transports.
    TraceNode* node_child = child->AddChild();
    node_child->label = "node " + std::to_string(node);
    for (const SpanRecord& cs : client) {
      const double* dst = cs.FindNote("dst");
      if (dst == nullptr || static_cast<int>(*dst) != node) continue;
      TraceNode* rpc = node_child->AddChild();
      rpc->label = cs.label;
      rpc->wall_ns = cs.wall_ns;
      for (const auto& [k, v] : cs.notes) {
        if (k == "dst") continue;  // already encoded in the parent label
        rpc->AddNote(k, v);
      }
      // The matching server-side handler span(s): more than one when the
      // network duplicated or the client retried a delivered request.
      for (const SpanRecord& ss : server) {
        if (ss.parent_span_id != cs.span_id) continue;
        TraceNode* srv = rpc->AddChild();
        srv->label = ss.label;
        srv->wall_ns = ss.wall_ns;
        for (const auto& [k, v] : ss.notes) srv->AddNote(k, v);
      }
    }
  }
}

ClusterMetrics DistributedArray::ScrapeClusterMetrics(
    bool include_process) const {
  ClusterMetrics out;
  for (int node = 0; node < num_nodes(); ++node) {
    ClusterMetrics::NodeMetrics nm;
    nm.node = node;
    net::MetricsGetRequest req;
    req.include_process = include_process ? 1 : 0;
    Result<std::vector<uint8_t>> r = client_->Call(
        node, net::MessageType::kMetricsGet, req.EncodePayload(),
        net_opts_.call);
    if (r.ok()) {
      Result<net::MetricsGetResponse> resp =
          net::MetricsGetResponse::Decode(r.value());
      if (resp.ok()) {
        std::string json(resp.value().json.begin(), resp.value().json.end());
        Result<MetricsSnapshot> snap = SnapshotFromJson(json);
        if (snap.ok()) {
          nm.snapshot = std::move(snap.value());
          nm.reachable = true;
        }
      }
    }
    out.nodes.push_back(std::move(nm));
  }
  return out;
}

Result<std::vector<FlightEvent>> DistributedArray::FetchFlightEvents(
    int node) const {
  net::TraceGetRequest req;
  req.trace_id = 0;  // no spans wanted, only the flight ring
  req.include_flight = 1;
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                   client_->Call(node, net::MessageType::kTraceGet,
                                 req.EncodePayload(), net_opts_.call));
  ASSIGN_OR_RETURN(net::TraceGetResponse resp,
                   net::TraceGetResponse::Decode(bytes));
  return std::move(resp.events);
}

Status DistributedArray::PutChunk(int dest, const Chunk& chunk,
                                  const TraceContext& ctx) {
  net::ChunkPutRequest req;
  req.chunk_bytes = SerializeChunk(chunk);
  net::CallOptions co = net_opts_.call;
  co.trace = ctx;
  ASSIGN_OR_RETURN(std::vector<uint8_t> ack,
                   client_->Call(dest, net::MessageType::kChunkPut,
                                 req.EncodePayload(), co));
  (void)ack;  // the ack payload is empty; arrival is the information
  return Status::OK();
}

Result<MemArray> DistributedArray::FetchShard(
    int node, const std::vector<Coordinates>& origins, const ExprPtr& pred,
    const TraceContext& ctx, const net::CallOptions& call) const {
  net::ScanShardRequest req;
  req.origins = origins;
  if (pred != nullptr) {
    // Function shipping: serialize the predicate at the grid boundary;
    // the message layer carries it as opaque bytes.
    ByteWriter pw;
    EncodeExpr(*pred, &pw);
    req.pred_bytes = pw.Release();
  }
  net::CallOptions co = call;
  co.trace = ctx;
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                   client_->Call(node, net::MessageType::kScanShard,
                                 req.EncodePayload(), co));
  ASSIGN_OR_RETURN(net::ScanShardResponse resp,
                   net::ScanShardResponse::Decode(bytes));
  MemArray arr(schema_);
  for (const auto& chunk_bytes : resp.chunks) {
    ASSIGN_OR_RETURN(Chunk chunk,
                     DeserializeChunk(chunk_bytes, schema_.attrs()));
    Coordinates origin = arr.ChunkOriginFor(chunk.box().low);
    (*arr.mutable_chunks())[std::move(origin)] =
        std::make_shared<Chunk>(std::move(chunk));
  }
  return arr;
}

Result<MemArray> DistributedArray::FetchSlot(
    int slot, const ExprPtr& pred, const TraceContext& ctx,
    std::atomic<int64_t>* failovers) const {
  // The slot's unread chunks with their holders (preference order). A
  // slot is a primary partition, pinned by each chunk's first-write epoch.
  std::map<Coordinates, std::vector<int>> unread;
  {
    MutexLock lk(meta_mu_);
    for (const auto& [origin, meta] : chunk_dir_) {
      if (placement_->PrimaryFor(origin, meta.time) == slot) {
        unread.emplace(origin, meta.holders);
      }
    }
  }
  // Declared-dead nodes, plus the nodes that failed during this read.
  std::set<int> down = DeadSnapshot();
  auto is_live = [&down](int n) { return down.count(n) == 0; };
  const uint64_t start_ns = clock_();
  const uint64_t budget_ns = net_opts_.call.deadline_ns;
  bool first_call = true;
  bool failed_over = false;
  MemArray merged(schema_);
  while (!unread.empty()) {
    // Route each unread chunk to its first live holder. A batch is
    // `spare` when every chunk in it has another live holder to fail
    // over to.
    struct Batch {
      std::vector<Coordinates> origins;
      bool spare = true;
    };
    std::map<int, Batch> route;
    for (const auto& [origin, holders] : unread) {
      auto server = std::find_if(holders.begin(), holders.end(), is_live);
      if (server == holders.end()) {
        return Status::Unavailable("chunk lost: no live holder of " +
                                   CoordsToString(origin) + " in slot " +
                                   std::to_string(slot));
      }
      if (server != holders.begin() && !failed_over) {
        // Failover read: a chunk is served past a holder that is dead or
        // failed during this read.
        failed_over = true;
        GridMetrics::Get().failover_reads->Inc();
        if (FlightRecorder::enabled()) {
          FlightRecorder::Instance().RecordAt(
              clock_(), FlightEventKind::kFailoverRead, slot,
              static_cast<uint64_t>(slot), static_cast<uint64_t>(down.size()));
        }
        if (failovers != nullptr) failovers->fetch_add(1);
      }
      Batch& batch = route[*server];
      batch.origins.push_back(origin);
      batch.spare =
          batch.spare && std::any_of(server + 1, holders.end(), is_live);
    }
    for (const auto& [node, batch] : route) {
      net::CallOptions co = net_opts_.call;
      if (first_call) {
        // The first read leaves half the budget for a failover, when
        // there is somewhere to fail over to.
        if (batch.spare) co.deadline_ns = budget_ns / 2;
        first_call = false;
      } else {
        const uint64_t elapsed = clock_() - start_ns;
        if (elapsed >= budget_ns) {
          return Status::DeadlineExceeded("read of slot " +
                                          std::to_string(slot) +
                                          " exhausted the call deadline");
        }
        co.deadline_ns = budget_ns - elapsed;
      }
      Result<MemArray> r = FetchShard(node, batch.origins, pred, ctx, co);
      if (!r.ok()) {
        if (!IsPeerFailure(r.status())) return r.status();
        RecordCallResult(node, false);
        if (!batch.spare) return r.status();
        down.insert(node);
        break;  // re-route what is still unread
      }
      RecordCallResult(node, true);
      for (const auto& [origin, chunk] : r.value().chunks()) {
        (*merged.mutable_chunks())[origin] = chunk;
      }
      for (const Coordinates& origin : batch.origins) unread.erase(origin);
    }
  }
  return merged;
}

Status DistributedArray::PlaceChunk(const Coordinates& origin,
                                    const Chunk& chunk, int64_t time,
                                    const TraceContext& ctx) {
  std::vector<int> holders;
  {
    MutexLock lk(meta_mu_);
    auto it = chunk_dir_.find(origin);
    if (it != chunk_dir_.end()) holders = it->second.holders;
  }
  const std::set<int> dead = DeadSnapshot();

  if (!holders.empty()) {
    // Updates go to every live holder, strictly: a failed holder write
    // fails the whole operation rather than leaving replicas divergent.
    // (Declared-dead holders are skipped — recovery replaces them.)
    int written = 0;
    for (int h : holders) {
      if (dead.count(h) != 0) continue;
      Status st = PutChunk(h, chunk, ctx);
      if (!st.ok()) {
        if (IsPeerFailure(st)) RecordCallResult(h, false);
        return st;
      }
      RecordCallResult(h, true);
      ++written;
    }
    if (written == 0) {
      return Status::Unavailable("every holder of the chunk is dead");
    }
    return Status::OK();
  }

  // Fresh chunk: walk the preference order placing k copies, stepping
  // past dead or unreachable candidates. One successful copy is enough
  // to accept the write; Recover() tops the chunk back up to k.
  const int k = replication();
  Status last = Status::Unavailable("no live node accepted the chunk");
  for (int cand : placement_->PreferenceOrder(origin, time)) {
    if (static_cast<int>(holders.size()) == k) break;
    if (dead.count(cand) != 0) continue;
    Status st = PutChunk(cand, chunk, ctx);
    if (st.ok()) {
      RecordCallResult(cand, true);
      holders.push_back(cand);
      continue;
    }
    if (!IsPeerFailure(st)) return st;
    RecordCallResult(cand, false);
    last = st;
  }
  if (holders.empty()) return last;
  {
    MutexLock lk(meta_mu_);
    ChunkMeta& m = chunk_dir_[origin];
    m.time = time;  // the first write's epoch, sticky (pins placement)
    m.holders = std::move(holders);
  }
  return Status::OK();
}

Result<Chunk> DistributedArray::GetChunk(int src,
                                         const Coordinates& origin) const {
  net::ChunkGetRequest req;
  req.origin = origin;
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                   client_->Call(src, net::MessageType::kChunkGet,
                                 req.EncodePayload(), net_opts_.call));
  return DeserializeChunk(bytes, schema_.attrs());
}

void DistributedArray::RecordCallResult(int node, bool ok) const {
  if (placement_->replication() <= 1) return;  // k = 1: no detector
  if (node < 0 || node >= num_nodes()) return;
  bool newly_dead = false;
  int fails = 0;
  {
    MutexLock lk(meta_mu_);
    int& f = consec_fail_[static_cast<size_t>(node)];
    if (ok) {
      f = 0;
      return;
    }
    if (dead_.count(node) != 0) return;  // already declared
    ++f;
    if (f >= net_opts_.dead_after_failures) {
      dead_.insert(node);
      recover_pending_ = true;
      newly_dead = true;
      fails = f;
    }
  }
  if (newly_dead) {
    GridMetrics::Get().nodes_declared_dead->Inc();
    if (FlightRecorder::enabled()) {
      FlightRecorder::Instance().RecordAt(clock_(),
                                          FlightEventKind::kNodeDead, node,
                                          static_cast<uint64_t>(fails));
    }
  }
}

std::set<int> DistributedArray::DeadSnapshot() const {
  MutexLock lk(meta_mu_);
  return dead_;
}

std::set<int> DistributedArray::dead_nodes() const { return DeadSnapshot(); }

void DistributedArray::MaybeRecover() {
  bool pending;
  {
    MutexLock lk(meta_mu_);
    pending = recover_pending_;
  }
  if (pending) (void)Recover();  // status-ignored: retried on the next op
                                 // via the sticky recover_pending_ flag
}

Result<int64_t> DistributedArray::Recover() {
  {
    MutexLock lk(meta_mu_);
    recover_pending_ = false;
  }
  // Nothing is declared dead at k = 1 (no failure detector), so this
  // returns here.
  const std::set<int> dead = DeadSnapshot();
  if (dead.empty()) return 0;
  // Snapshot the directory so no RPC runs under meta_mu_.
  std::vector<std::pair<Coordinates, ChunkMeta>> entries;
  {
    MutexLock lk(meta_mu_);
    entries.assign(chunk_dir_.begin(), chunk_dir_.end());
  }
  int64_t copies = 0;
  for (const auto& [origin, meta] : entries) {
    const std::vector<int> desired =
        placement_->LiveReplicasFor(origin, meta.time, dead);
    std::vector<int> live;
    for (int h : meta.holders) {
      if (dead.count(h) == 0) live.push_back(h);
    }
    if (live.empty()) {
      return Status::Unavailable(
          "chunk lost: every holder died before recovery");
    }
    std::vector<int> holders;
    for (int target : desired) {
      bool have = false;
      for (int h : live) have = have || h == target;
      if (have) {
        holders.push_back(target);
        continue;
      }
      // Copy from the first live holder that answers (holder order is
      // deterministic, so so is the source choice).
      Result<Chunk> chunk = Status::Unavailable("no source answered");
      int src = -1;
      for (int s : live) {
        chunk = GetChunk(s, origin);
        if (chunk.ok()) {
          src = s;
          break;
        }
        if (!IsPeerFailure(chunk.status())) return chunk.status();
        RecordCallResult(s, false);
      }
      RETURN_NOT_OK(chunk.status());
      RETURN_NOT_OK(PutChunk(target, chunk.value()));
      GridMetrics::Get().rereplicated_chunks->Inc();
      GridMetrics::Get().rereplicated_bytes->Inc(
          static_cast<int64_t>(chunk.value().ByteSize()));
      if (FlightRecorder::enabled()) {
        FlightRecorder::Instance().RecordAt(
            clock_(), FlightEventKind::kRereplicate, target,
            static_cast<uint64_t>(src), static_cast<uint64_t>(target));
      }
      holders.push_back(target);
      ++copies;
    }
    if (holders != meta.holders) {
      MutexLock lk(meta_mu_);
      chunk_dir_[origin].holders = holders;
    }
  }
  return copies;
}

Status DistributedArray::Load(const MemArray& source, int64_t time) {
  if (!(source.schema() == schema_)) {
    return Status::Invalid("schema mismatch loading distributed array");
  }
  TraceNode* child = TraceChild("grid.load");
  const TraceContext ctx = BeginOpTrace();
  int64_t rpcs = 0;
  {
    TraceSpan span(clock_, child);
    for (const auto& [origin, chunk] : source.chunks()) {
      if (chunk->present_count() == 0) continue;  // nothing to place
      // Source and destination share the schema, so the source chunk
      // origin IS the placement key — every cell of it lands together
      // (on every replica, when replication > 1).
      RETURN_NOT_OK(PlaceChunk(origin, *chunk, time, ctx));
      rpcs += replication();
    }
  }
  if (child != nullptr) child->AddNote("net.rpcs", static_cast<double>(rpcs));
  StitchOpTrace(child, ctx);
  return Status::OK();
}

Status DistributedArray::SetCell(const Coordinates& c,
                                 const std::vector<Value>& values,
                                 int64_t time) {
  // Placement is per chunk, so every cell of one chunk lands together.
  // A one-cell chunk travels (to every live replica at k > 1).
  MemArray one(schema_);
  RETURN_NOT_OK(one.SetCell(c, values));
  const auto& [origin, chunk] = *one.chunks().begin();
  return PlaceChunk(origin, *chunk, time);
}

std::vector<NodeStats> DistributedArray::node_stats() const {
  std::vector<NodeStats> out(static_cast<size_t>(num_nodes()));
  const std::set<int> dead = DeadSnapshot();
  for (int node = 0; node < num_nodes(); ++node) {
    // A dead or unreachable node reads all zeros (empty, not stale); a
    // declared-dead one is skipped rather than burning an RPC deadline.
    if (dead.count(node) != 0) continue;
    Result<std::vector<uint8_t>> r = client_->Call(
        node, net::MessageType::kNodeStatsReq, {}, net_opts_.call);
    if (!r.ok()) continue;
    Result<net::NodeStatsResponse> resp =
        net::NodeStatsResponse::Decode(r.value());
    if (!resp.ok()) continue;
    NodeStats& s = out[static_cast<size_t>(node)];
    s.cells_stored = resp.value().cells_stored;
    s.bytes_stored = resp.value().bytes_stored;
    s.cells_scanned = resp.value().cells_scanned;
    s.bytes_scanned = resp.value().bytes_scanned;
  }
  return out;
}

int64_t DistributedArray::TotalCells() const {
  int64_t n = 0;
  for (const NodeStats& s : node_stats()) n += s.cells_stored;
  return n;
}

namespace {

// max(node load) / mean(node load). An empty array has no load and
// therefore no imbalance; returning the 0/0 ratio as NaN (or pretending
// perfect balance) would poison downstream comparisons.
double Imbalance(const std::vector<NodeStats>& stats,
                 int64_t NodeStats::*load) {
  int64_t total = 0;
  int64_t max_load = 0;
  for (const NodeStats& s : stats) {
    total += s.*load;
    max_load = std::max(max_load, s.*load);
  }
  if (total == 0) return 0.0;
  double mean = static_cast<double>(total) / static_cast<double>(stats.size());
  return static_cast<double>(max_load) / mean;
}

}  // namespace

double DistributedArray::LoadImbalance() const {
  return Imbalance(node_stats(), &NodeStats::cells_stored);
}

double DistributedArray::LoadImbalanceBytes() const {
  return Imbalance(node_stats(), &NodeStats::bytes_stored);
}

Result<int64_t> DistributedArray::Repartition(
    std::shared_ptr<const Partitioner> to, int64_t time) {
  if (to == nullptr) return Status::Invalid("null partitioner");
  // Gather every slot's chunks over the wire: failover applies, and each
  // replica set is read once (from the slot's first live replica).
  std::vector<MemArray> slots(static_cast<size_t>(num_nodes()));
  RETURN_NOT_OK(FanOutSlots("grid.repartition", nullptr,
                            [&](size_t slot, MemArray part) -> Status {
                              slots[slot] = std::move(part);
                              return Status::OK();
                            }));
  MemArray gathered(schema_);
  int64_t bytes_moved = 0;
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    for (const auto& [origin, chunk] : slots[slot].chunks()) {
      if (to->NodeFor(origin, time) != static_cast<int>(slot)) {
        bytes_moved += static_cast<int64_t>(chunk->ByteSize());
      }
      (*gathered.mutable_chunks())[origin] = chunk;
    }
  }
  // The node count may change: the new scheme gets a fresh network and
  // fresh nodes, and the gathered chunks are loaded into them. A
  // repartition is also a fresh start for the chunk directory and the
  // failure detector: both indexed the old topology.
  ShutdownNet();
  partitioner_ = std::move(to);
  placement_ =
      std::make_unique<ReplicaPlacement>(partitioner_, net_opts_.replication);
  pool_.reset();
  {
    MutexLock lk(meta_mu_);
    chunk_dir_.clear();
    dead_.clear();
    consec_fail_.assign(static_cast<size_t>(num_nodes()), 0);
    recover_pending_ = false;
  }
  InitNet();
  RETURN_NOT_OK(Load(gathered, time));
  return bytes_moved;
}

Status DistributedArray::FanOutSlots(
    const char* label, const ExprPtr& pred,
    const std::function<Status(size_t slot, MemArray partial)>& per_slot) {
  TraceNode* child = TraceChild(label);
  const TraceContext tctx = BeginOpTrace();
  std::atomic<int64_t> failovers{0};
  {
    TraceSpan span(clock_, child);
    RETURN_NOT_OK(
        FanoutPool()->ParallelFor(num_nodes(), [&](int64_t node) -> Status {
          ASSIGN_OR_RETURN(MemArray partial,
                           FetchSlot(static_cast<int>(node), pred, tctx,
                                     &failovers));
          return per_slot(static_cast<size_t>(node), std::move(partial));
        }));
  }
  if (child != nullptr) {
    child->AddNote("net.rpcs", static_cast<double>(num_nodes()));
    if (failovers.load() > 0) {
      child->AddNote("failover", static_cast<double>(failovers.load()));
    }
  }
  StitchOpTrace(child, tctx);
  MaybeRecover();
  return Status::OK();
}

Result<MemArray> DistributedArray::ParallelAggregate(
    const ExecContext& ctx, const std::vector<std::string>& dims,
    const std::string& agg, const std::string& attr) {
  // Per-node partial aggregation on the fan-out workers, then a
  // coordinator merge in node order, both through the exec core
  // (GroupedAggregate). Finalized values cannot be merged (avg of avgs is
  // wrong), hence states merge, not results — and since states have no
  // wire form, the shard contents travel instead (ScanShard data
  // shipping) and the partials are built coordinator-side.
  GridMetrics::Get().parallel_ops->Inc();
  ASSIGN_OR_RETURN(
      GroupedAggregate core,
      GroupedAggregate::ByDims(ctx, schema_, dims, {{agg, attr}}));

  std::vector<GroupedAggregate::Part> node_parts(
      static_cast<size_t>(num_nodes()));
  RETURN_NOT_OK(FanOutSlots(
      "grid.parallel_aggregate", nullptr,
      [&](size_t node, MemArray partial) -> Status {
        for (const auto& [origin, chunk] : partial.chunks()) {
          RETURN_NOT_OK(core.Accumulate(*chunk, &node_parts[node]));
        }
        return Status::OK();
      }));
  return core.Finish(std::move(node_parts), schema_.name() + "_agg",
                     {AggOutputAttr(agg, core.input(0))});
}

Result<MemArray> DistributedArray::ParallelSubsample(const ExecContext& ctx,
                                                     const ExprPtr& pred) {
  GridMetrics::Get().parallel_ops->Inc();
  // Ship the execution environment so every node can evaluate the
  // predicate (in a real grid the registry is replicated at deploy).
  for (auto& svc : services_) {
    svc->SetExecEnv(ctx.functions, ctx.enable_chunk_pruning);
  }
  std::vector<MemArray> partials(static_cast<size_t>(num_nodes()),
                                 MemArray(schema_));
  RETURN_NOT_OK(FanOutSlots("grid.parallel_subsample", pred,
                            [&](size_t node, MemArray partial) -> Status {
                              partials[node] = std::move(partial);
                              return Status::OK();
                            }));
  MemArray out(schema_);
  out.mutable_schema()->set_name(schema_.name() + "_subsample");
  // Grid partials hold disjoint cells, so copying them builds the union.
  for (const MemArray& partial : partials) {
    for (const auto& [origin, chunk] : partial.chunks()) {
      RETURN_NOT_OK(CopyCells(*chunk, chunk->box(), &out));
    }
  }
  return out;
}

Result<MemArray> DistributedArray::ParallelSjoin(
    const ExecContext& ctx, const DistributedArray& other,
    const std::vector<std::pair<std::string, std::string>>& dim_pairs,
    int64_t* bytes_moved) {
  if (bytes_moved != nullptr) *bytes_moved = 0;
  // The right-hand slots come over the wire from `other`'s nodes. When
  // the two arrays are co-partitioned (identical schemes over the same
  // coordinate system), slot i joins slot i and nothing moves; otherwise
  // whole chunks are routed to this array's scheme, counting the bytes
  // that change node. A production system would pick the cheaper
  // direction; the benchmark wants the movement made visible.
  const bool co_partitioned = partitioner_->Equals(*other.partitioner_);
  std::vector<MemArray> rhs(static_cast<size_t>(num_nodes()),
                            MemArray(other.schema_));
  for (int slot = 0; slot < other.num_nodes(); ++slot) {
    ASSIGN_OR_RETURN(MemArray part,
                     other.FetchSlot(slot, nullptr, {}, nullptr));
    for (const auto& [origin, chunk] : part.chunks()) {
      int dest = co_partitioned ? slot : partitioner_->NodeFor(origin, 0);
      if (dest != slot && bytes_moved != nullptr) {
        *bytes_moved += static_cast<int64_t>(chunk->ByteSize());
      }
      (*rhs[static_cast<size_t>(dest)].mutable_chunks())[origin] = chunk;
    }
  }

  // Node-local joins: each worker fetches its slot's lhs chunks over the
  // wire and joins them against the co-located rhs slot.
  GridMetrics::Get().parallel_ops->Inc();
  std::vector<Result<MemArray>> partials(
      static_cast<size_t>(num_nodes()),
      Result<MemArray>(Status::Internal("not run")));
  RETURN_NOT_OK(FanOutSlots(
      "grid.parallel_sjoin", nullptr,
      [&](size_t node, MemArray lhs) -> Status {
        ExecContext local = ctx;
        local.stats = nullptr;
        partials[node] = Sjoin(local, lhs, rhs[node], dim_pairs);
        return partials[node].status();
      }));

  MemArray out(partials[0].value().schema());
  for (const Result<MemArray>& partial : partials) {
    for (const auto& [origin, chunk] : partial.value().chunks()) {
      RETURN_NOT_OK(CopyCells(*chunk, chunk->box(), &out));
    }
  }
  return out;
}

Result<int64_t> DistributedArray::ReplicateBoundaries(
    int64_t max_position_error) {
  if (placement_->replication() > 1) {
    // Boundary copies are written outside the chunk directory: reads
    // never serve them, and Recover would not carry them to a new
    // holder. The two replication mechanisms do not compose (DESIGN.md
    // §13).
    return Status::Invalid(
        "boundary replication requires replication = 1");
  }
  const auto* range = dynamic_cast<const RangePartitioner*>(
      partitioner_.get());
  if (range == nullptr) {
    return Status::Invalid(
        "boundary replication requires a range partitioner");
  }
  if (max_position_error < 0) {
    return Status::Invalid("max position error must be >= 0");
  }
  size_t dim = range->dim();
  int64_t replicated = 0;
  // Ghost cells bound for each node, gathered before any is written so
  // no node reads back a ghost it just received.
  std::vector<MemArray> ghosts(static_cast<size_t>(num_nodes()),
                               MemArray(schema_));
  for (int node = 0; node < num_nodes(); ++node) {
    // The node's own partition, as the directory records it: ghosts an
    // earlier pass wrote are not read back.
    ASSIGN_OR_RETURN(MemArray shard, FetchSlot(node, nullptr, {}, nullptr));
    for (const auto& [origin, chunk] : shard.chunks()) {
      for (Chunk::CellIterator it(*chunk); it.valid(); it.Next()) {
        const Coordinates c = it.coords();
        for (int64_t b : range->boundaries()) {
          // Cells within the error bound of boundary b may actually
          // belong to the other side; replicate there (paper:
          // "redundantly place an observation in multiple partitions").
          if (c[dim] < b - max_position_error ||
              c[dim] > b + max_position_error - 1) {
            continue;
          }
          // Destination: the partition on the other side of b.
          Coordinates probe = c;
          probe[dim] = c[dim] < b ? b : b - 1;
          int dest = partitioner_->NodeFor(probe, 0);
          if (dest == node) continue;
          RETURN_NOT_OK(PutCell(c, *chunk, it.rank(),
                                &ghosts[static_cast<size_t>(dest)]));
          ++replicated;
        }
      }
    }
  }
  // Ghosts go through the wire like any other write, but outside the
  // chunk directory: the destination stores them, and no read asks for
  // them, so they are never counted as data.
  for (int dest = 0; dest < num_nodes(); ++dest) {
    for (const auto& [origin, chunk] :
         ghosts[static_cast<size_t>(dest)].chunks()) {
      RETURN_NOT_OK(PutChunk(dest, *chunk));
    }
  }
  return replicated;
}

}  // namespace scidb
