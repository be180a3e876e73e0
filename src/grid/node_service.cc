#include "grid/node_service.h"

#include <string>
#include <utility>

#include "common/byte_io.h"
#include "common/flight_recorder.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "exec/expr_serde.h"
#include "exec/operators.h"
#include "net/message.h"
#include "storage/chunk_serde.h"

namespace scidb {

GridNodeService::GridNodeService(int node, ArraySchema schema,
                                 TraceClock clock)
    : node_(node),
      schema_(std::move(schema)),
      clock_(std::move(clock)),
      shard_(schema_) {}

void GridNodeService::Install(net::RpcServer* server) {
  server->Handle(net::MessageType::kChunkPut,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return ChunkPut(payload);
                 });
  server->Handle(net::MessageType::kChunkGet,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return ChunkGet(payload);
                 });
  server->Handle(net::MessageType::kScanShard,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return ScanShard(payload);
                 });
  server->Handle(net::MessageType::kNodeStatsReq,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return NodeStatsReq(payload);
                 });
  server->Handle(net::MessageType::kMetricsGet,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return MetricsGet(payload);
                 });
  server->Handle(net::MessageType::kTraceGet,
                 [this, server](int, const std::vector<uint8_t>& payload) {
                   return TraceGet(server, payload);
                 });
}

void GridNodeService::SetExecEnv(const FunctionRegistry* functions,
                                 bool enable_chunk_pruning) {
  MutexLock lock(mu_);
  functions_ = functions;
  enable_chunk_pruning_ = enable_chunk_pruning;
}

Result<std::vector<uint8_t>> GridNodeService::ChunkPut(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::ChunkPutRequest req,
                   net::ChunkPutRequest::Decode(payload));
  ASSIGN_OR_RETURN(Chunk chunk,
                   DeserializeChunk(req.chunk_bytes, schema_.attrs()));
  MutexLock lock(mu_);
  RETURN_NOT_OK(CopyCells(chunk, chunk.box(), &shard_));
  return std::vector<uint8_t>{};  // empty ack
}

Result<std::vector<uint8_t>> GridNodeService::ChunkGet(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::ChunkGetRequest req,
                   net::ChunkGetRequest::Decode(payload));
  MutexLock lock(mu_);
  const Chunk* chunk = shard_.FindChunk(req.origin);
  if (chunk == nullptr) {
    return Status::NotFound("no chunk at requested origin on node " +
                            std::to_string(node_));
  }
  return SerializeChunk(*chunk);
}

Result<std::vector<uint8_t>> GridNodeService::ScanShard(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::ScanShardRequest req,
                   net::ScanShardRequest::Decode(payload));
  MutexLock lock(mu_);
  // The listed chunks, shared with the shard (no cell is copied). An
  // origin this node does not hold means the coordinator's directory and
  // this store disagree: an error, never a silently short scan.
  MemArray served(schema_);
  for (const Coordinates& origin : req.origins) {
    auto it = shard_.chunks().find(origin);
    if (it == shard_.chunks().end()) {
      return Status::NotFound("ScanShard: node " + std::to_string(node_) +
                              " holds no chunk at " + CoordsToString(origin));
    }
    (*served.mutable_chunks())[origin] = it->second;
  }
  // The serving node pays the scan, so it is accounted here — a
  // duplicated request really is scanned twice. The node's counters and
  // the grid-wide scidb.grid.* ones move once per scan, never per cell,
  // so the scan loops stay free of shared atomics.
  static Counter* const grid_cells =
      Metrics::Instance().counter("scidb.grid.cells_scanned");
  static Counter* const grid_bytes =
      Metrics::Instance().counter("scidb.grid.bytes_scanned");
  const int64_t cells = served.CellCount();
  const int64_t bytes = static_cast<int64_t>(served.ByteSize());
  stats_.cells_scanned += cells;
  stats_.bytes_scanned += bytes;
  grid_cells->Inc(cells);
  grid_bytes->Inc(bytes);
  if (FlightRecorder::enabled()) {
    FlightRecorder::Instance().RecordAt(clock_(), FlightEventKind::kShardScan,
                                        node_, static_cast<uint64_t>(cells),
                                        static_cast<uint64_t>(bytes));
  }

  net::ScanShardResponse resp;
  if (req.pred_bytes.empty()) {
    // Data shipping: the served chunks verbatim, in origin order.
    for (const auto& [origin, chunk] : served.chunks()) {
      resp.chunks.push_back(SerializeChunk(*chunk));
    }
  } else {
    // Function shipping: the predicate arrives as opaque expr_serde
    // bytes (net/ cannot name the Expr type); decode it here, at the
    // grid boundary, rejecting trailing garbage after the tree.
    ByteReader pr(req.pred_bytes);
    ASSIGN_OR_RETURN(ExprPtr pred, DecodeExpr(&pr));
    if (pr.remaining() != 0) {
      return Status::Corruption("trailing bytes after ScanShard predicate");
    }
    // Evaluate the shipped predicate server-side and return only the
    // matching cells.
    ExecContext local;
    local.functions = functions_;
    local.enable_chunk_pruning = enable_chunk_pruning_;
    // `local.pool` is null, so Subsample's ParallelChunkMap takes the
    // serial path — no ParallelFor wait happens under mu_ despite what
    // the call graph's context-insensitive closure concludes.
    ASSIGN_OR_RETURN(MemArray filtered_arr, Subsample(local, served, pred));  // NOLINT(blocking-under-lock)
    for (const auto& [origin, chunk] : filtered_arr.chunks()) {
      resp.chunks.push_back(SerializeChunk(*chunk));
    }
  }
  return resp.EncodePayload();
}

NodeStats GridNodeService::Stats() const {
  NodeStats s = stats_;
  // Residency is derived from the shard at snapshot time rather than
  // maintained incrementally: replayed ChunkPuts must not count twice,
  // and SetCell can grow a chunk's blocks by more than the logical cell
  // width, so incremental byte accounting drifts.
  s.cells_stored = shard_.CellCount();
  s.bytes_stored = static_cast<int64_t>(shard_.ByteSize());
  return s;
}

Result<std::vector<uint8_t>> GridNodeService::NodeStatsReq(
    const std::vector<uint8_t>& payload) {
  if (!payload.empty()) {
    return Status::Invalid("NodeStatsReq carries no payload");
  }
  MutexLock lock(mu_);
  const NodeStats s = Stats();
  net::NodeStatsResponse resp;
  resp.cells_stored = s.cells_stored;
  resp.bytes_stored = s.bytes_stored;
  resp.cells_scanned = s.cells_scanned;
  resp.bytes_scanned = s.bytes_scanned;
  return resp.EncodePayload();
}

Result<std::vector<uint8_t>> GridNodeService::MetricsGet(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::MetricsGetRequest req,
                   net::MetricsGetRequest::Decode(payload));
  MetricsSnapshot snap;
  auto gauge = [&snap](const char* name, int64_t v) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kGauge;
    e.value = v;
    snap.entries.push_back(std::move(e));
  };
  {
    MutexLock lock(mu_);
    const NodeStats s = Stats();
    gauge("scidb.node.cells_stored", s.cells_stored);
    gauge("scidb.node.cells_scanned", s.cells_scanned);
    gauge("scidb.node.bytes_scanned", s.bytes_scanned);
    gauge("scidb.node.bytes_stored", s.bytes_stored);
  }
  if (req.include_process != 0) {
    // Every simulated node shares one process, so the process-wide
    // registry repeats per node — exactly what scraping each process of
    // a real grid would return.
    MetricsSnapshot process = Metrics::Instance().Snapshot();
    for (auto& e : process.entries) snap.entries.push_back(std::move(e));
  }
  const std::string json = SnapshotToJson(snap);
  net::MetricsGetResponse resp;
  resp.json.assign(json.begin(), json.end());
  return resp.EncodePayload();
}

Result<std::vector<uint8_t>> GridNodeService::TraceGet(
    net::RpcServer* server, const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::TraceGetRequest req,
                   net::TraceGetRequest::Decode(payload));
  net::TraceGetResponse resp;
  if (req.trace_id != 0) resp.spans = server->TakeSpans(req.trace_id);
  if (req.include_flight != 0) {
    resp.events = FlightRecorder::Instance().Dump();
  }
  return resp.EncodePayload();
}

}  // namespace scidb
