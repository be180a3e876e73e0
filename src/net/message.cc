#include "net/message.h"

#include <utility>

#include "array/schema_serde.h"
#include "common/byte_io.h"
#include "common/macros.h"

namespace scidb {
namespace net {

namespace {

// Length-prefixed byte string. The count guard bounds the allocation:
// a chunk body costs at least one byte on the wire.
void PutByteString(const std::vector<uint8_t>& bytes, ByteWriter* w) {
  w->PutVarint(bytes.size());
  w->PutBytes(bytes.data(), bytes.size());
}

Result<std::vector<uint8_t>> GetByteString(ByteReader* r) {
  ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > r->remaining()) {
    return Status::Corruption("byte string length too large");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(n));
  RETURN_NOT_OK(r->GetBytes(bytes.data(), bytes.size()));
  return bytes;
}

Status ExpectExhausted(const ByteReader& r, const char* what) {
  if (r.remaining() != 0) {
    return Status::Corruption(std::string("trailing bytes after ") + what);
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> ChunkPutRequest::EncodePayload() const {
  ByteWriter w;
  PutByteString(chunk_bytes, &w);
  return w.Release();
}

Result<ChunkPutRequest> ChunkPutRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  ChunkPutRequest req;
  ASSIGN_OR_RETURN(req.chunk_bytes, GetByteString(&r));
  RETURN_NOT_OK(ExpectExhausted(r, "ChunkPut"));
  return req;
}

std::vector<uint8_t> ChunkGetRequest::EncodePayload() const {
  ByteWriter w;
  EncodeCoordinates(origin, &w);
  return w.Release();
}

Result<ChunkGetRequest> ChunkGetRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  ChunkGetRequest req;
  ASSIGN_OR_RETURN(req.origin, DecodeCoordinates(&r));
  RETURN_NOT_OK(ExpectExhausted(r, "ChunkGet"));
  return req;
}

std::vector<uint8_t> ScanShardRequest::EncodePayload() const {
  ByteWriter w;
  w.PutVarint(origins.size());
  for (const Coordinates& origin : origins) EncodeCoordinates(origin, &w);
  w.PutU8(!pred_bytes.empty() ? 1 : 0);
  w.PutBytes(pred_bytes.data(), pred_bytes.size());
  return w.Release();
}

Result<ScanShardRequest> ScanShardRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  ScanShardRequest req;
  ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  // An origin costs at least two bytes (its rank and one coordinate).
  if (n > r.remaining() / 2) {
    return Status::Corruption("ScanShard origin count too large");
  }
  req.origins.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(Coordinates origin, DecodeCoordinates(&r));
    if (origin.empty()) {
      return Status::Corruption("ScanShard origin has no dimensions");
    }
    req.origins.push_back(std::move(origin));
  }
  ASSIGN_OR_RETURN(uint8_t has_pred, r.GetU8());
  if (has_pred > 1) return Status::Corruption("bad ScanShard pred flag");
  if (has_pred == 1) {
    // The expr bytes are the remainder of the payload; structural
    // validation happens where they are decoded (grid layer), which
    // also rejects trailing garbage after the tree.
    if (r.remaining() == 0) {
      return Status::Corruption("ScanShard pred flag set but no bytes");
    }
    req.pred_bytes.resize(r.remaining());
    RETURN_NOT_OK(r.GetBytes(req.pred_bytes.data(), req.pred_bytes.size()));
  }
  RETURN_NOT_OK(ExpectExhausted(r, "ScanShard"));
  return req;
}

std::vector<uint8_t> ScanShardResponse::EncodePayload() const {
  ByteWriter w;
  w.PutVarint(chunks.size());
  for (const auto& c : chunks) PutByteString(c, &w);
  return w.Release();
}

Result<ScanShardResponse> ScanShardResponse::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > r.remaining()) {
    return Status::Corruption("chunk count too large");
  }
  ScanShardResponse resp;
  resp.chunks.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, GetByteString(&r));
    resp.chunks.push_back(std::move(bytes));
  }
  RETURN_NOT_OK(ExpectExhausted(r, "ScanShard response"));
  return resp;
}

std::vector<uint8_t> NodeStatsResponse::EncodePayload() const {
  ByteWriter w;
  w.PutSignedVarint(cells_stored);
  w.PutSignedVarint(bytes_stored);
  w.PutSignedVarint(cells_scanned);
  w.PutSignedVarint(bytes_scanned);
  return w.Release();
}

Result<NodeStatsResponse> NodeStatsResponse::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  NodeStatsResponse resp;
  ASSIGN_OR_RETURN(resp.cells_stored, r.GetSignedVarint());
  ASSIGN_OR_RETURN(resp.bytes_stored, r.GetSignedVarint());
  ASSIGN_OR_RETURN(resp.cells_scanned, r.GetSignedVarint());
  ASSIGN_OR_RETURN(resp.bytes_scanned, r.GetSignedVarint());
  RETURN_NOT_OK(ExpectExhausted(r, "NodeStats response"));
  return resp;
}

std::vector<uint8_t> MetricsGetRequest::EncodePayload() const {
  ByteWriter w;
  w.PutU8(include_process);
  return w.Release();
}

Result<MetricsGetRequest> MetricsGetRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  MetricsGetRequest req;
  ASSIGN_OR_RETURN(req.include_process, r.GetU8());
  if (req.include_process > 1) {
    return Status::Corruption("bad MetricsGet include_process flag");
  }
  RETURN_NOT_OK(ExpectExhausted(r, "MetricsGet"));
  return req;
}

std::vector<uint8_t> MetricsGetResponse::EncodePayload() const {
  ByteWriter w;
  PutByteString(json, &w);
  return w.Release();
}

Result<MetricsGetResponse> MetricsGetResponse::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  MetricsGetResponse resp;
  ASSIGN_OR_RETURN(resp.json, GetByteString(&r));
  RETURN_NOT_OK(ExpectExhausted(r, "MetricsGet response"));
  return resp;
}

std::vector<uint8_t> TraceGetRequest::EncodePayload() const {
  ByteWriter w;
  w.PutU64(trace_id);
  w.PutU8(include_flight);
  return w.Release();
}

Result<TraceGetRequest> TraceGetRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  TraceGetRequest req;
  ASSIGN_OR_RETURN(req.trace_id, r.GetU64());
  ASSIGN_OR_RETURN(req.include_flight, r.GetU8());
  if (req.include_flight > 1) {
    return Status::Corruption("bad TraceGet include_flight flag");
  }
  RETURN_NOT_OK(ExpectExhausted(r, "TraceGet"));
  return req;
}

namespace {

void PutSpan(const SpanRecord& s, ByteWriter* w) {
  w->PutU64(s.trace_id);
  w->PutU64(s.span_id);
  w->PutU64(s.parent_span_id);
  w->PutSignedVarint(s.node);
  w->PutString(s.label);
  w->PutU64(s.start_ns);
  w->PutU64(s.wall_ns);
  w->PutVarint(s.notes.size());
  for (const auto& [key, value] : s.notes) {
    w->PutString(key);
    w->PutDouble(value);
  }
}

Result<SpanRecord> GetSpan(ByteReader* r) {
  SpanRecord s;
  ASSIGN_OR_RETURN(s.trace_id, r->GetU64());
  ASSIGN_OR_RETURN(s.span_id, r->GetU64());
  ASSIGN_OR_RETURN(s.parent_span_id, r->GetU64());
  ASSIGN_OR_RETURN(int64_t node, r->GetSignedVarint());
  if (node < INT32_MIN || node > INT32_MAX) {
    return Status::Corruption("span node id out of range");
  }
  s.node = static_cast<int32_t>(node);
  ASSIGN_OR_RETURN(s.label, r->GetString());
  ASSIGN_OR_RETURN(s.start_ns, r->GetU64());
  ASSIGN_OR_RETURN(s.wall_ns, r->GetU64());
  ASSIGN_OR_RETURN(uint64_t n_notes, r->GetVarint());
  // A note costs at least one key byte plus the 8-byte double.
  if (n_notes > r->remaining() / 9 + 1) {
    return Status::Corruption("span note count too large");
  }
  s.notes.reserve(static_cast<size_t>(n_notes));
  for (uint64_t i = 0; i < n_notes; ++i) {
    std::string key;
    ASSIGN_OR_RETURN(key, r->GetString());
    double value = 0;
    ASSIGN_OR_RETURN(value, r->GetDouble());
    s.notes.push_back({std::move(key), value});
  }
  return s;
}

void PutFlightEvent(const FlightEvent& e, ByteWriter* w) {
  w->PutU64(e.seq);
  w->PutU64(e.t_ns);
  w->PutU8(static_cast<uint8_t>(e.kind));
  w->PutSignedVarint(e.node);
  w->PutU64(e.a);
  w->PutU64(e.b);
}

Result<FlightEvent> GetFlightEvent(ByteReader* r) {
  FlightEvent e;
  ASSIGN_OR_RETURN(e.seq, r->GetU64());
  ASSIGN_OR_RETURN(e.t_ns, r->GetU64());
  ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (!IsValidFlightEventKind(kind)) {
    return Status::Corruption("unknown flight event kind " +
                              std::to_string(kind));
  }
  e.kind = static_cast<FlightEventKind>(kind);
  ASSIGN_OR_RETURN(int64_t node, r->GetSignedVarint());
  if (node < INT32_MIN || node > INT32_MAX) {
    return Status::Corruption("flight event node id out of range");
  }
  e.node = static_cast<int32_t>(node);
  ASSIGN_OR_RETURN(e.a, r->GetU64());
  ASSIGN_OR_RETURN(e.b, r->GetU64());
  return e;
}

}  // namespace

std::vector<uint8_t> TraceGetResponse::EncodePayload() const {
  ByteWriter w;
  w.PutVarint(spans.size());
  for (const SpanRecord& s : spans) PutSpan(s, &w);
  w.PutVarint(events.size());
  for (const FlightEvent& e : events) PutFlightEvent(e, &w);
  return w.Release();
}

Result<TraceGetResponse> TraceGetResponse::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  TraceGetResponse resp;
  ASSIGN_OR_RETURN(uint64_t n_spans, r.GetVarint());
  // A span costs at least 3x8 id bytes + node + empty label + 2x8 times.
  if (n_spans > r.remaining() / 42 + 1) {
    return Status::Corruption("span count too large");
  }
  resp.spans.reserve(static_cast<size_t>(n_spans));
  for (uint64_t i = 0; i < n_spans; ++i) {
    ASSIGN_OR_RETURN(SpanRecord s, GetSpan(&r));
    resp.spans.push_back(std::move(s));
  }
  ASSIGN_OR_RETURN(uint64_t n_events, r.GetVarint());
  // An event costs at least 4x8 fixed fields + kind + node byte.
  if (n_events > r.remaining() / 34 + 1) {
    return Status::Corruption("flight event count too large");
  }
  resp.events.reserve(static_cast<size_t>(n_events));
  for (uint64_t i = 0; i < n_events; ++i) {
    ASSIGN_OR_RETURN(FlightEvent e, GetFlightEvent(&r));
    resp.events.push_back(std::move(e));
  }
  RETURN_NOT_OK(ExpectExhausted(r, "TraceGet response"));
  return resp;
}

namespace {

// Strict 0/1 byte: anything else is non-canonical and would break the
// decode -> encode fixed point fuzz_frame enforces.
Result<uint8_t> GetFlagByte(ByteReader* r, const char* field) {
  ASSIGN_OR_RETURN(uint8_t b, r->GetU8());
  if (b > 1) {
    return Status::Corruption(std::string(field) + " byte out of range: " +
                              std::to_string(b));
  }
  return b;
}

}  // namespace

std::vector<uint8_t> QueryRequest::EncodePayload() const {
  ByteWriter w;
  w.PutVarint(client_qid);
  w.PutString(statement);
  return w.Release();
}

Result<QueryRequest> QueryRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  QueryRequest req;
  ASSIGN_OR_RETURN(req.client_qid, r.GetVarint());
  ASSIGN_OR_RETURN(req.statement, r.GetString());
  RETURN_NOT_OK(ExpectExhausted(r, "Query"));
  return req;
}

std::vector<uint8_t> QueryDoneRequest::EncodePayload() const {
  ByteWriter w;
  w.PutVarint(client_qid);
  return w.Release();
}

Result<QueryDoneRequest> QueryDoneRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  QueryDoneRequest req;
  ASSIGN_OR_RETURN(req.client_qid, r.GetVarint());
  RETURN_NOT_OK(ExpectExhausted(r, "QueryDone"));
  return req;
}

std::vector<uint8_t> QueryDoneResponse::EncodePayload() const {
  ByteWriter w;
  w.PutU8(done);
  w.PutU8(status_code);
  w.PutString(status_message);
  w.PutU8(kind);
  w.PutU8(boolean);
  w.PutString(message);
  w.PutVarint(n_chunks);
  w.PutSignedVarint(snapshot_epoch);
  w.PutU8(has_schema);
  if (has_schema != 0) EncodeSchema(schema, &w);
  return w.Release();
}

Result<QueryDoneResponse> QueryDoneResponse::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  QueryDoneResponse resp;
  ASSIGN_OR_RETURN(resp.done, GetFlagByte(&r, "done"));
  ASSIGN_OR_RETURN(resp.status_code, r.GetU8());
  if (resp.status_code > static_cast<uint8_t>(kMaxStatusCode)) {
    return Status::Corruption("status code out of range: " +
                              std::to_string(resp.status_code));
  }
  ASSIGN_OR_RETURN(resp.status_message, r.GetString());
  ASSIGN_OR_RETURN(resp.kind, r.GetU8());
  if (resp.kind > QueryDoneResponse::kMaxKind) {
    return Status::Corruption("result kind out of range: " +
                              std::to_string(resp.kind));
  }
  ASSIGN_OR_RETURN(resp.boolean, GetFlagByte(&r, "boolean"));
  ASSIGN_OR_RETURN(resp.message, r.GetString());
  ASSIGN_OR_RETURN(resp.n_chunks, r.GetVarint());
  ASSIGN_OR_RETURN(resp.snapshot_epoch, r.GetSignedVarint());
  ASSIGN_OR_RETURN(resp.has_schema, GetFlagByte(&r, "has_schema"));
  if (resp.has_schema != 0) {
    ASSIGN_OR_RETURN(resp.schema, DecodeSchema(&r));
  }
  RETURN_NOT_OK(ExpectExhausted(r, "QueryDone response"));
  return resp;
}

std::vector<uint8_t> ResultChunkRequest::EncodePayload() const {
  ByteWriter w;
  w.PutVarint(client_qid);
  w.PutVarint(seq);
  return w.Release();
}

Result<ResultChunkRequest> ResultChunkRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  ResultChunkRequest req;
  ASSIGN_OR_RETURN(req.client_qid, r.GetVarint());
  ASSIGN_OR_RETURN(req.seq, r.GetVarint());
  RETURN_NOT_OK(ExpectExhausted(r, "ResultChunk"));
  return req;
}

std::vector<uint8_t> ResultChunkResponse::EncodePayload() const {
  ByteWriter w;
  w.PutU8(ready);
  PutByteString(chunk_bytes, &w);
  return w.Release();
}

Result<ResultChunkResponse> ResultChunkResponse::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  ResultChunkResponse resp;
  ASSIGN_OR_RETURN(resp.ready, GetFlagByte(&r, "ready"));
  ASSIGN_OR_RETURN(resp.chunk_bytes, GetByteString(&r));
  RETURN_NOT_OK(ExpectExhausted(r, "ResultChunk response"));
  return resp;
}

std::vector<uint8_t> CancelRequest::EncodePayload() const {
  ByteWriter w;
  w.PutVarint(client_qid);
  return w.Release();
}

Result<CancelRequest> CancelRequest::Decode(
    const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  CancelRequest req;
  ASSIGN_OR_RETURN(req.client_qid, r.GetVarint());
  RETURN_NOT_OK(ExpectExhausted(r, "Cancel"));
  return req;
}

std::vector<uint8_t> EncodeErrorPayload(const Status& s) {
  ByteWriter w;
  EncodeStatus(s, &w);
  return w.Release();
}

Status DecodeErrorPayload(const std::vector<uint8_t>& payload, Status* out) {
  ByteReader r(payload);
  RETURN_NOT_OK(DecodeStatus(&r, out));
  return ExpectExhausted(r, "Error payload");
}

}  // namespace net
}  // namespace scidb
