#ifndef SCIDB_NET_MESSAGE_H_
#define SCIDB_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/coordinates.h"
#include "array/schema.h"
#include "common/flight_recorder.h"
#include "common/result.h"
#include "common/trace.h"
#include "net/frame.h"
#include "net/wire.h"

namespace scidb {
namespace net {

// Typed payloads for the grid RPC vocabulary (frame.h MessageType).
// Each struct round-trips through EncodePayload/Decode: the encode side
// produces the frame payload bytes, the decode side parses them with
// full bounds checking. Chunk bodies use storage/chunk_serde's columnar
// codec and travel as opaque length-prefixed byte strings here — the
// schema needed to decode them lives on both ends (array manifest).

// Idempotent upsert of one chunk's cells into the destination shard.
// Applying the same ChunkPut twice leaves the shard in the same state
// (SetCell is last-writer-wins per cell and a duplicate carries the
// same cells), which is what makes the RPC safe to retry and to
// duplicate under fault injection. Where the chunk goes is the
// coordinator's decision (its chunk directory); the node only stores it.
struct ChunkPutRequest {
  std::vector<uint8_t> chunk_bytes;  // SerializeChunk output

  std::vector<uint8_t> EncodePayload() const;
  static Result<ChunkPutRequest> Decode(const std::vector<uint8_t>& payload);
};

// Fetch one chunk by its origin coordinates. Response payload is the
// serialized chunk; a missing chunk is a kError response with NotFound.
struct ChunkGetRequest {
  Coordinates origin;

  std::vector<uint8_t> EncodePayload() const;
  static Result<ChunkGetRequest> Decode(const std::vector<uint8_t>& payload);
};

// Scan the listed chunks of the destination shard, optionally filtering
// server-side with a shipped predicate (function shipping). With no
// predicate the response is the listed chunks verbatim (data shipping,
// e.g. for aggregates whose accumulator state has no wire form).
//
// `origins` are the chunks the coordinator's directory routes to this
// node for one fan-out slot (DESIGN.md §13); a node asked for an origin
// it does not hold answers with an error rather than a short result.
// Each origin has at least one dimension, which also keeps the payloads
// of the older view/dead-set layout from parsing as this one.
//
// The predicate travels as opaque bytes (exec/expr_serde's EncodeExpr
// output): net/ must not know the expression model — the grid layer
// encodes on the coordinator and decodes on the serving node.
struct ScanShardRequest {
  std::vector<Coordinates> origins;  // in request order, may be empty
  std::vector<uint8_t> pred_bytes;   // empty = unfiltered scan

  std::vector<uint8_t> EncodePayload() const;
  static Result<ScanShardRequest> Decode(const std::vector<uint8_t>& payload);
};

// Response to ScanShard: the matching cells re-chunked on the serving
// node, in origin order (MemArray::chunks() iteration order), so the
// coordinator's merge is deterministic.
struct ScanShardResponse {
  std::vector<std::vector<uint8_t>> chunks;  // SerializeChunk outputs

  std::vector<uint8_t> EncodePayload() const;
  static Result<ScanShardResponse> Decode(const std::vector<uint8_t>& payload);
};

// Response to NodeStatsReq (the request itself has an empty payload).
// Mirrors grid NodeStats; defined here so net/ does not depend on grid/.
struct NodeStatsResponse {
  int64_t cells_stored = 0;
  int64_t bytes_stored = 0;
  int64_t cells_scanned = 0;
  int64_t bytes_scanned = 0;

  std::vector<uint8_t> EncodePayload() const;
  static Result<NodeStatsResponse> Decode(const std::vector<uint8_t>& payload);
};

// Pull one node's metrics snapshot (DESIGN.md §12). The response carries
// the snapshot as metrics-JSON bytes (common/metrics SnapshotToJson): the
// format already has a fuzz-hardened parser, and keeping it opaque here
// means net/ does not depend on the registry's entry model.
struct MetricsGetRequest {
  uint8_t include_process = 0;  // 1 = append the process-wide registry too

  std::vector<uint8_t> EncodePayload() const;
  static Result<MetricsGetRequest> Decode(const std::vector<uint8_t>& payload);
};

struct MetricsGetResponse {
  std::vector<uint8_t> json;  // SnapshotToJson bytes

  std::vector<uint8_t> EncodePayload() const;
  static Result<MetricsGetResponse> Decode(const std::vector<uint8_t>& payload);
};

// Pull finished spans for one trace — and, optionally, the node's view of
// the process flight recorder — from a node's RpcServer. This is how the
// coordinator stitches server-side handler timings into explain analyze:
// the spans genuinely cross the RPC boundary instead of being read out of
// shared process memory.
struct TraceGetRequest {
  uint64_t trace_id = 0;     // spans to fetch (0 = none, events only)
  uint8_t include_flight = 0;  // 1 = append flight-recorder events

  std::vector<uint8_t> EncodePayload() const;
  static Result<TraceGetRequest> Decode(const std::vector<uint8_t>& payload);
};

struct TraceGetResponse {
  std::vector<SpanRecord> spans;     // insertion order preserved
  std::vector<FlightEvent> events;   // oldest first

  std::vector<uint8_t> EncodePayload() const;
  static Result<TraceGetResponse> Decode(const std::vector<uint8_t>& payload);
};

// ---------------- query-server vocabulary (DESIGN.md §15) ----------------
// The client generates the query id (unique per client node, strictly
// increasing), so a retried or fault-duplicated kQuery is recognizable
// as the same submission — the server executes each (src, client_qid)
// pair at most once. Results are PULLED chunk-by-chunk with
// kResultChunk, never pushed: a lost response is simply retried, which
// both makes reassembly idempotent per query id and gives the client
// natural backpressure (it paces the fetches).

// Submit one AQL statement for asynchronous execution.
struct QueryRequest {
  uint64_t client_qid = 0;
  std::string statement;

  std::vector<uint8_t> EncodePayload() const;
  static Result<QueryRequest> Decode(const std::vector<uint8_t>& payload);
};

// Poll query completion. The request is just the id; the response says
// whether the query finished and, once done, carries everything except
// the chunk data itself: terminal status (split into raw code+message so
// the payload round-trips byte-identically), result kind, and — for
// array results — the chunk count plus the schema needed to decode the
// SerializeChunk bytes fetched afterwards.
struct QueryDoneRequest {
  uint64_t client_qid = 0;

  std::vector<uint8_t> EncodePayload() const;
  static Result<QueryDoneRequest> Decode(const std::vector<uint8_t>& payload);
};

struct QueryDoneResponse {
  // QueryResult::Kind ordinals (query/session.h); bounded by kMaxKind on
  // decode. net/ carries the byte, server/ owns the mapping.
  static constexpr uint8_t kMaxKind = 5;

  uint8_t done = 0;            // 0 = still running (all else ignored)
  uint8_t status_code = 0;     // StatusCode ordinal of the terminal status
  std::string status_message;
  uint8_t kind = 0;
  uint8_t boolean = 0;         // kBool results
  std::string message;         // kNone/kExplain results
  uint64_t n_chunks = 0;       // kArray results: chunks to fetch
  int64_t snapshot_epoch = 0;  // catalog epoch the query read from
  uint8_t has_schema = 0;
  ArraySchema schema;          // present iff has_schema

  std::vector<uint8_t> EncodePayload() const;
  static Result<QueryDoneResponse> Decode(
      const std::vector<uint8_t>& payload);
};

// Fetch one buffered result chunk of a finished query by sequence
// number (0-based, dense). Pure read — safe to retry and duplicate.
struct ResultChunkRequest {
  uint64_t client_qid = 0;
  uint64_t seq = 0;

  std::vector<uint8_t> EncodePayload() const;
  static Result<ResultChunkRequest> Decode(
      const std::vector<uint8_t>& payload);
};

struct ResultChunkResponse {
  uint8_t ready = 0;                 // 0 = query still running
  std::vector<uint8_t> chunk_bytes;  // SerializeChunk output when ready

  std::vector<uint8_t> EncodePayload() const;
  static Result<ResultChunkResponse> Decode(
      const std::vector<uint8_t>& payload);
};

// Abort a running query (it stops within one morsel) or release a
// finished one (frees its buffered result bytes). Unknown or already
// released ids acknowledge as success, which is what makes the retry
// path safe.
struct CancelRequest {
  uint64_t client_qid = 0;

  std::vector<uint8_t> EncodePayload() const;
  static Result<CancelRequest> Decode(const std::vector<uint8_t>& payload);
};

// Builds a kError frame payload from a Status, and parses one back.
std::vector<uint8_t> EncodeErrorPayload(const Status& s);
// Returns the transported status (non-OK by construction on the server
// side) or Corruption if the payload does not parse.
Status DecodeErrorPayload(const std::vector<uint8_t>& payload, Status* out);

}  // namespace net
}  // namespace scidb

#endif  // SCIDB_NET_MESSAGE_H_
