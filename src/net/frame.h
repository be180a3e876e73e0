#ifndef SCIDB_NET_FRAME_H_
#define SCIDB_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"

namespace scidb {
namespace net {

// Wire framing (DESIGN.md §10). Every message between grid nodes travels
// as one frame:
//
//   offset  size  field
//   0       4     magic "SNET" (bytes 'S','N','E','T')
//   4       1     version (kFrameVersion)
//   5       1     message type (MessageType)
//   6       2     flags, little-endian (bit 0 = trace context present;
//                 the rest reserved, must be 0 on encode)
//   8       8     request id, little-endian
//   16      4     payload length, little-endian
//   20      4     CRC-32 of the payload bytes, little-endian
//   24      n     payload
//
// The fixed 24-byte header makes stream reassembly trivial (read header,
// then read exactly payload_len bytes) and the trailing-free layout means
// a frame is self-delimiting: DecodeFrame can tell "need more bytes"
// apart from "corrupt" without heuristics.
//
// Distributed tracing (DESIGN.md §12): when flags bit kFrameFlagTrace is
// set, the first kTraceContextWireSize bytes of the payload region are a
// TraceContext — trace_id, span_id, parent_span_id as three little-endian
// u64s — and `Frame::payload` holds only the bytes after it. The prefix is
// counted by payload_len and covered by the CRC, so pre-trace decoders
// and the assembler see a perfectly ordinary frame. Encoding is canonical:
// the flag is set iff trace_id != 0, and decode rejects a set flag with a
// zero trace_id or a payload shorter than the prefix as Corruption (this
// keeps decode->encode a byte-identical fixed point, which fuzz_frame
// checks).

inline constexpr size_t kFrameHeaderSize = 24;
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr uint32_t kFrameMagic = 0x54454E53;  // "SNET" little-endian

// Refuse absurd payload lengths up front so a corrupt or adversarial
// header cannot drive a multi-gigabyte allocation (the fuzz harness
// exercises exactly this path). 256 MiB comfortably covers the largest
// chunk-shipping payload the grid produces.
inline constexpr uint32_t kMaxFramePayload = 256u << 20;

// Flags bit 0: the payload region starts with an encoded TraceContext.
inline constexpr uint16_t kFrameFlagTrace = 0x1;

// Encoded TraceContext size: trace_id + span_id + parent_span_id, u64 each.
inline constexpr size_t kTraceContextWireSize = 24;

// Message vocabulary of the grid RPC layer. Requests carry an encoded
// argument payload; the server answers every request with kAck (payload =
// encoded result) or kError (payload = wire-encoded Status), echoing the
// request id.
enum class MessageType : uint8_t {
  kChunkPut = 1,     // idempotent upsert of cells into a shard
  kChunkGet = 2,     // fetch one chunk by origin
  kScanShard = 3,    // scan a shard, optionally filtered server-side
  kNodeStatsReq = 4, // per-node statistics snapshot
  kAck = 5,          // success response
  kError = 6,        // failure response (payload = wire Status)
  kMetricsGet = 7,   // pull one node's metrics snapshot (DESIGN.md §12)
  kTraceGet = 8,     // pull spans / flight-recorder events from a node
  // 9 is retired (it carried a node's dead-set view) and never reused, so
  // a frame from an older peer cannot be read as a different message.
  // Query-server vocabulary (DESIGN.md §15). All four are idempotent:
  // queries are keyed by a client-generated id, result chunks are
  // fetched by (query id, seq), and Cancel of an unknown or finished
  // query acknowledges without effect — so RPC retries and
  // fault-injected duplicates are safe like every other message here.
  kQuery = 10,       // submit one AQL statement under a client query id
  kResultChunk = 11, // pull one buffered result chunk by sequence number
  kQueryDone = 12,   // poll completion; response carries status + schema
  kCancel = 13,      // abort a running query / release a finished one
};

// True if `t` is one of the enumerators above. Decoding rejects anything
// else so handlers never see an out-of-vocabulary type.
bool IsValidMessageType(uint8_t t);

// "ChunkPut", "Ack", ... for logs and traces.
const char* MessageTypeName(MessageType t);

struct Frame {
  MessageType type = MessageType::kAck;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  // Carried iff trace.trace_id != 0; EncodeFrame derives the flag bit from
  // this field (see the wire-format comment above).
  TraceContext trace;
  std::vector<uint8_t> payload;
};

// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) over `n` bytes.
// Exposed for tests; frame encode/decode use it internally.
uint32_t Crc32(const uint8_t* data, size_t n);

// Serializes header + payload into a contiguous buffer.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

// Decodes exactly one frame from `data`. Returns Corruption for a bad
// magic, version, type, length, or checksum, and for trailing garbage
// (`size` must equal the frame's encoded size). `DecodeFramePrefix`
// relaxes the trailing check for stream use and reports bytes consumed.
Result<Frame> DecodeFrame(const uint8_t* data, size_t size);
Result<Frame> DecodeFrame(const std::vector<uint8_t>& data);

// Stream reassembly for the TCP transport: feed arbitrary byte spans in
// arrival order, pull complete frames out. Corruption is sticky — a
// stream that ever fails to parse cannot resynchronize (there are no
// frame boundaries to hunt for once the length field is untrusted).
class FrameAssembler {
 public:
  // Appends raw bytes received from the peer.
  void Append(const uint8_t* data, size_t n);

  // If a complete frame is buffered, moves it into `out` and returns
  // true. Returns false if more bytes are needed. Returns Corruption if
  // the buffered prefix is not a valid frame.
  Result<bool> Next(Frame* out);

  size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;  // prefix already handed out as frames
  bool corrupt_ = false;
};

}  // namespace net
}  // namespace scidb

#endif  // SCIDB_NET_FRAME_H_
