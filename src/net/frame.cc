#include "net/frame.h"

#include <array>
#include <cstring>

#include "common/byte_io.h"
#include "common/macros.h"

namespace scidb {
namespace net {

namespace {

// CRC-32 lookup table for the reflected IEEE polynomial 0xEDB88320,
// computed once at first use (function-local static, thread-safe init).
const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return kTable;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const auto& table = CrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool IsValidMessageType(uint8_t t) {
  return t >= static_cast<uint8_t>(MessageType::kChunkPut) &&
         t <= static_cast<uint8_t>(MessageType::kCancel) &&
         t != 9;  // retired (frame.h)
}

const char* MessageTypeName(MessageType t) {
  switch (t) {
    case MessageType::kChunkPut:
      return "ChunkPut";
    case MessageType::kChunkGet:
      return "ChunkGet";
    case MessageType::kScanShard:
      return "ScanShard";
    case MessageType::kNodeStatsReq:
      return "NodeStatsReq";
    case MessageType::kAck:
      return "Ack";
    case MessageType::kError:
      return "Error";
    case MessageType::kMetricsGet:
      return "MetricsGet";
    case MessageType::kTraceGet:
      return "TraceGet";
    case MessageType::kQuery:
      return "Query";
    case MessageType::kResultChunk:
      return "ResultChunk";
    case MessageType::kQueryDone:
      return "QueryDone";
    case MessageType::kCancel:
      return "Cancel";
  }
  return "Unknown";
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  // The payload region is [trace context if traced] + payload; both the
  // length field and the CRC cover the whole region. The trace flag is
  // derived from frame.trace, never trusted from frame.flags, so encoding
  // is canonical (flag set iff trace_id != 0).
  const bool traced = frame.trace.active();
  uint16_t flags = frame.flags;
  if (traced) {
    flags |= kFrameFlagTrace;
  } else {
    flags &= static_cast<uint16_t>(~kFrameFlagTrace);
  }
  ByteWriter body;
  if (traced) {
    body.PutU64(frame.trace.trace_id);
    body.PutU64(frame.trace.span_id);
    body.PutU64(frame.trace.parent_span_id);
  }
  body.PutBytes(frame.payload.data(), frame.payload.size());
  const std::vector<uint8_t> region = body.Release();

  ByteWriter w;
  w.PutU32(kFrameMagic);
  w.PutU8(kFrameVersion);
  w.PutU8(static_cast<uint8_t>(frame.type));
  w.PutU8(static_cast<uint8_t>(flags & 0xFF));
  w.PutU8(static_cast<uint8_t>(flags >> 8));
  w.PutU64(frame.request_id);
  w.PutU32(static_cast<uint32_t>(region.size()));
  w.PutU32(Crc32(region.data(), region.size()));
  w.PutBytes(region.data(), region.size());
  return w.Release();
}

namespace {

// Decodes one frame from the front of [data, data+size). On success sets
// `*consumed` to the frame's total encoded size. Incomplete input (header
// or payload not fully present) is distinguished from corruption: it
// returns OutOfRange so stream callers can wait for more bytes, while
// genuinely malformed input returns Corruption.
Result<Frame> DecodeFramePrefix(const uint8_t* data, size_t size,
                                size_t* consumed) {
  if (size < kFrameHeaderSize) {
    return Status::OutOfRange("frame header incomplete");
  }
  ByteReader r(data, size);
  ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kFrameMagic) return Status::Corruption("bad frame magic");
  ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kFrameVersion) {
    return Status::Corruption("unsupported frame version " +
                              std::to_string(version));
  }
  ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (!IsValidMessageType(type)) {
    return Status::Corruption("unknown message type " + std::to_string(type));
  }
  ASSIGN_OR_RETURN(uint8_t flags_lo, r.GetU8());
  ASSIGN_OR_RETURN(uint8_t flags_hi, r.GetU8());
  ASSIGN_OR_RETURN(uint64_t request_id, r.GetU64());
  ASSIGN_OR_RETURN(uint32_t payload_len, r.GetU32());
  ASSIGN_OR_RETURN(uint32_t expected_crc, r.GetU32());
  if (payload_len > kMaxFramePayload) {
    return Status::Corruption("frame payload length " +
                              std::to_string(payload_len) + " exceeds cap");
  }
  if (size - kFrameHeaderSize < payload_len) {
    return Status::OutOfRange("frame payload incomplete");
  }
  const uint8_t* region = data + kFrameHeaderSize;
  if (Crc32(region, payload_len) != expected_crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  Frame f;
  f.type = static_cast<MessageType>(type);
  f.flags = static_cast<uint16_t>(flags_lo) |
            (static_cast<uint16_t>(flags_hi) << 8);
  f.request_id = request_id;
  size_t payload_off = 0;
  if ((f.flags & kFrameFlagTrace) != 0) {
    if (payload_len < kTraceContextWireSize) {
      return Status::Corruption("traced frame shorter than trace context");
    }
    ByteReader tr(region, kTraceContextWireSize);
    ASSIGN_OR_RETURN(f.trace.trace_id, tr.GetU64());
    ASSIGN_OR_RETURN(f.trace.span_id, tr.GetU64());
    ASSIGN_OR_RETURN(f.trace.parent_span_id, tr.GetU64());
    if (f.trace.trace_id == 0) {
      // Encode derives the flag from trace_id != 0; accepting this form
      // would break the decode->encode fixed point fuzz_frame relies on.
      return Status::Corruption("traced frame with zero trace id");
    }
    payload_off = kTraceContextWireSize;
  }
  f.payload.assign(region + payload_off, region + payload_len);
  *consumed = kFrameHeaderSize + payload_len;
  return f;
}

}  // namespace

Result<Frame> DecodeFrame(const uint8_t* data, size_t size) {
  size_t consumed = 0;
  Result<Frame> r = DecodeFramePrefix(data, size, &consumed);
  if (!r.ok()) {
    // A whole-buffer decode treats "incomplete" as corruption: the caller
    // claimed this was the entire frame.
    if (r.status().IsOutOfRange()) {
      return Status::Corruption("truncated frame: " + r.status().message());
    }
    return r.status();
  }
  if (consumed != size) {
    return Status::Corruption("trailing bytes after frame");
  }
  return r;
}

Result<Frame> DecodeFrame(const std::vector<uint8_t>& data) {
  return DecodeFrame(data.data(), data.size());
}

void FrameAssembler::Append(const uint8_t* data, size_t n) {
  // Compact lazily: drop the consumed prefix once it dominates the buffer
  // so long-lived connections do not grow without bound.
  if (consumed_ > 0 && consumed_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

Result<bool> FrameAssembler::Next(Frame* out) {
  if (corrupt_) return Status::Corruption("frame stream already corrupt");
  size_t consumed = 0;
  Result<Frame> r =
      DecodeFramePrefix(buf_.data() + consumed_, buf_.size() - consumed_,
                        &consumed);
  if (!r.ok()) {
    if (r.status().IsOutOfRange()) return false;  // need more bytes
    corrupt_ = true;
    return r.status();
  }
  consumed_ += consumed;
  *out = std::move(r).value();
  return true;
}

}  // namespace net
}  // namespace scidb
