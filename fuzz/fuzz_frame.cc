// Network frame harness: DecodeFrame over arbitrary bytes must return a
// Status — never throw, read past the buffer, or allocate from a hostile
// length field (the payload cap is checked before any allocation). Three
// properties hold for every input:
//
//   1. Accepted bytes are an encode fixed point: EncodeFrame(decoded)
//      reproduces the input exactly (header layout, CRC, payload).
//   2. The streaming path agrees with the whole-buffer path: feeding the
//      same bytes through FrameAssembler yields the same accept/reject
//      decision and the same frame.
//   3. A frame's payload feeds the typed message decoder matching its
//      type; the decoder must reject or round-trip, never misbehave.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "net/frame.h"
#include "net/message.h"

namespace {

[[noreturn]] void Fail(const char* property) {
  std::fprintf(stderr, "fuzz_frame: %s\n", property);
  std::fflush(stderr);
  std::abort();
}

// The typed decoders each own the "reject or round-trip" contract; a
// decode that succeeds must re-encode to the exact payload bytes.
void CheckPayload(const scidb::net::Frame& frame) {
  using scidb::net::MessageType;
  switch (frame.type) {
    case MessageType::kChunkPut: {
      auto m = scidb::net::ChunkPutRequest::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("ChunkPutRequest decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kChunkGet: {
      auto m = scidb::net::ChunkGetRequest::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("ChunkGetRequest decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kScanShard: {
      auto m = scidb::net::ScanShardRequest::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("ScanShardRequest decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kNodeStatsReq: {
      auto m = scidb::net::NodeStatsResponse::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("NodeStatsResponse decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kAck: {
      auto m = scidb::net::ScanShardResponse::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("ScanShardResponse decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kMetricsGet: {
      auto m = scidb::net::MetricsGetRequest::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("MetricsGetRequest decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kTraceGet: {
      auto m = scidb::net::TraceGetRequest::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("TraceGetRequest decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kQuery: {
      auto m = scidb::net::QueryRequest::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("QueryRequest decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kResultChunk: {
      auto m = scidb::net::ResultChunkRequest::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("ResultChunkRequest decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kQueryDone: {
      // The response is the interesting decoder (status + schema on the
      // wire), so the harness aims it at the kQueryDone payload even
      // though live traffic carries it inside kAck.
      auto m = scidb::net::QueryDoneResponse::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("QueryDoneResponse decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kCancel: {
      auto m = scidb::net::CancelRequest::Decode(frame.payload);
      if (m.ok() && m.value().EncodePayload() != frame.payload) {
        Fail("CancelRequest decode/encode is not a fixed point");
      }
      break;
    }
    case MessageType::kError: {
      scidb::Status transported;
      (void)scidb::net::DecodeErrorPayload(frame.payload, &transported);
      break;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::vector<uint8_t> bytes(data, data + size);

  auto whole = scidb::net::DecodeFrame(bytes);

  // Streaming reassembly must reach the same verdict on the same bytes.
  scidb::net::FrameAssembler assembler;
  assembler.Append(bytes.data(), bytes.size());
  scidb::net::Frame streamed;
  auto got = assembler.Next(&streamed);

  if (whole.ok()) {
    if (!got.ok() || !got.value()) {
      Fail("assembler rejected a frame the whole-buffer decoder accepted");
    }
    const std::vector<uint8_t> out = scidb::net::EncodeFrame(whole.value());
    if (out != bytes) Fail("decode -> encode is not a fixed point");
    if (scidb::net::EncodeFrame(streamed) != out) {
      Fail("assembler and whole-buffer decoder disagree on frame contents");
    }
    CheckPayload(whole.value());
  }
  return 0;
}
