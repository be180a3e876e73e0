#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace scidb {
namespace net {
namespace {

Frame MakeFrame(MessageType type, uint64_t id,
                std::vector<uint8_t> payload) {
  Frame f;
  f.type = type;
  f.request_id = id;
  f.payload = std::move(payload);
  return f;
}

// ------------------------------- CRC-32 -----------------------------------

TEST(Crc32Test, KnownVectors) {
  // The standard IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const uint8_t a[] = {'a'};
  EXPECT_EQ(Crc32(a, 1), 0xE8B7BE43u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(64, 0xAB);
  uint32_t clean = Crc32(data.data(), data.size());
  data[17] ^= 0x01;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

// ----------------------------- encode/decode ------------------------------

TEST(FrameTest, RoundTripPreservesEveryField) {
  Frame f = MakeFrame(MessageType::kScanShard, 0xDEADBEEFCAFEull,
                      {1, 2, 3, 0, 255, 42});
  std::vector<uint8_t> bytes = EncodeFrame(f);
  EXPECT_EQ(bytes.size(), kFrameHeaderSize + f.payload.size());

  Result<Frame> r = DecodeFrame(bytes);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().type, MessageType::kScanShard);
  EXPECT_EQ(r.value().request_id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(r.value().flags, 0);
  EXPECT_EQ(r.value().payload, f.payload);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  std::vector<uint8_t> bytes =
      EncodeFrame(MakeFrame(MessageType::kAck, 7, {}));
  EXPECT_EQ(bytes.size(), kFrameHeaderSize);
  Result<Frame> r = DecodeFrame(bytes);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().payload.empty());
  EXPECT_EQ(r.value().request_id, 7u);
}

TEST(FrameTest, EncodeIsDeterministic) {
  Frame f = MakeFrame(MessageType::kChunkPut, 99, {9, 8, 7});
  EXPECT_EQ(EncodeFrame(f), EncodeFrame(f));
}

TEST(FrameTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes =
      EncodeFrame(MakeFrame(MessageType::kAck, 1, {1}));
  bytes[0] ^= 0xFF;
  Result<Frame> r = DecodeFrame(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(FrameTest, RejectsBadVersion) {
  std::vector<uint8_t> bytes =
      EncodeFrame(MakeFrame(MessageType::kAck, 1, {1}));
  bytes[4] = kFrameVersion + 1;
  Result<Frame> r = DecodeFrame(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(FrameTest, RejectsUnknownMessageType) {
  for (uint8_t bad : {uint8_t{0}, uint8_t{14}, uint8_t{255}}) {
    std::vector<uint8_t> bytes =
        EncodeFrame(MakeFrame(MessageType::kAck, 1, {1}));
    bytes[5] = bad;
    Result<Frame> r = DecodeFrame(bytes);
    ASSERT_FALSE(r.ok()) << "type " << int{bad};
    EXPECT_TRUE(r.status().IsCorruption());
  }
}

TEST(FrameTest, RejectsChecksumMismatch) {
  std::vector<uint8_t> bytes =
      EncodeFrame(MakeFrame(MessageType::kChunkGet, 1, {10, 20, 30}));
  bytes[kFrameHeaderSize + 1] ^= 0x40;  // corrupt payload, keep header CRC
  Result<Frame> r = DecodeFrame(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST(FrameTest, RejectsTruncation) {
  std::vector<uint8_t> bytes =
      EncodeFrame(MakeFrame(MessageType::kChunkPut, 1, {1, 2, 3, 4}));
  for (size_t n : {size_t{0}, size_t{5}, kFrameHeaderSize,
                   bytes.size() - 1}) {
    Result<Frame> r = DecodeFrame(bytes.data(), n);
    ASSERT_FALSE(r.ok()) << "prefix " << n;
    EXPECT_TRUE(r.status().IsCorruption());
  }
}

TEST(FrameTest, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes =
      EncodeFrame(MakeFrame(MessageType::kAck, 1, {1}));
  bytes.push_back(0);
  Result<Frame> r = DecodeFrame(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(FrameTest, RejectsOversizePayloadLengthBeforeAllocating) {
  // Patch the length field to just past the cap; the decoder must refuse
  // from the header alone (this is what stops a 4 GiB allocation from a
  // 24-byte hostile input).
  std::vector<uint8_t> bytes =
      EncodeFrame(MakeFrame(MessageType::kAck, 1, {}));
  uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  Result<Frame> r = DecodeFrame(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_NE(r.status().message().find("cap"), std::string::npos);
}

TEST(FrameTest, MessageTypeVocabulary) {
  EXPECT_FALSE(IsValidMessageType(0));
  // Tag 9 is retired and never reused: a frame carrying it is rejected.
  for (uint8_t t = 1; t <= 13; ++t) {
    EXPECT_EQ(IsValidMessageType(t), t != 9) << static_cast<int>(t);
  }
  EXPECT_FALSE(IsValidMessageType(14));
  EXPECT_STREQ(MessageTypeName(MessageType::kChunkPut), "ChunkPut");
  EXPECT_STREQ(MessageTypeName(MessageType::kError), "Error");
  EXPECT_STREQ(MessageTypeName(MessageType::kMetricsGet), "MetricsGet");
  EXPECT_STREQ(MessageTypeName(MessageType::kTraceGet), "TraceGet");
  EXPECT_STREQ(MessageTypeName(static_cast<MessageType>(9)), "Unknown");
  EXPECT_STREQ(MessageTypeName(MessageType::kQuery), "Query");
  EXPECT_STREQ(MessageTypeName(MessageType::kResultChunk), "ResultChunk");
  EXPECT_STREQ(MessageTypeName(MessageType::kQueryDone), "QueryDone");
  EXPECT_STREQ(MessageTypeName(MessageType::kCancel), "Cancel");
}

// ----------------------------- FrameAssembler -----------------------------

TEST(FrameAssemblerTest, ReassemblesByteByByte) {
  std::vector<uint8_t> stream;
  for (uint64_t id = 1; id <= 3; ++id) {
    std::vector<uint8_t> one = EncodeFrame(MakeFrame(
        MessageType::kScanShard, id, std::vector<uint8_t>(id * 7, 0x5A)));
    stream.insert(stream.end(), one.begin(), one.end());
  }

  FrameAssembler asm_;
  std::vector<Frame> got;
  for (uint8_t b : stream) {
    asm_.Append(&b, 1);
    while (true) {
      Frame f;
      Result<bool> r = asm_.Next(&f);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (!r.value()) break;
      got.push_back(std::move(f));
    }
  }
  ASSERT_EQ(got.size(), 3u);
  for (uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(got[id - 1].request_id, id);
    EXPECT_EQ(got[id - 1].payload.size(), id * 7);
  }
  EXPECT_EQ(asm_.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, HandlesArbitrarySplitPoints) {
  std::vector<uint8_t> one = EncodeFrame(
      MakeFrame(MessageType::kChunkPut, 42, std::vector<uint8_t>(100, 1)));
  // Split the frame at every possible point; both halves must reassemble.
  for (size_t cut = 0; cut <= one.size(); ++cut) {
    FrameAssembler asm_;
    asm_.Append(one.data(), cut);
    Frame f;
    Result<bool> r = asm_.Next(&f);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), cut == one.size());
    if (cut < one.size()) {
      asm_.Append(one.data() + cut, one.size() - cut);
      r = asm_.Next(&f);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r.value());
    }
    EXPECT_EQ(f.request_id, 42u);
  }
}

TEST(FrameAssemblerTest, CorruptionIsSticky) {
  FrameAssembler asm_;
  std::vector<uint8_t> junk(kFrameHeaderSize, 0xFF);
  asm_.Append(junk.data(), junk.size());
  Frame f;
  Result<bool> r = asm_.Next(&f);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());

  // Appending a perfectly valid frame cannot resynchronize the stream.
  std::vector<uint8_t> good =
      EncodeFrame(MakeFrame(MessageType::kAck, 1, {}));
  asm_.Append(good.data(), good.size());
  r = asm_.Next(&f);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

}  // namespace
}  // namespace net
}  // namespace scidb
