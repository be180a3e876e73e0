// Golden payload bytes: one small chunk per value codec, pinned as the
// exact `SerializeChunk` bytes and the exact `Compress` bytes for kLz and
// kRle. The on-disk format is these bytes, so any change to the encoder
// or the serde layout fails here first; the decoder must turn every
// pinned payload back into the pinned chunk bytes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "array/chunk.h"
#include "storage/chunk_serde.h"
#include "storage/codec.h"

namespace scidb {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xF];
  }
  return s;
}

std::vector<uint8_t> Unhex(const std::string& s) {
  std::vector<uint8_t> out;
  auto nibble = [](char c) {
    return static_cast<uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  for (size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(nibble(s[i]) << 4 | nibble(s[i + 1])));
  }
  return out;
}

struct GoldenCase {
  std::string name;
  std::vector<AttributeDesc> attrs;
  // Fills a fresh chunk over the 3 x 4 box [0,2] x [0,3].
  std::function<void(Chunk*)> fill;
  std::string chunk_hex;
  std::string lz_hex;
  std::string rle_hex;
};

// Row-major cell `i` of the 3 x 4 box.
Coordinates At(int64_t i) { return {i / 4, i % 4}; }

// Cell `i` := `v`, or NULL when `null`.
void Put(Chunk* c, int64_t i, Value v, bool null) {
  if (null) v = Value::Null();
  c->SetCell(At(i), {v});
}

std::shared_ptr<NestedArray> Nested(std::vector<int64_t> shape,
                                    std::vector<double> values) {
  auto na = std::make_shared<NestedArray>();
  na->shape = std::move(shape);
  for (double v : values) na->values.emplace_back(v);
  return na;
}

std::vector<GoldenCase> Cases() {
  return {
      {"Bool",
       {{"b", DataType::kBool, true, false}},
       [](Chunk* c) {
         for (int64_t i = 0; i < 12; ++i) {
           if (i == 3 || i == 8) continue;  // absent
           Put(c, i, Value(i % 3 == 0), i == 5);
         }
       },
       "484443530200040006010c010101000101010100010101000000000000010000"
       "000000010000000100010000",
       "020010484443530200040006010c010101000101050700010001010501070601"
       "0604000101010604",
       "010f484443530200040006010c01010100ff04010400010101ff06000101ff05"
       "0009010000000100010000"},
      {"Int64",
       {{"n", DataType::kInt64, true, false}},
       [](Chunk* c) {
         const int64_t v[] = {7,  7,  7,  7,       -3, 1000000,
                              -1, 42, 42, 1LL << 40, 0,  -99};
         for (int64_t i = 0; i < 12; ++i) {
           if (i == 10) continue;
           c->SetCell(At(i), {Value(v[i])});
         }
       },
       "484443530200040006010c010101010101010101010001010000000000000000"
       "000000000e0000001386897a81897a5600acffffffff3fc58180808040",
       "02000c484443530200040006010c0101010900040001010001010b00190e0000"
       "001386897a81897a5600acffffffff3fc58180808040",
       "010b484443530200040006010cff0a0103000101ff0c000e0e0000001386897a"
       "81897a5600acff04ff073fc58180808040"},
      {"Float",
       {{"f", DataType::kFloat, true, false}},
       [](Chunk* c) {
         for (int64_t i = 0; i < 12; ++i) {
           Put(c, i, Value(i < 6 ? 1.5 : 0.1 * i), i == 7);
         }
       },
       "484443530200040006010c010101010101010101010101020000000000000000"
       "01000000000000c03f0000c03f0000c03f0000c03f0000c03f0000c03f9a9919"
       "3fcdcc4c3f6666663f0000803fcdcc8c3f",
       "02000c484443530200040006010c0101010b0002020001010700010101050400"
       "040000c03f01041400149a99193fcdcc4c3f6666663f0000803fcdcc8c3f",
       "010b484443530200040006010cff0c010102ff08000101ff06002ac03f0000c0"
       "3f0000c03f0000c03f0000c03f0000c03f9a99193fcdcc4c3f6666663f000080"
       "3fcdcc8c3f"},
      {"Double",
       {{"d", DataType::kDouble, true, false}},
       [](Chunk* c) {
         for (int64_t i = 0; i < 12; ++i) {
           if (i == 1) continue;
           c->SetCell(At(i), {Value(i % 4 == 0 ? -0.0 : 2.5 * (i % 3))});
         }
       },
       "484443530200040006010c010001010101010101010101030000000000000000"
       "0000000000000000000000800000000000001440000000000000000000000000"
       "0000008000000000000014400000000000000000000000000000044000000000"
       "00000080000000000000000000000000000004400000000000001440",
       "02000e484443530200040006010c010001010109000203000101120001800105"
       "0400040000144001060401010b01181700010401100801200701010801180800"
       "021440",
       "010d484443530200040006010c0100ff0a010103ff13000180ff0600021440ff"
       "0f000180ff0600021440ff0e00020440ff07000180ff0e00020440ff06000214"
       "40"},
      {"DenseDouble",
       {{"d", DataType::kDouble, true, false}},
       [](Chunk* c) {
         // Every cell present and non-NULL: the one-memcpy column path.
         for (int64_t i = 0; i < 12; ++i) {
           Put(c, i, Value(0.25 * (i % 5)), false);
         }
       },
       "484443530200040006010c010101010101010101010101030000000000000000"
       "00000000000000000000000000000000000000d03f000000000000e03f000000"
       "000000e83f000000000000f03f0000000000000000000000000000d03f000000"
       "000000e03f000000000000e83f000000000000f03f0000000000000000000000"
       "000000d03f",
       "02000c484443530200040006010c0101010b0002030001011a0002d03f010604"
       "00030000e00108070001e80108070001f001080701010801282a",
       "010b484443530200040006010cff0c010103ff1b0002d03fff060002e03fff06"
       "0002e83fff060002f03fff0e0002d03fff060002e03fff060002e83fff060002"
       "f03fff0e0002d03f"},
      {"String",
       {{"s", DataType::kString, true, false}},
       [](Chunk* c) {
         const char* v[] = {"", "sky", "sky", "galaxy"};
         for (int64_t i = 0; i < 12; i += 2) {
           Put(c, i, Value(std::string(v[i % 4 + i / 8])), i == 6);
         }
       },
       "484443530200040006010c010001000100010001000100040000000001000000"
       "03736b790003736b790667616c617879",
       "02000d484443530200040006010c010001020a000d0400000000010000000373"
       "6b7901050500070667616c617879",
       "0118484443530200040006010c01000100010001000100010004ff0400140100"
       "000003736b790003736b790667616c617879"},
      {"NestedArray",
       {{"a", DataType::kArray, true, false}},
       [](Chunk* c) {
         c->SetCell(At(0), {Value(Nested({2}, {7.0, 9.0}))});
         c->SetCell(At(2), {Value::Null()});
         c->SetCell(At(5), {Value(Nested({2, 2}, {1.0, 2.0, 3.0, 4.0}))});
         c->SetCell(At(11), {Value(Nested({0}, {}))});
       },
       "484443530200040006010c010001000001000000000001050000010000010402"
       "0000000000001c40000000000000224002040404000000000000f03f00000000"
       "0000004000000000000008400000000000001040010000",
       "02000f484443530200040006010c0100010001030400050000000105010a0500"
       "03010402010e04000400001c4001060400080000224002040404010a04000400"
       "00f03f0106040003000000011c0700010801080700051040010000",
       "0111484443530200040006010c010001000001ff05000a010500000100000104"
       "02ff0600021c40ff060006224002040404ff060002f03fff07000140ff060002"
       "0840ff0600051040010000"},
      {"UncertainConstantStderr",
       {{"u", DataType::kDouble, true, true}},
       [](Chunk* c) {
         for (int64_t i = 0; i < 12; ++i) {
           if (i == 4) continue;
           c->SetCell(At(i), {Value(Uncertain(0.5 * i, 0.25))});
         }
       },
       "484443530200040006010c010101010001010101010101030100000000000000"
       "000000000000000000000000000000000000e03f000000000000f03f00000000"
       "0000f83f000000000000044000000000000008400000000000000c4000000000"
       "0000104000000000000012400000000000001440000000000000164001000000"
       "000000d03f",
       "020010484443530200040006010c010101010001050400060101010301000101"
       "180002e03f01060400030000f00108070001f801080700020440010604000300"
       "000801080700010c010807000110010807000112010807000114010807000216"
       "400164070002d03f",
       "010b484443530200040006010cff04010100ff0701020301ff190002e03fff06"
       "0002f03fff060002f83fff0600020440ff0600020840ff0600020c40ff060002"
       "1040ff0600021240ff0600021440ff060003164001ff060002d03f"},
      {"UncertainVaryingStderr",
       {{"u", DataType::kDouble, true, true}},
       [](Chunk* c) {
         for (int64_t i = 0; i < 12; ++i) {
           Put(c, i, Value(Uncertain(3.0, 0.1 * (i % 5))), i == 9);
         }
       },
       "484443530200040006010c010101010101010101010101030100000000000000"
       "0000010000000000000000084000000000000008400000000000000840000000"
       "0000000840000000000000084000000000000008400000000000000840000000"
       "0000000840000000000000084000000000000008400000000000000840000000"
       "0000000000009a9999999999b93f9a9999999999c93f343333333333d33f9a99"
       "99999999d93f00000000000000009a9999999999b93f9a9999999999c93f3433"
       "33333333d33f00000000000000009a9999999999b93f",
       "02000c484443530200040006010c0101010b0003030100010108010a09000208"
       "4001060401085200050000009a990101040002b93f0108060004c93f34330101"
       "040001d30110070002d93f012404010104011006012812011c04010104011806"
       "0002b93f",
       "010b484443530200040006010cff0c01020301ff09000101ff0800020840ff06"
       "00020840ff0600020840ff0600020840ff0600020840ff0600020840ff060002"
       "0840ff0600020840ff0600020840ff0600020840ff0600020840ff0900019aff"
       "059903b93f9aff059903c93f34ff053303d33f9aff059902d93fff0800019aff"
       "059903b93f9aff059903c93f34ff053302d33fff0800019aff059902b93f"},
      {"AllNull",
       {{"d", DataType::kDouble, true, false}},
       [](Chunk* c) {
         for (int64_t i = 1; i < 12; i += 3) {
           c->SetCell(At(i), {Value::Null()});
         }
       },
       "484443530200040006010c000100000100000100000100030001010101",
       "02000e484443530200040006010c0001000103090006030001010101",
       "0119484443530200040006010c0001000001000001000001000300ff0401"},
      {"NoPresentCell",
       {{"d", DataType::kDouble, true, false}},
       [](Chunk*) {},
       "484443530200040006010c0000000000000000000000000300",
       "02000c484443530200040006010c0001010b00020300",
       "010b484443530200040006010cff0c00020300"},
  };
}

// A failing case prints its name, not the bytes of the struct.
void PrintTo(const GoldenCase& g, std::ostream* os) { *os << g.name; }

class ChunkPayloadGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ChunkPayloadGoldenTest, BytesArePinned) {
  const GoldenCase& g = GetParam();
  Chunk chunk(Box({0, 0}, {2, 3}), g.attrs);
  g.fill(&chunk);
  const std::vector<uint8_t> raw = SerializeChunk(chunk);
  EXPECT_EQ(Hex(raw), g.chunk_hex);
  EXPECT_EQ(Hex(Compress(CodecType::kLz, raw)), g.lz_hex);
  EXPECT_EQ(Hex(Compress(CodecType::kRle, raw)), g.rle_hex);
}

TEST_P(ChunkPayloadGoldenTest, PinnedPayloadsDecode) {
  const GoldenCase& g = GetParam();
  const std::vector<uint8_t> raw = Unhex(g.chunk_hex);
  for (const std::string* hex : {&g.lz_hex, &g.rle_hex}) {
    auto decoded = Decompress(Unhex(*hex));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), raw);
  }
  auto chunk = DeserializeChunk(raw, g.attrs);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  EXPECT_EQ(Hex(SerializeChunk(chunk.value())), g.chunk_hex);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ChunkPayloadGoldenTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace scidb
