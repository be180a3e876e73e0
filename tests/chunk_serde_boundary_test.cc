// Regression tests for the decode-path hardening the fuzz_chunk_serde
// harness drove (DESIGN.md §9): truncated headers, boxes whose cell
// count overflows int64 or dwarfs the payload, and nested-array size
// fields that used to reach resize()/reserve() unchecked. Every hostile
// input must come back as a Status — no crash, no UB, no huge
// allocation.

#include "storage/chunk_serde.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "array/chunk.h"
#include "common/byte_io.h"
#include "common/rng.h"

namespace scidb {
namespace {

std::vector<AttributeDesc> Int64Manifest() {
  return {{"v", DataType::kInt64, false}};
}

std::vector<uint8_t> ValidChunkBytes() {
  Box box;
  box.low = {0, 0};
  box.high = {2, 2};
  Chunk c(box, Int64Manifest());
  for (int64_t r = 0; r < 9; r += 2) {
    c.MarkPresent(r);
    c.block(0).Set(r, Value(int64_t{10 + r}));
  }
  return SerializeChunk(c);
}

TEST(ChunkSerdeBoundaryTest, EveryTruncatedPrefixIsRejected) {
  std::vector<uint8_t> bytes = ValidChunkBytes();
  ASSERT_TRUE(DeserializeChunk(bytes, Int64Manifest()).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<ptrdiff_t>(len));
    auto r = DeserializeChunk(prefix, Int64Manifest());
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " was accepted";
  }
}

TEST(ChunkSerdeBoundaryTest, BoxCellCountOverflowIsRejected) {
  // [small, huge] extents whose product overflows int64: before the
  // capacity guard this reached Box::CellCount()'s unchecked multiply
  // (signed-overflow UB) via the Chunk constructor.
  ByteWriter w;
  w.PutU32(0x53434448);
  w.PutVarint(4);
  for (int d = 0; d < 4; ++d) {
    w.PutSignedVarint(0);
    w.PutSignedVarint(int64_t{1} << 62);
  }
  w.PutVarint(1);  // nattrs
  auto r = DeserializeChunk(w.Release(), Int64Manifest());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(ChunkSerdeBoundaryTest, FullInt64RangeExtentIsRejected) {
  // extent = INT64_MAX - INT64_MIN + 1 wraps to zero in uint64; the
  // guard must catch the wrap rather than treat it as an empty box.
  ByteWriter w;
  w.PutU32(0x53434448);
  w.PutVarint(1);
  w.PutSignedVarint(std::numeric_limits<int64_t>::min());
  w.PutSignedVarint(std::numeric_limits<int64_t>::max());
  w.PutVarint(1);  // nattrs
  auto r = DeserializeChunk(w.Release(), Int64Manifest());
  ASSERT_FALSE(r.ok());
}

TEST(ChunkSerdeBoundaryTest, BoxLargerThanPayloadIsRejected) {
  // A box of 2^20 cells in a few dozen bytes: structurally plausible,
  // but the format stores at least one bitmap byte per cell, so the
  // payload bound rejects it before any allocation.
  ByteWriter w;
  w.PutU32(0x53434448);
  w.PutVarint(2);
  w.PutSignedVarint(0);
  w.PutSignedVarint(1023);
  w.PutSignedVarint(0);
  w.PutSignedVarint(1023);
  w.PutVarint(1);        // nattrs
  w.PutVarint(1 << 20);  // cells, matching the box
  auto r = DeserializeChunk(w.Release(), Int64Manifest());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(ChunkSerdeBoundaryTest, DeclaredCellCountMustMatchBox) {
  ByteWriter w;
  w.PutU32(0x53434448);
  w.PutVarint(1);
  w.PutSignedVarint(0);
  w.PutSignedVarint(3);  // capacity 4
  w.PutVarint(1);        // nattrs
  w.PutVarint(5);        // cells != capacity
  for (int i = 0; i < 8; ++i) w.PutU8(0);
  auto r = DeserializeChunk(w.Release(), Int64Manifest());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(ChunkSerdeBoundaryTest, NestedArrayRankAndSizeCheckedAgainstPayload) {
  std::vector<AttributeDesc> attrs{{"a", DataType::kArray, false}};
  for (uint64_t hostile : {uint64_t{1} << 60, uint64_t{1} << 32}) {
    ByteWriter w;
    w.PutU32(0x53434448);
    w.PutVarint(1);
    w.PutSignedVarint(0);
    w.PutSignedVarint(0);  // one cell
    w.PutVarint(1);        // nattrs
    w.PutVarint(1);        // cells
    w.PutU8(1);            // present
    w.PutU8(static_cast<uint8_t>(DataType::kArray));
    w.PutU8(0);            // not uncertain
    w.PutU8(0);            // not null
    w.PutVarint(hostile);  // nested rank: used to hit resize() unchecked
    auto r = DeserializeChunk(w.Release(), attrs);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
}

// ---- byte-plane columns (payload v2) ----

std::vector<AttributeDesc> PlaneManifest() {
  return {{"f", DataType::kFloat, true, false},
          {"d", DataType::kDouble, true, false},
          {"u", DataType::kDouble, true, true}};  // varying stderr
}

// Bit patterns the plane kernels must carry unchanged: NaN payloads
// (quiet and signalling), -0, denormals, infinities, then random bits.
uint64_t OddDoubleBits(Rng* rng, size_t i) {
  constexpr uint64_t kOdd[] = {0x7ff8000000000123, 0xfff0000000000001,
                               0x8000000000000000, 0x0000000000000001,
                               0x000fffffffffffff, 0x7ff0000000000000,
                               0xfff0000000000000, 0x3ff0000000000000};
  return i % 3 == 0 ? rng->Next() : kOdd[i % 8];
}

uint32_t OddFloatBits(Rng* rng, size_t i) {
  constexpr uint32_t kOdd[] = {0x7fc00123, 0xff800001, 0x80000000,
                               0x00000001, 0x007fffff, 0x7f800000,
                               0xff800000, 0x3f800000};
  return i % 3 == 0 ? static_cast<uint32_t>(rng->Next()) : kOdd[i % 8];
}

// A 1-D chunk of `cells` cells with `values` present cells (spread over
// the box when sparse), a NULL in every attribute at every fifth present
// cell when `nulls`, and odd bit patterns in every column.
Chunk PlaneChunk(int64_t cells, int64_t values, bool nulls, Rng* rng) {
  Chunk c(Box({0}, {cells - 1}), PlaneManifest());
  size_t i = 0;
  for (int64_t k = 0; k < values; ++k, ++i) {
    const int64_t r = values == cells ? k : k * cells / values;
    c.MarkPresent(r);
    for (size_t a = 0; a < 3; ++a) {
      AttributeBlock& b = c.block(a);
      const AttributeBlock::Columns col = b.mutable_columns();
      const size_t at = static_cast<size_t>(r);
      col.nulls[at] = nulls && (k + static_cast<int64_t>(a)) % 5 == 0;
      if (col.nulls[at]) continue;
      if (a == 0) col.f32[at] = std::bit_cast<float>(OddFloatBits(rng, i));
      if (a >= 1) col.f64[at] = std::bit_cast<double>(OddDoubleBits(rng, i));
      if (a == 2) {
        b.SetStderr(r, std::bit_cast<double>(OddDoubleBits(rng, i + 5)));
      }
    }
  }
  return c;
}

void ExpectSameBits(const Chunk& want, const Chunk& got) {
  ASSERT_EQ(got.box(), want.box());
  for (int64_t r = 0; r < want.cell_capacity(); ++r) {
    ASSERT_EQ(got.IsPresent(r), want.IsPresent(r)) << r;
    if (!want.IsPresent(r)) continue;
    const size_t i = static_cast<size_t>(r);
    for (size_t a = 0; a < 3; ++a) {
      const AttributeBlock& w = want.block(a);
      const AttributeBlock& g = got.block(a);
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << a << " @" << r;
      if (w.IsNull(r)) continue;
      if (a == 0) {
        EXPECT_EQ(std::bit_cast<uint32_t>(g.floats()[i]),
                  std::bit_cast<uint32_t>(w.floats()[i]))
            << r;
      } else {
        EXPECT_EQ(std::bit_cast<uint64_t>(g.doubles()[i]),
                  std::bit_cast<uint64_t>(w.doubles()[i]))
            << a << " @" << r;
      }
    }
    if (!want.block(2).IsNull(r)) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.block(2).GetStderr(r)),
                std::bit_cast<uint64_t>(want.block(2).GetStderr(r)))
          << r;
    }
  }
}

// Value counts around the 8-entry block (0-17, 63-65) and a full chunk,
// dense and sparse, with and without NULLs, round-trip bit-exactly.
TEST(ChunkSerdeBoundaryTest, PlaneColumnsRoundTripBitExactly) {
  Rng rng(TestSeed(27));
  std::vector<int64_t> counts;
  for (int64_t n = 0; n <= 17; ++n) counts.push_back(n);
  for (int64_t n : {63, 64, 65, 4096}) counts.push_back(n);
  for (int64_t n : counts) {
    for (bool sparse : {false, true}) {
      for (bool nulls : {false, true}) {
        const Chunk c =
            PlaneChunk(sparse ? 3 * n + 1 : std::max<int64_t>(n, 1), n,
                       nulls, &rng);
        const std::vector<uint8_t> raw = SerializeChunk(c);
        auto back = DeserializeChunk(raw, PlaneManifest());
        ASSERT_TRUE(back.ok()) << n << " " << back.status().ToString();
        ExpectSameBits(c, back.value());
        EXPECT_EQ(SerializeChunk(back.value()), raw) << n;
      }
    }
  }
}

// Every proper prefix of a v2 payload whose columns end in a partial
// 8-entry block is Corruption.
TEST(ChunkSerdeBoundaryTest, EveryPrefixOfAPlanePayloadIsCorruption) {
  Rng rng(TestSeed(28));
  const std::vector<uint8_t> bytes =
      SerializeChunk(PlaneChunk(40, 13, true, &rng));
  ASSERT_EQ(bytes[0], 0x50);  // "SCDP", little-endian
  ASSERT_TRUE(DeserializeChunk(bytes, PlaneManifest()).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(len));
    auto r = DeserializeChunk(prefix, PlaneManifest());
    ASSERT_FALSE(r.ok()) << "prefix of length " << len << " was accepted";
    EXPECT_TRUE(r.status().IsCorruption()) << len << r.status().ToString();
  }
}

}  // namespace
}  // namespace scidb
