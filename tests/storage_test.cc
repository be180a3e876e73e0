#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "array/schema_serde.h"
#include "common/byte_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "storage/background_merger.h"
#include "storage/chunk_serde.h"
#include "storage/codec.h"
#include "storage/rtree.h"
#include "storage/storage_manager.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir = (fs::temp_directory_path() /
                     ("scidb_test_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------- codecs

class CodecTest : public ::testing::TestWithParam<CodecType> {};

TEST_P(CodecTest, RoundTripVariousPayloads) {
  Rng rng(TestSeed(5));
  std::vector<std::vector<uint8_t>> payloads;
  payloads.push_back({});                         // empty
  payloads.push_back({42});                       // single byte
  payloads.push_back(std::vector<uint8_t>(10000, 7));  // constant
  std::vector<uint8_t> random(5000);
  for (auto& b : random) b = static_cast<uint8_t>(rng.Next());
  payloads.push_back(random);                     // incompressible
  std::vector<uint8_t> repetitive;
  for (int i = 0; i < 500; ++i) {
    for (uint8_t b : {1, 2, 3, 4, 5, 6, 7, 8}) repetitive.push_back(b);
  }
  payloads.push_back(repetitive);                 // periodic

  for (const auto& in : payloads) {
    auto encoded = Compress(GetParam(), in);
    auto decoded = Decompress(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), in);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest,
                         ::testing::Values(CodecType::kNone, CodecType::kRle,
                                           CodecType::kLz),
                         [](const auto& info) {
                           return CodecTypeName(info.param);
                         });

TEST(CodecCompressionTest, RleShrinksConstantData) {
  std::vector<uint8_t> in(100000, 0);
  EXPECT_LT(Compress(CodecType::kRle, in).size(), 100u);
}

TEST(CodecCompressionTest, LzShrinksRepetitiveData) {
  std::vector<uint8_t> in;
  for (int i = 0; i < 2000; ++i) {
    const char* s = "sensor-reading:";
    in.insert(in.end(), s, s + 15);
    in.push_back(static_cast<uint8_t>(i & 0xF));
  }
  auto out = Compress(CodecType::kLz, in);
  EXPECT_LT(out.size(), in.size() / 3);
}

TEST(CodecCompressionTest, DecompressRejectsGarbage) {
  std::vector<uint8_t> junk = {99, 1, 2, 3};
  EXPECT_TRUE(Decompress(junk).status().IsCorruption());
  std::vector<uint8_t> truncated_lz = {2, 1, 200};  // match beyond output
  EXPECT_FALSE(Decompress(truncated_lz).ok());
}

// Tiny hostile payloads that ask for a huge output must be refused
// before the output grows: each once made the decoder allocate gigabytes.
TEST(CodecCompressionTest, HugeLzLiteralIsCorruption) {
  // A literal token claiming 2^55 bytes, followed by none of them.
  const std::vector<uint8_t> in = {2,    0,    0x80, 0x80, 0x80,
                                   0x80, 0x80, 0x80, 0x80, 0x40};
  EXPECT_TRUE(Decompress(in).status().IsCorruption());
  EXPECT_TRUE(Decompress(in, 1 << 20).status().IsCorruption());
}

TEST(CodecCompressionTest, HugeLzMatchIsCorruption) {
  // One literal byte, then a match of 2^31 bytes at distance 1.
  const std::vector<uint8_t> in = {2,    0,    1,    'A',  1,   1,
                                   0x80, 0x80, 0x80, 0x80, 0x08};
  EXPECT_TRUE(Decompress(in).status().IsCorruption());
  EXPECT_TRUE(Decompress(in, 1 << 20).status().IsCorruption());
}

TEST(CodecCompressionTest, HugeRleRunIsCorruption) {
  // One run of 2^32 copies of 0x55.
  const std::vector<uint8_t> in = {1, 0xFF, 0x80, 0x80, 0x80, 0x80, 0x10,
                                   0x55};
  EXPECT_TRUE(Decompress(in).status().IsCorruption());
  EXPECT_TRUE(Decompress(in, 1 << 20).status().IsCorruption());
}

TEST(CodecCompressionTest, DecompressHonorsTheCap) {
  const std::vector<uint8_t> in(1000, 7);
  for (CodecType c : {CodecType::kNone, CodecType::kRle, CodecType::kLz}) {
    const std::vector<uint8_t> packed = Compress(c, in);
    auto exact = Decompress(packed, in.size());
    ASSERT_TRUE(exact.ok()) << CodecTypeName(c);
    EXPECT_EQ(exact.value(), in);
    EXPECT_TRUE(Decompress(packed, in.size() - 1).status().IsCorruption())
        << CodecTypeName(c);
  }
}

// A stored bucket decodes under the bound its box and attributes give.
TEST(CodecCompressionTest, SerializedChunkFitsItsBound) {
  const std::vector<AttributeDesc> attrs = {
      {"n", DataType::kInt64, true, false},
      {"u", DataType::kDouble, true, true}};
  const Box box({-5, 0}, {4, 9});
  Chunk chunk(box, attrs);
  Rng rng(TestSeed(9));
  for (int64_t i = -5; i <= 4; ++i) {
    for (int64_t j = 0; j <= 9; ++j) {
      // Full-range int64s make most deltas ten-byte varints.
      chunk.SetCell({i, j}, {Value(static_cast<int64_t>(rng.Next())),
                             Value(Uncertain(1.0, rng.NextDouble()))});
    }
  }
  const std::vector<uint8_t> raw = SerializeChunk(chunk);
  const size_t bound = MaxSerializedChunkBytes(box, attrs);
  EXPECT_LE(raw.size(), bound);
  EXPECT_LT(bound, kMaxDecodedBytes);
  EXPECT_TRUE(Decompress(Compress(CodecType::kLz, raw), bound).ok());
  EXPECT_EQ(MaxSerializedChunkBytes(box, {{"s", DataType::kString}}),
            kMaxDecodedBytes);
}

// ------------------------------------------------------------- serde

TEST(ChunkSerdeTest, RoundTripDense) {
  std::vector<AttributeDesc> attrs = {
      {"v", DataType::kDouble, true, false},
      {"n", DataType::kInt64, true, false}};
  Chunk chunk(Box({1, 1}, {8, 8}), attrs);
  for (int64_t i = 1; i <= 8; ++i) {
    for (int64_t j = 1; j <= 8; ++j) {
      chunk.SetCell({i, j}, {Value(i * 0.5), Value(i * 100 + j)});
    }
  }
  Chunk back =
      DeserializeChunk(SerializeChunk(chunk), attrs).ValueOrDie();
  EXPECT_EQ(back.box(), chunk.box());
  EXPECT_EQ(back.present_count(), 64);
  EXPECT_EQ(back.GetCell({3, 4})[0].double_value(), 1.5);
  EXPECT_EQ(back.GetCell({3, 4})[1].int64_value(), 304);
}

TEST(ChunkSerdeTest, RoundTripSparseWithNulls) {
  std::vector<AttributeDesc> attrs = {
      {"s", DataType::kString, true, false},
      {"v", DataType::kDouble, true, false}};
  Chunk chunk(Box({1}, {100}), attrs);
  chunk.SetCell({7}, {Value(std::string("seven")), Value::Null()});
  chunk.SetCell({50}, {Value(std::string("")), Value(2.5)});
  Chunk back =
      DeserializeChunk(SerializeChunk(chunk), attrs).ValueOrDie();
  EXPECT_EQ(back.present_count(), 2);
  EXPECT_EQ(back.GetCell({7})[0].string_value(), "seven");
  EXPECT_TRUE(back.GetCell({7})[1].is_null());
  EXPECT_EQ(back.GetCell({50})[1].double_value(), 2.5);
  EXPECT_FALSE(back.IsPresentAt({8}));
}

TEST(ChunkSerdeTest, RoundTripUncertainConstStderr) {
  std::vector<AttributeDesc> attrs = {{"u", DataType::kDouble, true, true}};
  Chunk chunk(Box({1}, {50}), attrs);
  for (int64_t i = 1; i <= 50; ++i) {
    chunk.SetCell({i}, {Value(Uncertain(static_cast<double>(i), 0.25))});
  }
  auto bytes = SerializeChunk(chunk);
  Chunk back = DeserializeChunk(bytes, attrs).ValueOrDie();
  EXPECT_TRUE(back.block(0).has_constant_stderr());
  EXPECT_EQ(back.GetCell({9})[0].uncertain_value().stderr_, 0.25);
  EXPECT_EQ(back.GetCell({9})[0].uncertain_value().mean, 9.0);

  // Varying error bars survive too (and cost more space).
  Chunk chunk2(Box({1}, {50}), attrs);
  for (int64_t i = 1; i <= 50; ++i) {
    chunk2.SetCell({i}, {Value(Uncertain(1.0, 0.1 * static_cast<double>(i)))});
  }
  auto bytes2 = SerializeChunk(chunk2);
  EXPECT_GT(bytes2.size(), bytes.size());
  Chunk back2 = DeserializeChunk(bytes2, attrs).ValueOrDie();
  EXPECT_FALSE(back2.block(0).has_constant_stderr());
  EXPECT_DOUBLE_EQ(back2.GetCell({3})[0].uncertain_value().stderr_, 0.3);
}

TEST(ChunkSerdeTest, RoundTripNestedArrays) {
  std::vector<AttributeDesc> attrs = {{"hits", DataType::kArray, true,
                                       false}};
  Chunk chunk(Box({1}, {4}), attrs);
  auto nested = std::make_shared<NestedArray>();
  nested->shape = {2};
  nested->values = {Value(7.0), Value(9.0)};
  chunk.SetCell({2}, {Value(nested)});
  Chunk back = DeserializeChunk(SerializeChunk(chunk), attrs).ValueOrDie();
  auto v = back.GetCell({2})[0];
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.array_value()->shape, (std::vector<int64_t>{2}));
  EXPECT_EQ(v.array_value()->values[1].double_value(), 9.0);
}

// An uncertain int64 keeps its exact value, which its double mean cannot
// always hold, through the serde and through a stored array's read.
TEST(ChunkSerdeTest, UncertainInt64RoundTripsExactly) {
  const std::vector<AttributeDesc> attrs = {
      {"u", DataType::kInt64, true, true}};
  const std::vector<int64_t> want = {std::numeric_limits<int64_t>::max(),
                                     std::numeric_limits<int64_t>::min(),
                                     (int64_t{1} << 53) + 1, -7};
  const ArraySchema schema("ui", {{"I", 1, 4, 4}}, attrs);
  MemArray mem(schema);
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(mem.SetCell({i}, Value(want[static_cast<size_t>(i - 1)]))
                    .ok());
    mem.GetOrCreateChunk({1})->block(0).SetStderr(i - 1, 0.5 * i);
  }
  const Chunk& chunk = *mem.FindChunk({1});
  const std::vector<uint8_t> raw = SerializeChunk(chunk);
  Chunk back = DeserializeChunk(raw, attrs).ValueOrDie();
  EXPECT_EQ(back.block(0).int64s(), want);
  EXPECT_EQ(SerializeChunk(back), raw);

  std::string dir = TempDir("uncertain_int64");
  StorageManager sm(dir);
  DiskArray* arr = sm.CreateArray(schema).ValueOrDie();
  ASSERT_TRUE(arr->WriteAll(mem).ok());
  MemArray read = arr->ReadAll().ValueOrDie();
  const Chunk* got = read.FindChunk({1});
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->block(0).int64s(), want);
  EXPECT_EQ(SerializeChunk(*got), raw);
  fs::remove_all(dir);
}

TEST(ChunkSerdeTest, CorruptInputRejected) {
  std::vector<AttributeDesc> attrs = {{"v", DataType::kDouble, true, false}};
  Chunk chunk(Box({1}, {4}), attrs);
  chunk.SetCell({1}, {Value(1.0)});
  auto bytes = SerializeChunk(chunk);
  // Flip the magic.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_TRUE(DeserializeChunk(bad, attrs).status().IsCorruption());
  // Truncate.
  auto trunc = bytes;
  trunc.resize(trunc.size() / 2);
  EXPECT_FALSE(DeserializeChunk(trunc, attrs).ok());
  // Wrong attribute manifest.
  std::vector<AttributeDesc> wrong = {{"v", DataType::kInt64, true, false}};
  EXPECT_TRUE(DeserializeChunk(bytes, wrong).status().IsCorruption());
}

// ------------------------------------------------------------- R-tree

TEST(RTreeTest, InsertAndSearch) {
  RTree<int> tree;
  for (int i = 0; i < 100; ++i) {
    int64_t x = (i % 10) * 10 + 1;
    int64_t y = (i / 10) * 10 + 1;
    tree.Insert(Box({x, y}, {x + 9, y + 9}), i);
  }
  EXPECT_EQ(tree.size(), 100u);
  // Point query hits exactly one tile.
  auto hits = tree.Search(Box({15, 25}, {15, 25}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 21);  // col 1, row 2
  // Region query covering 4 tiles.
  auto four = tree.Search(Box({9, 9}, {12, 12}));
  EXPECT_EQ(four.size(), 4u);
  // Disjoint query.
  EXPECT_TRUE(tree.Search(Box({200, 200}, {300, 300})).empty());
}

TEST(RTreeTest, SearchMatchesBruteForce) {
  Rng rng(TestSeed(3));
  RTree<int> tree;
  std::vector<Box> boxes;
  for (int i = 0; i < 500; ++i) {
    int64_t x = rng.UniformInt(0, 1000);
    int64_t y = rng.UniformInt(0, 1000);
    Box b({x, y}, {x + rng.UniformInt(0, 50), y + rng.UniformInt(0, 50)});
    boxes.push_back(b);
    tree.Insert(b, i);
  }
  for (int q = 0; q < 50; ++q) {
    int64_t x = rng.UniformInt(0, 1000);
    int64_t y = rng.UniformInt(0, 1000);
    Box query({x, y}, {x + 100, y + 100});
    auto got = tree.Search(query);
    std::sort(got.begin(), got.end());
    std::vector<int> want;
    for (int i = 0; i < 500; ++i) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "query " << query.ToString();
  }
}

TEST(RTreeTest, RemoveAndForEach) {
  RTree<int> tree;
  for (int i = 0; i < 50; ++i) {
    tree.Insert(Box({static_cast<int64_t>(i)}, {static_cast<int64_t>(i)}), i);
  }
  EXPECT_TRUE(tree.Remove(Box({25}, {25}), 25));
  EXPECT_FALSE(tree.Remove(Box({25}, {25}), 25));  // already gone
  EXPECT_EQ(tree.size(), 49u);
  EXPECT_TRUE(tree.Search(Box({25}, {25})).empty());
  int count = 0;
  tree.ForEach([&](const Box&, int) { ++count; });
  EXPECT_EQ(count, 49);
}

// -------------------------------------------------------- storage manager

ArraySchema SmallSchema(const std::string& name = "arr") {
  return ArraySchema(name, {{"I", 1, 100, 10}, {"J", 1, 100, 10}},
                     {{"v", DataType::kDouble, true, false}});
}

TEST(StorageManagerTest, WriteReadRoundTrip) {
  std::string dir = TempDir("rw");
  StorageManager sm(dir);
  DiskArray* arr = sm.CreateArray(SmallSchema()).ValueOrDie();

  MemArray mem(SmallSchema());
  for (int64_t i = 1; i <= 100; i += 3) {
    ASSERT_TRUE(mem.SetCell({i, i}, Value(static_cast<double>(i))).ok());
  }
  ASSERT_TRUE(arr->WriteAll(mem).ok());

  MemArray back = arr->ReadAll().ValueOrDie();
  EXPECT_EQ(back.CellCount(), mem.CellCount());
  EXPECT_EQ((*back.GetCell({4, 4}))[0].double_value(), 4.0);

  // Region read touches only intersecting buckets.
  MemArray region = arr->ReadRegion(Box({1, 1}, {10, 10})).ValueOrDie();
  EXPECT_EQ(region.CellCount(), 4);  // cells 1,4,7,10
  fs::remove_all(dir);
}

TEST(StorageManagerTest, ReadCell) {
  std::string dir = TempDir("cell");
  StorageManager sm(dir);
  DiskArray* arr = sm.CreateArray(SmallSchema()).ValueOrDie();
  MemArray mem(SmallSchema());
  ASSERT_TRUE(mem.SetCell({42, 17}, Value(3.5)).ok());
  ASSERT_TRUE(arr->WriteAll(mem).ok());
  auto hit = arr->ReadCell({42, 17}).ValueOrDie();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].double_value(), 3.5);
  EXPECT_FALSE(arr->ReadCell({42, 18}).ValueOrDie().has_value());
  fs::remove_all(dir);
}

// Five one-cell rewrites of {5,5}: every bucket holds the cell, and the
// newest one wins, for the point read as for region reads.
TEST(StorageManagerTest, ReadCellIsLastWriterWins) {
  std::string dir = TempDir("cell_rewrites");
  StorageManager sm(dir);
  DiskArray* arr = sm.CreateArray(SmallSchema()).ValueOrDie();
  for (int v = 1; v <= 5; ++v) {
    MemArray mem(SmallSchema());
    ASSERT_TRUE(mem.SetCell({5, 5}, Value(static_cast<double>(v))).ok());
    ASSERT_TRUE(arr->WriteAll(mem).ok());
  }
  ASSERT_EQ(arr->bucket_count(), 5u);
  auto cell = arr->ReadCell({5, 5}).ValueOrDie();
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ((*cell)[0].double_value(), 5.0);
  MemArray region = arr->ReadRegion(Box({5, 5}, {5, 5})).ValueOrDie();
  EXPECT_EQ((*region.GetCell({5, 5}))[0].double_value(), 5.0);
  fs::remove_all(dir);
}

TEST(StorageManagerTest, PersistsAcrossReopen) {
  std::string dir = TempDir("reopen");
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.CreateArray(SmallSchema("persist")).ValueOrDie();
    MemArray mem(SmallSchema("persist"));
    ASSERT_TRUE(mem.SetCell({5, 5}, Value(55.0)).ok());
    ASSERT_TRUE(arr->WriteAll(mem).ok());
    ASSERT_TRUE(arr->Flush().ok());
  }
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.OpenArray("persist").ValueOrDie();
    EXPECT_EQ(arr->schema().name(), "persist");
    EXPECT_EQ(arr->schema().ndims(), 2u);
    auto cell = arr->ReadCell({5, 5}).ValueOrDie();
    ASSERT_TRUE(cell.has_value());
    EXPECT_EQ((*cell)[0].double_value(), 55.0);
    auto names = sm.ArrayNames();
    EXPECT_EQ(names, (std::vector<std::string>{"persist"}));
  }
  fs::remove_all(dir);
}

TEST(StorageManagerTest, CreateOpenDropSemantics) {
  std::string dir = TempDir("cod");
  StorageManager sm(dir);
  ASSERT_TRUE(sm.CreateArray(SmallSchema("a")).ok());
  EXPECT_TRUE(sm.CreateArray(SmallSchema("a")).status().IsAlreadyExists());
  EXPECT_TRUE(sm.OpenArray("missing").status().IsNotFound());
  EXPECT_TRUE(sm.DropArray("a").ok());
  EXPECT_TRUE(sm.DropArray("a").IsNotFound());
  // OpenOrCreate creates, then opens.
  ASSERT_TRUE(sm.OpenOrCreateArray(SmallSchema("b")).ok());
  ASSERT_TRUE(sm.OpenOrCreateArray(SmallSchema("b")).ok());
  fs::remove_all(dir);
}

// A failed CreateArray over an array on disk must leave that array as it
// was, not flush an empty manifest over it.
TEST(StorageManagerTest, CreateOverArrayOnDiskKeepsIt) {
  std::string dir = TempDir("create_over");
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.CreateArray(SmallSchema("kept")).ValueOrDie();
    MemArray mem(SmallSchema("kept"));
    ASSERT_TRUE(mem.SetCell({5, 5}, Value(55.0)).ok());
    ASSERT_TRUE(arr->WriteAll(mem).ok());
  }
  StorageManager sm(dir);
  EXPECT_TRUE(
      sm.CreateArray(SmallSchema("kept")).status().IsAlreadyExists());
  DiskArray* arr = sm.OpenArray("kept").ValueOrDie();
  EXPECT_EQ(arr->bucket_count(), 1u);
  EXPECT_TRUE(arr->ReadCell({5, 5}).ValueOrDie().has_value());
  fs::remove_all(dir);
}

TEST(StorageManagerTest, CodecsProduceSameDataDifferentSizes) {
  std::string dir = TempDir("codec");
  StorageManager sm(dir);
  // Constant int64 payload: after delta coding the value stream is all
  // zero, so RLE and LZ should both crush it.
  int64_t sizes[3];
  int k = 0;
  for (CodecType c : {CodecType::kNone, CodecType::kRle, CodecType::kLz}) {
    std::string name = std::string("arr_") + CodecTypeName(c);
    ArraySchema s(name, {{"I", 1, 100, 10}, {"J", 1, 100, 10}},
                  {{"n", DataType::kInt64, true, false}});
    DiskArray* arr = sm.CreateArray(s, c).ValueOrDie();
    MemArray copy(s);
    for (int64_t i = 1; i <= 100; ++i) {
      for (int64_t j = 1; j <= 100; ++j) {
        ASSERT_TRUE(copy.SetCell({i, j}, Value(int64_t{7})).ok());
      }
    }
    ASSERT_TRUE(arr->WriteAll(copy).ok());
    sizes[k++] = arr->stats().bytes_written;
    EXPECT_EQ(arr->ReadAll().ValueOrDie().CellCount(), 10000);
  }
  EXPECT_LT(sizes[1], sizes[0] / 10);  // RLE crushes constant data
  EXPECT_LT(sizes[2], sizes[0] / 3);   // LZ helps too
  fs::remove_all(dir);
}

TEST(StorageManagerTest, MergeSmallBucketsCombines) {
  std::string dir = TempDir("merge");
  StorageManager sm(dir);
  ArraySchema s("m", {{"T", 1, 1000, 10}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  // 20 tiny adjacent buckets along T.
  MemArray mem(s);
  for (int64_t t = 1; t <= 200; ++t) {
    ASSERT_TRUE(mem.SetCell({t}, Value(static_cast<double>(t))).ok());
  }
  ASSERT_TRUE(arr->WriteAll(mem).ok());
  EXPECT_EQ(arr->bucket_count(), 20u);

  int merges = arr->MergeSmallBuckets(1 << 20).ValueOrDie();
  EXPECT_GT(merges, 0);
  EXPECT_LT(arr->bucket_count(), 20u);
  // Data unchanged after merging.
  MemArray back = arr->ReadAll().ValueOrDie();
  EXPECT_EQ(back.CellCount(), 200);
  EXPECT_EQ((*back.GetCell({137}))[0].double_value(), 137.0);
  fs::remove_all(dir);
}

TEST(StorageManagerTest, MergeKeepsNewerBucketsCellsVisible) {
  // Bucket 2 overwrites bucket 1's box; bucket 3 sits next to it. Merging
  // 1 with 3 writes the newest bucket, which must not carry bucket 1's
  // stale cells over bucket 2's.
  std::string dir = TempDir("merge_shadow");
  StorageManager sm(dir);
  ArraySchema s("shadow", {{"x", 1, 8, 4}, {"y", 1, 4, 4}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  auto box_of = [&s](int64_t x0, double v) {
    MemArray mem(s);
    for (int64_t x = x0; x < x0 + 4; ++x) {
      for (int64_t y = 1; y <= 4; ++y) {
        SCIDB_CHECK(mem.SetCell({x, y}, Value(v)).ok());
      }
    }
    return mem;
  };
  ASSERT_TRUE(arr->WriteAll(box_of(1, 1.0)).ok());
  ASSERT_TRUE(arr->WriteAll(box_of(1, 2.0)).ok());
  ASSERT_TRUE(arr->WriteAll(box_of(5, 3.0)).ok());
  ASSERT_EQ((*arr->ReadCell({1, 1}).ValueOrDie())[0].double_value(), 2.0);

  EXPECT_EQ(arr->MergeSmallBuckets(1 << 20).ValueOrDie(), 1);
  EXPECT_EQ((*arr->ReadCell({1, 1}).ValueOrDie())[0].double_value(), 2.0);
  EXPECT_EQ((*arr->ReadCell({5, 1}).ValueOrDie())[0].double_value(), 3.0);
  MemArray back = arr->ReadAll().ValueOrDie();
  EXPECT_EQ(back.CellCount(), 32);
  back.ForEachCell([](const Coordinates& c, const Chunk& chunk, int64_t r) {
    EXPECT_EQ(chunk.block(0).GetDouble(r), c[0] <= 4 ? 2.0 : 3.0)
        << CoordsToString(c);
    return true;
  });
  fs::remove_all(dir);
}

TEST(StorageManagerTest, StreamLoaderFlushesOnMemoryPressure) {
  std::string dir = TempDir("loader");
  StorageManager sm(dir);
  ArraySchema s("stream", {{"T", 1, kUnboundedDim, 100}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  StreamLoader loader(arr, /*memory_budget=*/8 * 1024);
  for (int64_t t = 1; t <= 5000; ++t) {
    ASSERT_TRUE(loader.Append({t}, {Value(static_cast<double>(t % 97))}).ok());
  }
  ASSERT_TRUE(loader.Finish().ok());
  EXPECT_GT(loader.flushes(), 1);  // memory pressure forced spills
  EXPECT_TRUE(loader.Append({1}, {Value(0.0)}).IsInvalid());  // finished

  MemArray back = arr->ReadAll().ValueOrDie();
  EXPECT_EQ(back.CellCount(), 5000);
  EXPECT_EQ((*back.GetCell({4999}))[0].double_value(),
            static_cast<double>(4999 % 97));
  fs::remove_all(dir);
}

TEST(StorageManagerTest, BackgroundMergerRuns) {
  std::string dir = TempDir("bgm");
  StorageManager sm(dir);
  ArraySchema s("bg", {{"T", 1, 1000, 10}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  MemArray mem(s);
  for (int64_t t = 1; t <= 100; ++t) {
    ASSERT_TRUE(mem.SetCell({t}, Value(1.0)).ok());
  }
  ASSERT_TRUE(arr->WriteAll(mem).ok());
  size_t before = arr->bucket_count();

  BackgroundMerger merger(arr, /*small_bytes=*/1 << 20,
                          std::chrono::milliseconds(5));
  merger.Start();
  // Wait for at least one pass.
  for (int i = 0; i < 200 && merger.total_merges() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  merger.Stop();
  EXPECT_GT(merger.total_merges(), 0);
  EXPECT_LT(arr->bucket_count(), before);
  int64_t count =
      merger.WithLock([](DiskArray* a) {
        return a->ReadAll().ValueOrDie().CellCount();
      });
  EXPECT_EQ(count, 100);
  fs::remove_all(dir);
}

// ------------------------------------------- stored-scan assembly
//
// ReadAll and ReadRegion assemble the output with typed block copies,
// one destination grid chunk per bucket intersection. The reference is
// the cell-at-a-time scatter they replaced: MemArray::SetCell of each
// written cell, in write order (last writer wins per cell).

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_uncertain() || b.is_uncertain()) {
    return a.is_uncertain() && b.is_uncertain() &&
           a.uncertain_value().mean == b.uncertain_value().mean &&
           a.uncertain_value().stderr_ == b.uncertain_value().stderr_;
  }
  if (a.is_int64() || b.is_int64()) {
    return a.is_int64() && b.is_int64() && a.int64_value() == b.int64_value();
  }
  if (a.is_string() || b.is_string()) {
    return a.is_string() && b.is_string() &&
           a.string_value() == b.string_value();
  }
  if (a.is_array() || b.is_array()) {
    if (!a.is_array() || !b.is_array() ||
        a.array_value()->shape != b.array_value()->shape ||
        a.array_value()->values.size() != b.array_value()->values.size()) {
      return false;
    }
    for (size_t k = 0; k < a.array_value()->values.size(); ++k) {
      if (!SameValue(a.array_value()->values[k], b.array_value()->values[k])) {
        return false;
      }
    }
    return true;
  }
  return a.is_double() && b.is_double() &&
         a.double_value() == b.double_value();
}

void ExpectSameCells(const MemArray& want, const MemArray& got,
                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(want.ChunkCount(), got.ChunkCount());
  auto w = want.chunks().begin();
  for (auto g = got.chunks().begin(); g != got.chunks().end(); ++g, ++w) {
    ASSERT_EQ(w->first, g->first) << "chunk-map keys differ";
    const Chunk& cw = *w->second;
    const Chunk& cg = *g->second;
    ASSERT_EQ(cw.box(), cg.box());
    ASSERT_EQ(cw.present_count(), cg.present_count());
    for (int64_t rank = 0; rank < cw.cell_capacity(); ++rank) {
      ASSERT_EQ(cw.IsPresent(rank), cg.IsPresent(rank)) << "rank " << rank;
      if (!cw.IsPresent(rank)) continue;
      for (size_t at = 0; at < cw.nattrs(); ++at) {
        EXPECT_EQ(cw.block(at).IsNull(rank), cg.block(at).IsNull(rank));
        EXPECT_TRUE(SameValue(cw.block(at).Get(rank), cg.block(at).Get(rank)))
            << "rank " << rank << " attr " << at << ": "
            << cw.block(at).Get(rank).ToString() << " vs "
            << cg.block(at).Get(rank).ToString();
      }
    }
  }
}

// int64, string, uncertain double and plain double; 4 x 5 chunks.
ArraySchema MixedStoredSchema(const std::string& name) {
  return ArraySchema(name, {{"I", 1, 18, 4}, {"J", 1, 17, 5}},
                     {{"n", DataType::kInt64, true, false},
                      {"s", DataType::kString, true, false},
                      {"u", DataType::kDouble, true, true},
                      {"d", DataType::kDouble, true, false}});
}

// int64 and double only, the schema whose scans copy whole chunks.
ArraySchema NumericStoredSchema(const std::string& name) {
  return ArraySchema(name, {{"I", 1, 18, 4}, {"J", 1, 17, 5}},
                     {{"n", DataType::kInt64, true, false},
                      {"d", DataType::kDouble, true, false}});
}

// Every cell of the array with probability `keep_pct`, values drawn from
// `rng` (about one attribute in ten NULL).
MemArray MixedStoredCells(const ArraySchema& schema, Rng* rng, int keep_pct) {
  MemArray a(schema);
  for (int64_t i = 1; i <= 18; ++i) {
    for (int64_t j = 1; j <= 17; ++j) {
      if (static_cast<int>(rng->Uniform(100)) >= keep_pct) continue;
      auto maybe = [&](Value v) {
        return rng->Uniform(10) == 0 ? Value::Null() : std::move(v);
      };
      const double x = static_cast<double>(rng->UniformInt(-1000, 1000)) / 8;
      std::vector<Value> cell;
      for (const AttributeDesc& attr : schema.attrs()) {
        if (attr.type == DataType::kInt64) {
          cell.push_back(maybe(Value(
              rng->UniformInt(-(int64_t{1} << 40), int64_t{1} << 40))));
        } else if (attr.type == DataType::kString) {
          cell.push_back(maybe(Value(
              std::string("s").append(std::to_string(rng->Uniform(50))))));
        } else if (attr.uncertain) {
          cell.push_back(
              maybe(Value(Uncertain(x, rng->Uniform(3) == 0 ? 0.5 : 0.125))));
        } else {
          cell.push_back(maybe(Value(x * 3)));
        }
      }
      EXPECT_TRUE(a.SetCell({i, j}, cell).ok());
    }
  }
  return a;
}

// Both schemas, named `name` with a suffix.
std::vector<ArraySchema> StoredSchemas(const std::string& name) {
  return {MixedStoredSchema(name + "_mixed"),
          NumericStoredSchema(name + "_numeric")};
}

// The reference: `layers` scattered cell by cell, later layers winning.
MemArray Overlay(const ArraySchema& schema,
                 const std::vector<const MemArray*>& layers,
                 const Box* region = nullptr) {
  MemArray out(schema);
  for (const MemArray* layer : layers) {
    layer->ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                           int64_t rank) {
      if (region != nullptr && !region->Contains(c)) return true;
      std::vector<Value> cell;
      for (size_t at = 0; at < chunk.nattrs(); ++at) {
        cell.push_back(chunk.block(at).Get(rank));
      }
      EXPECT_TRUE(out.SetCell(c, cell).ok());
      return true;
    });
  }
  return out;
}

// Regions aligned to nothing: inside one chunk, across chunk corners,
// and the whole array.
std::vector<Box> TestRegions() {
  return {Box({2, 3}, {3, 4}), Box({3, 4}, {11, 12}), Box({1, 1}, {18, 17}),
          Box({7, 1}, {9, 17})};
}

void ExpectReadsMatch(const DiskArray& arr, const ArraySchema& schema,
                      const std::vector<const MemArray*>& layers,
                      const std::string& label) {
  ThreadPool pool(2);
  ExpectSameCells(Overlay(schema, layers), arr.ReadAll().ValueOrDie(),
                  label + "/ReadAll");
  ExpectSameCells(Overlay(schema, layers), arr.ReadAll(&pool).ValueOrDie(),
                  label + "/ReadAll(pool)");
  for (const Box& region : TestRegions()) {
    ExpectSameCells(Overlay(schema, layers, &region),
                    arr.ReadRegion(region).ValueOrDie(),
                    label + "/ReadRegion " + region.ToString());
  }
}

TEST(StoredScanTest, PartialOverwriteIsLastWriterWinsPerCell) {
  std::string dir = TempDir("scan_overwrite");
  {
    StorageManager sm(dir);
    for (const ArraySchema& schema : StoredSchemas("overwrite")) {
      DiskArray* arr = sm.CreateArray(schema).ValueOrDie();
      Rng rng(TestSeed(71));
      const MemArray first = MixedStoredCells(schema, &rng, 90);
      // A partial, overlapping subset with new values.
      const MemArray second = MixedStoredCells(schema, &rng, 35);
      ASSERT_TRUE(arr->WriteAll(first).ok());
      ASSERT_TRUE(arr->WriteAll(second).ok());
      ExpectReadsMatch(*arr, schema, {&first, &second}, schema.name());
    }
  }
  fs::remove_all(dir);
}

TEST(StoredScanTest, MergedBucketsCrossingGridChunks) {
  std::string dir = TempDir("scan_merged");
  {
    StorageManager sm(dir);
    for (const ArraySchema& schema : StoredSchemas("merged")) {
      DiskArray* arr = sm.CreateArray(schema).ValueOrDie();
      Rng rng(TestSeed(73));
      const MemArray cells = MixedStoredCells(schema, &rng, 60);
      ASSERT_TRUE(arr->WriteAll(cells).ok());
      // Every bucket is one grid chunk, so each merge makes a bucket that
      // crosses a grid-chunk boundary.
      const size_t before = arr->bucket_count();
      ASSERT_GT(arr->MergeSmallBuckets(1 << 20).ValueOrDie(), 0);
      ASSERT_LT(arr->bucket_count(), before);
      ExpectReadsMatch(*arr, schema, {&cells}, schema.name());
    }
  }
  fs::remove_all(dir);
}

// Every bucket read shares one read-only descriptor of the data file.
// A compaction renames a new file over it; reads after it, and appends
// after those, must see the new file.
TEST(StoredScanTest, ReadsAfterCompactionSeeTheNewFile) {
  std::string dir = TempDir("scan_compact");
  {
    StorageManager sm(dir);
    ArraySchema s("c", {{"T", 1, 1000, 10}},
                  {{"v", DataType::kDouble, true, false}});
    DiskArray* arr = sm.CreateArray(s).ValueOrDie();
    MemArray first(s);
    for (int64_t t = 1; t <= 200; ++t) {
      ASSERT_TRUE(first.SetCell({t}, Value(static_cast<double>(t))).ok());
    }
    ASSERT_TRUE(arr->WriteAll(first).ok());
    const uint64_t before = fs::file_size(dir + "/c.data");
    ASSERT_GT(arr->MergeSmallBuckets(1 << 20).ValueOrDie(), 0);
    // Compacted: the file now holds only the live buckets, at new offsets.
    ASSERT_LT(fs::file_size(dir + "/c.data"), before);
    ASSERT_EQ(static_cast<int64_t>(fs::file_size(dir + "/c.data")),
              arr->LiveBytes());
    ThreadPool pool(4);
    ExpectSameCells(Overlay(s, {&first}), arr->ReadAll().ValueOrDie(),
                    "after compaction");
    ExpectSameCells(Overlay(s, {&first}), arr->ReadAll(&pool).ValueOrDie(),
                    "after compaction, pool 4");

    MemArray second(s);
    for (int64_t t = 150; t <= 260; ++t) {
      ASSERT_TRUE(second.SetCell({t}, Value(-static_cast<double>(t))).ok());
    }
    ASSERT_TRUE(arr->WriteAll(second).ok());
    ExpectSameCells(Overlay(s, {&first, &second}),
                    arr->ReadAll(&pool).ValueOrDie(),
                    "appended after compaction");
  }
  fs::remove_all(dir);
}

// Width-4 region reads decode buckets concurrently through the shared
// descriptor; without a cache every read goes to the file.
TEST(StoredScanTest, ConcurrentReadsShareTheDataFile) {
  std::string dir = TempDir("scan_concurrent");
  {
    StorageManager sm(dir);
    for (const ArraySchema& schema : StoredSchemas("concurrent")) {
      DiskArray* arr = sm.CreateArray(schema).ValueOrDie();
      Rng rng(TestSeed(79));
      const MemArray cells = MixedStoredCells(schema, &rng, 80);
      ASSERT_TRUE(arr->WriteAll(cells).ok());
      ThreadPool pool(4);
      for (int rep = 0; rep < 8; ++rep) {
        ExpectSameCells(cells, arr->ReadAll(&pool).ValueOrDie(),
                        schema.name() + "/ReadAll(pool 4)");
        for (const Box& region : TestRegions()) {
          ExpectSameCells(Overlay(schema, {&cells}, &region),
                          arr->ReadRegion(region, &pool).ValueOrDie(),
                          schema.name() + "/ReadRegion(pool 4) " +
                              region.ToString());
        }
      }
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------ manifest
//
// One manifest encoding serves `<name>.manifest` and the single-file
// (`.sdb`) array: magic "SCMF" | schema | codec u8 | next id u64 | payload
// end u64 | varint bucket count | per bucket: id u64, varint arity, zigzag
// (low, high) per dimension, offset u64, size u64, zigzag cell count. A
// single file is payloads | manifest | manifest offset u64 | magic "SDBF".

struct BucketFields {
  uint64_t id = 1;
  Box box;
  uint64_t offset = 0;
  uint64_t size = 0;
  int64_t cells = 0;
};

std::vector<uint8_t> ManifestBytes(const ArraySchema& schema, uint8_t codec,
                                   uint64_t next_id, uint64_t data_end,
                                   const std::vector<BucketFields>& buckets) {
  ByteWriter w;
  w.PutU32(0x53434D46);
  EncodeSchema(schema, &w);
  w.PutU8(codec);
  w.PutU64(next_id);
  w.PutU64(data_end);
  w.PutVarint(buckets.size());
  for (const BucketFields& b : buckets) {
    w.PutU64(b.id);
    w.PutVarint(b.box.ndims());
    for (size_t d = 0; d < b.box.ndims(); ++d) {
      w.PutSignedVarint(b.box.low[d]);
      w.PutSignedVarint(b.box.high[d]);
    }
    w.PutU64(b.offset);
    w.PutU64(b.size);
    w.PutSignedVarint(b.cells);
  }
  return w.Release();
}

// A single file's bytes after its `payload` bytes of payloads.
std::vector<uint8_t> SingleFileTail(const std::vector<uint8_t>& manifest,
                                    uint64_t payload) {
  ByteWriter w;
  w.PutBytes(manifest.data(), manifest.size());
  w.PutU64(payload);
  w.PutU32(0x53444246);
  return w.Release();
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f),
                              std::istreambuf_iterator<char>());
}

void PutFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

// 8 cells of one 1-D chunk: one bucket.
ArraySchema LineSchema() {
  return ArraySchema("line", {{"I", 1, 8, 8}},
                     {{"v", DataType::kDouble, true, false}});
}

MemArray LineCells() {
  MemArray a(LineSchema());
  for (int64_t i = 1; i <= 8; ++i) {
    SCIDB_CHECK(a.SetCell({i}, Value(static_cast<double>(i))).ok());
  }
  return a;
}

// Well-formed manifests for LineCells() stored as one bucket of
// `payload` bytes at offset 0, each with one field out of range. A
// schema with a chunk interval <= 0 made every read loop forever.
std::vector<std::pair<std::string, std::vector<uint8_t>>> CorruptManifests(
    uint64_t payload) {
  const auto lz = static_cast<uint8_t>(CodecType::kLz);
  const BucketFields good{1, Box({1}, {8}), 0, payload, 8};
  BucketFields two_dims = good;
  two_dims.box = Box({1, 1}, {8, 8});
  BucketFields past_end = good;
  past_end.size = uint64_t{1} << 62;
  BucketFields wraps = good;
  wraps.offset = std::numeric_limits<uint64_t>::max() - 1;
  BucketFields empty_box = good;
  empty_box.box = Box({5}, {4});
  const ArraySchema s = LineSchema();
  const ArraySchema no_interval("line", {{"I", 1, 8, 0}}, s.attrs());
  const ArraySchema negative_interval("line", {{"I", 1, 8, -26}}, s.attrs());
  return {{"codec", ManifestBytes(s, 0x7F, 2, payload, {good})},
          {"chunk interval 0", ManifestBytes(no_interval, lz, 2, payload,
                                             {good})},
          {"chunk interval < 0", ManifestBytes(negative_interval, lz, 2,
                                               payload, {good})},
          {"arity", ManifestBytes(s, lz, 2, payload, {two_dims})},
          {"size past the payloads", ManifestBytes(s, lz, 2, payload,
                                                   {past_end})},
          {"offset + size wraps", ManifestBytes(s, lz, 2, payload, {wraps})},
          {"payload end past the data",
           ManifestBytes(s, lz, 2, payload + 1, {good})},
          {"low > high", ManifestBytes(s, lz, 2, payload, {empty_box})},
          {"duplicate id", ManifestBytes(s, lz, 2, payload, {good, good})}};
}

// The manifest Flush writes is the documented encoding, byte for byte.
TEST(ManifestTest, FlushWritesTheDocumentedBytes) {
  std::string dir = TempDir("manifest_bytes");
  uint64_t payload = 0;
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.CreateArray(LineSchema()).ValueOrDie();
    ASSERT_TRUE(arr->WriteAll(LineCells()).ok());
    payload = static_cast<uint64_t>(arr->LiveBytes());
  }
  EXPECT_EQ(FileBytes(dir + "/line.manifest"),
            ManifestBytes(LineSchema(), static_cast<uint8_t>(CodecType::kLz),
                          2, payload,
                          {{1, Box({1}, {8}), 0, payload, 8}}));
  fs::remove_all(dir);
}

// A stored array whose manifest has a field out of range fails to open
// with Corruption, before any bucket is read, and keeps its manifest.
TEST(ManifestTest, CorruptStoredManifestFailsOpen) {
  std::string dir = TempDir("manifest_corrupt");
  uint64_t payload = 0;
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.CreateArray(LineSchema()).ValueOrDie();
    ASSERT_TRUE(arr->WriteAll(LineCells()).ok());
    payload = static_cast<uint64_t>(arr->LiveBytes());
  }
  const std::string path = dir + "/line.manifest";
  for (const auto& [what, bytes] : CorruptManifests(payload)) {
    SCOPED_TRACE(what);
    PutFileBytes(path, bytes);
    {
      StorageManager sm(dir);
      Result<DiskArray*> opened = sm.OpenArray("line");
      EXPECT_TRUE(opened.status().IsCorruption())
          << opened.status().ToString();
    }
    EXPECT_EQ(FileBytes(path), bytes);
  }
  fs::remove_all(dir);
}

// The same manifests inside a single-file array.
TEST(ManifestTest, CorruptSingleFileManifestFailsOpen) {
  std::string dir = TempDir("sdb_corrupt");
  const std::string path = dir + "/line.sdb";
  ASSERT_TRUE(DiskArray::WriteSingleFile(path, LineCells()).ok());
  const uint64_t payload = static_cast<uint64_t>(
      DiskArray::OpenSingleFile(path).ValueOrDie()->LiveBytes());
  std::vector<uint8_t> payloads = FileBytes(path);
  payloads.resize(payload);
  for (const auto& [what, manifest] : CorruptManifests(payload)) {
    SCOPED_TRACE(what);
    std::vector<uint8_t> bytes = payloads;
    const std::vector<uint8_t> tail = SingleFileTail(manifest, payload);
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    PutFileBytes(path, bytes);
    Result<std::unique_ptr<DiskArray>> opened = DiskArray::OpenSingleFile(path);
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
  fs::remove_all(dir);
}

// The single file is payloads | manifest | trailer, and an array opened
// from it refuses writes and leaves the file as it was.
TEST(ManifestTest, SingleFileIsPayloadsManifestTrailer) {
  std::string dir = TempDir("sdb_layout");
  const std::string path = dir + "/line.sdb";
  ASSERT_TRUE(DiskArray::WriteSingleFile(path, LineCells()).ok());
  const std::vector<uint8_t> bytes = FileBytes(path);
  std::unique_ptr<DiskArray> arr = DiskArray::OpenSingleFile(path).ValueOrDie();
  const uint64_t payload = static_cast<uint64_t>(arr->LiveBytes());
  const std::vector<uint8_t> tail = SingleFileTail(
      ManifestBytes(LineSchema(), static_cast<uint8_t>(CodecType::kLz), 2,
                    payload, {{1, Box({1}, {8}), 0, payload, 8}}),
      payload);
  ASSERT_EQ(bytes.size(), payload + tail.size());
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin() + static_cast<long>(payload),
                                 bytes.end()),
            tail);

  EXPECT_EQ(arr->ReadAll().ValueOrDie().CellCount(), 8);
  EXPECT_EQ(arr->WriteAll(LineCells()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(arr->MergeSmallBuckets(1 << 20).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(arr->Flush().ok());
  arr.reset();
  EXPECT_EQ(FileBytes(path), bytes);
  fs::remove_all(dir);
}


// The buckets of a manifest in the documented encoding.
std::vector<BucketFields> ManifestBuckets(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  EXPECT_EQ(r.GetU32().ValueOrDie(), 0x53434D46u);
  const ArraySchema schema = DecodeSchema(&r).ValueOrDie();
  EXPECT_TRUE(r.GetU8().ok());   // codec
  EXPECT_TRUE(r.GetU64().ok());  // next id
  EXPECT_TRUE(r.GetU64().ok());  // payload end
  std::vector<BucketFields> buckets(r.GetVarint().ValueOrDie());
  for (BucketFields& b : buckets) {
    b.id = r.GetU64().ValueOrDie();
    const uint64_t ndims = r.GetVarint().ValueOrDie();
    EXPECT_EQ(ndims, schema.ndims());
    b.box.low.resize(ndims);
    b.box.high.resize(ndims);
    for (uint64_t d = 0; d < ndims; ++d) {
      b.box.low[d] = r.GetSignedVarint().ValueOrDie();
      b.box.high[d] = r.GetSignedVarint().ValueOrDie();
    }
    b.offset = r.GetU64().ValueOrDie();
    b.size = r.GetU64().ValueOrDie();
    b.cells = r.GetSignedVarint().ValueOrDie();
  }
  EXPECT_EQ(r.remaining(), 0u);
  return buckets;
}

// Appends go through the array's one descriptor at the payload end: after
// a compaction renames a new file over it, and over bytes a crash left
// past the payload end, which the manifest never named.
TEST(DataFileTest, AppendsLandAtThePayloadEnd) {
  std::string dir = TempDir("append_end");
  ArraySchema s("c", {{"T", 1, 1000, 10}},
                {{"v", DataType::kDouble, true, false}});
  auto layer = [&](int64_t lo, int64_t hi, double sign) {
    MemArray a(s);
    for (int64_t t = lo; t <= hi; ++t) {
      EXPECT_TRUE(a.SetCell({t}, Value(sign * static_cast<double>(t))).ok());
    }
    return a;
  };
  const MemArray first = layer(1, 200, 1);
  const MemArray second = layer(150, 260, -1);
  const MemArray third = layer(255, 400, 2);
  const std::string data = dir + "/c.data";
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.CreateArray(s).ValueOrDie();
    ASSERT_TRUE(arr->WriteAll(first).ok());
    ASSERT_GT(arr->MergeSmallBuckets(1 << 20).ValueOrDie(), 0);
    ASSERT_EQ(static_cast<int64_t>(fs::file_size(data)), arr->LiveBytes());
    ASSERT_TRUE(arr->WriteAll(second).ok());
    EXPECT_EQ(static_cast<int64_t>(fs::file_size(data)), arr->LiveBytes());
    ExpectSameCells(Overlay(s, {&first, &second}), arr->ReadAll().ValueOrDie(),
                    "appended after compaction");
  }
  // A crash between an append and the next manifest flush leaves bytes
  // past the payload end; the next append overwrites them.
  std::vector<uint8_t> bytes = FileBytes(data);
  const uint64_t payload_end = bytes.size();
  bytes.resize(bytes.size() + 4096, 0xAB);
  PutFileBytes(data, bytes);
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.OpenArray("c").ValueOrDie();
    ASSERT_TRUE(arr->WriteAll(third).ok());
    ExpectSameCells(Overlay(s, {&first, &second, &third}),
                    arr->ReadAll().ValueOrDie(), "appended over a torn tail");
    EXPECT_EQ(FileBytes(data).size(),
              std::max<uint64_t>(payload_end + 4096,
                                 static_cast<uint64_t>(arr->LiveBytes())));
  }
  {
    StorageManager sm(dir);
    ExpectSameCells(Overlay(s, {&first, &second, &third}),
                    sm.OpenArray("c").ValueOrDie()->ReadAll().ValueOrDie(),
                    "reopened");
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------- stream loader
//
// StreamLoader writes each cell into its open chunk, keeps the buffer's
// byte count as cells arrive, and flushes before a chunk that would take
// the buffer to its budget. The reference is a MemArray built by SetCell.

// A row-major 2-D stream whose budget holds one row of chunks and not a
// fifth chunk: each flush writes that row whole, one bucket per chunk.
TEST(StreamLoaderTest, FlushesWriteWholeChunks) {
  std::string dir = TempDir("loader_rows");
  {
    StorageManager sm(dir);
    ArraySchema s("rows", {{"I", 1, 128, 32}, {"J", 1, 128, 32}},
                  {{"v", DataType::kDouble, true, false}});
    DiskArray* arr = sm.CreateArray(s).ValueOrDie();
    const size_t chunk = Chunk(Box({1, 1}, {32, 32}), s.attrs()).ByteSize();
    StreamLoader loader(arr, chunk * 9 / 2);
    MemArray want(s);
    Rng rng(TestSeed(83));
    for (int64_t i = 1; i <= 128; ++i) {
      for (int64_t j = 1; j <= 128; ++j) {
        const Value v(rng.NextDouble());
        ASSERT_TRUE(loader.Append({i, j}, {v}).ok());
        ASSERT_TRUE(want.SetCell({i, j}, v).ok());
      }
    }
    ASSERT_TRUE(loader.Finish().ok());
    EXPECT_EQ(loader.flushes(), 4);
    const std::vector<BucketFields> buckets =
        ManifestBuckets(FileBytes(dir + "/rows.manifest"));
    ASSERT_EQ(buckets.size(), 16u);
    EXPECT_EQ(arr->bucket_count(), 16u);
    for (const BucketFields& b : buckets) {
      SCOPED_TRACE(b.box.ToString());
      EXPECT_EQ(b.box, want.ChunkBoxFor(b.box.low));
      EXPECT_EQ(b.cells, 32 * 32);
      EXPECT_GE(b.size, 2u << 10);
    }
    EXPECT_EQ(arr->MergeSmallBuckets(2 << 10).ValueOrDie(), 0);
    ExpectSameCells(want, arr->ReadAll().ValueOrDie(), "read-back");
  }
  fs::remove_all(dir);
}

// One attribute of each kind whose bytes the loader counts differently,
// and the four attributes of MixedStoredSchema together; 3 x 4 chunks,
// the last column of chunks one cell wide.
std::vector<ArraySchema> LoaderSchemas() {
  auto schema = [](const std::string& name, std::vector<AttributeDesc> attrs) {
    return ArraySchema(name, {{"I", 1, 12, 4}, {"J", 1, 10, 3}},
                       std::move(attrs));
  };
  auto one = [&](const std::string& name, DataType type, bool uncertain) {
    return schema(name, {{"a", type, true, uncertain}});
  };
  return {one("f64", DataType::kDouble, false),
          one("i64", DataType::kInt64, false),
          one("str", DataType::kString, false),
          one("unc", DataType::kDouble, true),
          one("nested", DataType::kArray, false),
          schema("mixed", MixedStoredSchema("m").attrs())};
}

// A value of `attr`'s kind drawn from `rng`, NULL about one time in ten.
Value LoaderValue(const AttributeDesc& attr, Rng* rng) {
  if (rng->Uniform(10) == 0) return Value::Null();
  const double x = static_cast<double>(rng->UniformInt(-1000, 1000)) / 8;
  switch (attr.type) {
    case DataType::kInt64:
      return Value(rng->UniformInt(-(int64_t{1} << 40), int64_t{1} << 40));
    case DataType::kString:
      // Lengths 0 to 40, so an overwrite may shrink a cell.
      return Value(std::string(rng->Uniform(41), 'x'));
    case DataType::kArray: {
      auto nested = std::make_shared<NestedArray>();
      nested->shape = {2};
      nested->values = {Value(x), Value(-x)};
      return Value(nested);
    }
    case DataType::kBool:
    case DataType::kFloat:
    case DataType::kDouble:
      break;
  }
  if (attr.uncertain) {
    return Value(Uncertain(x, rng->Uniform(4) == 0 ? 0.5 : 0.125));
  }
  return Value(x);
}

// Every cell of `schema` with probability 4/5 in row-major or shuffled
// order, then a tenth of them again with new values.
std::vector<std::pair<Coordinates, std::vector<Value>>> LoaderStream(
    const ArraySchema& schema, bool shuffle, Rng* rng) {
  std::vector<std::pair<Coordinates, std::vector<Value>>> stream;
  auto cell = [&] {
    std::vector<Value> values;
    for (const AttributeDesc& attr : schema.attrs()) {
      values.push_back(LoaderValue(attr, rng));
    }
    return values;
  };
  for (int64_t i = 1; i <= 12; ++i) {
    for (int64_t j = 1; j <= 10; ++j) {
      if (rng->Uniform(5) != 0) stream.push_back({{i, j}, cell()});
    }
  }
  if (shuffle) {
    for (size_t k = stream.size(); k > 1; --k) {
      std::swap(stream[k - 1], stream[rng->Uniform(k)]);
    }
  }
  const size_t n = stream.size();
  for (size_t k = 0; k < n / 10; ++k) {
    stream.push_back({stream[rng->Uniform(n)].first, cell()});
  }
  return stream;
}

// After every cell the loader's byte count is the ByteSize() of the
// buffer a SetCell mirror holds, each flush is one the rule asks for,
// and the read-back equals the SetCell reference.
TEST(StreamLoaderTest, MatchesSetCellReference) {
  std::string dir = TempDir("loader_diff");
  StorageManager sm(dir);
  int arrays = 0;
  for (const ArraySchema& base : LoaderSchemas()) {
    const size_t chunk = Chunk(Box({1, 1}, {4, 3}), base.attrs()).ByteSize();
    for (const size_t budget : {chunk / 2, chunk + 1, chunk * 5 / 2,
                                chunk * 4, size_t{1} << 30}) {
      for (const bool shuffle : {false, true}) {
        ArraySchema s = base;
        s.set_name(base.name() + "_" + std::to_string(arrays++));
        SCOPED_TRACE(s.name() + " budget " + std::to_string(budget) +
                     (shuffle ? " shuffled" : " row-major"));
        DiskArray* arr = sm.CreateArray(s).ValueOrDie();
        StreamLoader loader(arr, budget);
        Rng rng(TestSeed(89) + static_cast<uint64_t>(arrays));
        MemArray want(s);
        MemArray mirror(s);  // what the loader's buffer holds
        for (const auto& [c, values] : LoaderStream(s, shuffle, &rng)) {
          const int64_t flushes = loader.flushes();
          const Coordinates origin = mirror.ChunkOriginFor(c);
          const bool opens = mirror.FindChunk(origin) == nullptr;
          // The buffer with the chunk the cell opens, before the cell.
          const size_t with_chunk =
              mirror.ByteSize() +
              Chunk(mirror.ChunkBoxFor(origin), s.attrs()).ByteSize();
          ASSERT_TRUE(loader.Append(c, values).ok());
          ASSERT_TRUE(want.SetCell(c, values).ok());
          ASSERT_TRUE(mirror.SetCell(c, values).ok());
          MemArray alone(s);  // the buffer after a flush before the cell
          ASSERT_TRUE(alone.SetCell(c, values).ok());
          const bool flushed_before =
              loader.flushes() - flushes == 2 ||
              (loader.flushes() - flushes == 1 && loader.buffered_bytes() > 0);
          if (opens && mirror.ChunkCount() > 1) {
            EXPECT_EQ(flushed_before, with_chunk >= budget);
          } else {
            EXPECT_FALSE(flushed_before);
          }
          if (flushed_before) mirror = alone;
          const bool flushed_after =
              loader.flushes() - flushes == (flushed_before ? 2 : 1);
          EXPECT_EQ(flushed_after, mirror.ByteSize() >= budget);
          if (flushed_after) mirror = MemArray(s);
          ASSERT_EQ(loader.buffered_bytes(), mirror.ByteSize());
        }
        ASSERT_TRUE(loader.Finish().ok());
        ExpectSameCells(want, arr->ReadAll().ValueOrDie(), "read-back");
        ASSERT_TRUE(sm.DropArray(s.name()).ok());
      }
    }
  }
  fs::remove_all(dir);
}

// A cell MemArray::SetCell rejects, or one sent after Finish, fails with
// SetCell's StatusCode (Invalid after Finish), flushes nothing, and
// leaves the loader's buffer and the read-back as they were.
TEST(StreamLoaderTest, RejectedCellsChangeNothing) {
  std::string dir = TempDir("loader_invalid");
  {
    StorageManager sm(dir);
    ArraySchema s("bad", {{"I", 1, 12, 4}, {"J", 1, 10, 3}},
                  {{"v", DataType::kDouble, true, false}});
    DiskArray* arr = sm.CreateArray(s).ValueOrDie();
    const size_t chunk = Chunk(Box({1, 1}, {4, 3}), s.attrs()).ByteSize();
    // One chunk fits; the cell that opens a second one flushes first.
    StreamLoader loader(arr, chunk + chunk / 2);
    MemArray want(s);
    const std::vector<std::pair<Coordinates, std::vector<Value>>> bad = {
        {{1}, {Value(1.0)}},                     // coordinate arity
        {{1, 1, 1}, {Value(1.0)}},               // coordinate arity
        {{2, 2}, {Value(1.0), Value(2.0)}},      // value arity, open chunk
        {{2, 2}, {}},                            // value arity, open chunk
        {{9, 9}, {Value(1.0), Value(2.0)}},      // value arity, new chunk
        {{0, 1}, {Value(1.0)}},                  // below the bounds
        {{13, 1}, {Value(1.0)}},                 // above the bounds
        {{5, 11}, {Value(1.0)}},                 // above the bounds
    };
    auto reject_all = [&](const std::string& when) {
      SCOPED_TRACE(when);
      for (const auto& [c, values] : bad) {
        SCOPED_TRACE(CoordsToString(c));
        const int64_t flushes = loader.flushes();
        const size_t bytes = loader.buffered_bytes();
        const Status st = loader.Append(c, values);
        EXPECT_FALSE(st.ok());
        EXPECT_EQ(st.code(), MemArray(s).SetCell(c, values).code());
        EXPECT_EQ(loader.flushes(), flushes);
        EXPECT_EQ(loader.buffered_bytes(), bytes);
      }
    };
    reject_all("empty buffer");
    for (int64_t i = 1; i <= 4; ++i) {
      for (int64_t j = 1; j <= 3; ++j) {
        const Value v(static_cast<double>(i * 10 + j));
        ASSERT_TRUE(loader.Append({i, j}, {v}).ok());
        ASSERT_TRUE(want.SetCell({i, j}, v).ok());
      }
    }
    EXPECT_EQ(loader.flushes(), 0);
    reject_all("one chunk buffered");
    ASSERT_TRUE(loader.Append({9, 9}, {Value(99.0)}).ok());
    ASSERT_TRUE(want.SetCell({9, 9}, Value(99.0)).ok());
    EXPECT_EQ(loader.flushes(), 1);
    reject_all("after a flush");
    ASSERT_TRUE(loader.Finish().ok());
    const int64_t flushes = loader.flushes();
    EXPECT_EQ(flushes, 2);
    ExpectSameCells(want, arr->ReadAll().ValueOrDie(), "read-back");
    EXPECT_EQ(loader.Append({1, 1}, {Value(0.0)}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(loader.Append({1}, {Value(0.0)}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(loader.Finish().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(loader.flushes(), flushes);
    ExpectSameCells(want, arr->ReadAll().ValueOrDie(), "after Finish");
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace scidb
