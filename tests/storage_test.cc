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
// `payload` bytes at offset 0, each with one field out of range.
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
  return {{"codec", ManifestBytes(s, 0x7F, 2, payload, {good})},
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

}  // namespace
}  // namespace scidb
