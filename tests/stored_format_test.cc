// Stored data written before the byte-plane payload (chunk format v1,
// magic "SCDH") must read back exactly. `tests/data/stored_v1/` holds a
// DiskArray directory (`mix.manifest` + `mix.data`: two kLz and two kRle
// buckets) and the same cells as one `.sdb` file, both written by the v1
// encoder from FixtureCells() below. The tests read them, and an array
// that holds both formats after v2 buckets land over the v1 ones and a
// merge pass rewrites some of them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "array/chunk.h"
#include "array/mem_array.h"
#include "storage/chunk_serde.h"
#include "storage/storage_manager.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

const std::string kFixtureDir = SCIDB_TEST_DATA_DIR "/stored_v1";

// The stored-format fixture: a 16 x 16 array in four 8 x 8 chunks, one
// attribute of each fixed-width, uncertain, string and nested kind. The
// chunk at (9, 9) is sparse; every attribute has NULLs.
ArraySchema FixtureSchema() {
  return ArraySchema("mix", {{"X", 1, 16, 8}, {"Y", 1, 16, 8}},
                     {{"f", DataType::kFloat, true, false},
                      {"d", DataType::kDouble, true, false},
                      {"uc", DataType::kDouble, true, true},
                      {"uv", DataType::kDouble, true, true},
                      {"i", DataType::kInt64, true, false},
                      {"ui", DataType::kInt64, true, true},
                      {"s", DataType::kString, true, false},
                      {"a", DataType::kArray, true, false}});
}

// Attribute `a` of cell k, or NULL; `salt` varies the values.
Value FixtureValue(size_t a, int64_t k, int64_t salt) {
  if ((k + salt + static_cast<int64_t>(a)) % 7 == 0) return Value::Null();
  const double dk = static_cast<double>(k + salt);
  switch (a) {
    case 0:
      return Value(static_cast<double>(static_cast<float>(dk * 0.37 - 3.0)));
    case 1:
      switch (k) {
        case 3:
          return Value(-0.0);
        case 4:
          return Value(std::numeric_limits<double>::infinity());
        case 5:
          return Value(std::bit_cast<double>(uint64_t{0x7ff8000000000123}));
        case 6:
          return Value(std::numeric_limits<double>::denorm_min() * 3);
        default:
          return Value(dk * 1.0625 - 50.0 + 1.0 / (dk + 3.0));
      }
    case 2:
      return Value(Uncertain(dk * 0.5, 0.25));
    case 3:
      return Value(Uncertain(-dk * 0.75, 0.01 * static_cast<double>(k % 9)));
    case 4:
      return Value((k + salt) * (k + salt) * 1000003 - 7);
    case 5:  // an exact int64 mean with a zero error bar
      return Value(k == 1   ? std::numeric_limits<int64_t>::max()
                   : k == 2 ? std::numeric_limits<int64_t>::min()
                   : k == 8 ? (int64_t{1} << 53) + 1
                            : -(k + salt) * 31);
    case 6:
      return Value(std::string("s").append(std::to_string((k + salt) % 13)));
    default: {
      auto na = std::make_shared<NestedArray>();
      na->shape = {k % 3 + 1};
      for (int64_t j = 0; j <= k % 3; ++j) {
        na->values.emplace_back(dk + 0.5 * static_cast<double>(j));
      }
      return Value(std::move(na));
    }
  }
}

// The cells of `box` (every cell, or one in five in the sparse chunk),
// valued with `salt`.
MemArray FixtureCells(const Box& box, int64_t salt) {
  MemArray mem(FixtureSchema());
  for (int64_t x = box.low[0]; x <= box.high[0]; ++x) {
    for (int64_t y = box.low[1]; y <= box.high[1]; ++y) {
      const int64_t k = (x - 1) * 16 + (y - 1);
      if (x > 8 && y > 8 && k % 5 != 0) continue;
      std::vector<Value> cell;
      for (size_t a = 0; a < 8; ++a) cell.push_back(FixtureValue(a, k, salt));
      EXPECT_TRUE(mem.SetCell({x, y}, cell).ok());
    }
  }
  return mem;
}

// A copy of the fixture directory in a fresh temporary directory: opening
// an array rewrites its manifest on close, and the committed files must
// not change.
std::string CopyOfFixture(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("scidb_v1_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* f : {"mix.manifest", "mix.data", "mix.sdb"}) {
    fs::copy_file(fs::path(kFixtureDir) / f, dir / f);
  }
  return dir.string();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Every cell of `want` is in `got` with the same bits, and `got` has no
// other cell.
void ExpectSameCells(const MemArray& want, const MemArray& got) {
  ASSERT_EQ(got.CellCount(), want.CellCount());
  want.ForEachCell([&](const Coordinates& c, const Chunk& wc, int64_t wr) {
    const Chunk* gc = got.FindChunk(got.ChunkOriginFor(c));
    EXPECT_TRUE(gc != nullptr && gc->IsPresentAt(c));
    if (gc == nullptr || !gc->IsPresentAt(c)) return false;
    const int64_t gr = RankInBox(gc->box(), c);
    const size_t wi = static_cast<size_t>(wr);
    const size_t gi = static_cast<size_t>(gr);
    for (size_t a = 0; a < wc.nattrs(); ++a) {
      const AttributeBlock& w = wc.block(a);
      const AttributeBlock& g = gc->block(a);
      const std::string at = std::to_string(a) + " @" + std::to_string(c[0]) +
                             "," + std::to_string(c[1]);
      EXPECT_EQ(g.IsNull(gr), w.IsNull(wr)) << at;
      if (w.IsNull(wr) || g.IsNull(gr)) continue;
      switch (w.type()) {
        case DataType::kFloat:
          EXPECT_EQ(std::bit_cast<uint32_t>(g.floats()[gi]),
                    std::bit_cast<uint32_t>(w.floats()[wi]))
              << at;
          break;
        case DataType::kDouble:
          EXPECT_TRUE(SameBits(g.doubles()[gi], w.doubles()[wi])) << at;
          break;
        case DataType::kInt64:
          EXPECT_EQ(g.int64s()[gi], w.int64s()[wi]) << at;
          break;
        case DataType::kString:
          EXPECT_EQ(g.Get(gr).string_value(), w.Get(wr).string_value()) << at;
          break;
        case DataType::kArray: {
          const NestedArray& wa = *w.Get(wr).array_value();
          const NestedArray& ga = *g.Get(gr).array_value();
          EXPECT_EQ(ga.shape, wa.shape) << at;
          EXPECT_EQ(ga.values.size(), wa.values.size()) << at;
          for (size_t k = 0; k < wa.values.size() && k < ga.values.size();
               ++k) {
            EXPECT_TRUE(SameBits(ga.values[k].double_value(),
                                 wa.values[k].double_value()))
                << at;
          }
          break;
        }
        case DataType::kBool:
          EXPECT_EQ(g.bools()[gi], w.bools()[wi]) << at;
          break;
      }
      if (w.uncertain()) {
        EXPECT_TRUE(SameBits(g.GetStderr(gr), w.GetStderr(wr))) << at;
      }
    }
    return true;
  });
}

TEST(StoredFormatV1Test, DirectoryReadsEveryCellExactly) {
  const std::string dir = CopyOfFixture("dir");
  StorageManager sm(dir);
  DiskArray* arr = sm.OpenArray("mix").ValueOrDie();
  EXPECT_EQ(arr->schema().attrs(), FixtureSchema().attrs());
  EXPECT_EQ(arr->bucket_count(), 4u);
  ExpectSameCells(FixtureCells(Box({1, 1}, {16, 16}), 0),
                  arr->ReadAll().ValueOrDie());
  fs::remove_all(dir);
}

TEST(StoredFormatV1Test, SingleFileReadsEveryCellExactly) {
  std::unique_ptr<DiskArray> arr =
      DiskArray::OpenSingleFile(kFixtureDir + "/mix.sdb").ValueOrDie();
  ExpectSameCells(FixtureCells(Box({1, 1}, {16, 16}), 0),
                  arr->ReadAll().ValueOrDie());
}

// v2 buckets over the v1 ones, then a merge pass that rewrites some of
// them: every read, before and after a reopen, sees the newest value of
// each cell.
TEST(StoredFormatV1Test, MixedFormatsMergeAndReadExactly) {
  const std::string dir = CopyOfFixture("mixed");
  MemArray want = FixtureCells(Box({1, 1}, {16, 16}), 0);
  const MemArray overlay = FixtureCells(Box({5, 3}, {12, 14}), 1000);
  overlay.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                          int64_t rank) {
    std::vector<Value> cell;
    for (size_t a = 0; a < chunk.nattrs(); ++a) {
      cell.push_back(chunk.block(a).Get(rank));
    }
    EXPECT_TRUE(want.SetCell(c, cell).ok());
    return true;
  });
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.OpenArray("mix").ValueOrDie();
    ASSERT_TRUE(arr->WriteAll(overlay).ok());
    ExpectSameCells(want, arr->ReadAll().ValueOrDie());
    EXPECT_GT(arr->MergeSmallBuckets(1 << 20).ValueOrDie(), 0);
    ExpectSameCells(want, arr->ReadAll().ValueOrDie());
  }
  StorageManager sm(dir);
  ExpectSameCells(want, sm.OpenArray("mix").ValueOrDie()->ReadAll().ValueOrDie());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace scidb
