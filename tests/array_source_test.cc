// The ArraySource contract, checked for every source kind: a region read
// returns exactly the cells Subsample of the whole read by that box keeps
// (same coordinates, values and nulls, doubles bit for bit), for boxes
// inside one chunk, across chunk boundaries, empty, past the high-water
// mark and open along an unbounded dimension, at every pool width.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/array_source.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/operators.h"
#include "insitu/formats.h"
#include "server/shared_catalog.h"
#include "storage/storage_manager.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir = (fs::temp_directory_path() /
                     ("scidb_source_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// int64, string, uncertain double and plain double over 4 x 5 chunks; J
// is unbounded in the second variant.
ArraySchema ContractSchema(const std::string& name, bool unbounded) {
  const int64_t jhigh = unbounded ? kUnboundedDim : 17;
  return ArraySchema(name, {{"I", 1, 18, 4}, {"J", 1, jhigh, 5}},
                     {{"n", DataType::kInt64, true, false},
                      {"s", DataType::kString, true, false},
                      {"u", DataType::kDouble, true, true},
                      {"d", DataType::kDouble, true, false}});
}

// About `keep_pct` percent of the cells with I in 1..18 and J in
// 1..`jmax`; about one value in ten is NULL.
MemArray RandomCells(const ArraySchema& schema, int64_t jmax, int keep_pct,
                     Rng* rng) {
  MemArray a(schema);
  for (int64_t i = 1; i <= 18; ++i) {
    for (int64_t j = 1; j <= jmax; ++j) {
      if (static_cast<int>(rng->Uniform(100)) >= keep_pct) continue;
      auto maybe = [&](Value v) {
        return rng->Uniform(10) == 0 ? Value::Null() : std::move(v);
      };
      const double x = static_cast<double>(rng->UniformInt(-1000, 1000)) / 8;
      std::vector<Value> cell = {
          maybe(Value(rng->UniformInt(-(int64_t{1} << 40), int64_t{1} << 40))),
          maybe(Value(
              std::string("s").append(std::to_string(rng->Uniform(50))))),
          maybe(Value(Uncertain(x, rng->Uniform(3) == 0 ? 0.5 : 0.125))),
          maybe(Value(x * 3))};
      EXPECT_TRUE(a.SetCell({i, j}, cell).ok());
    }
  }
  return a;
}

// `layers` applied in order, later cells winning.
MemArray Overlay(const ArraySchema& schema,
                 const std::vector<const MemArray*>& layers) {
  MemArray out(schema);
  for (const MemArray* layer : layers) {
    for (const auto& [origin, chunk] : layer->chunks()) {
      EXPECT_TRUE(CopyCells(*chunk, chunk->box(), &out).ok());
    }
  }
  return out;
}

using Cells = std::map<Coordinates, std::vector<Value>>;

Cells CellsOf(const MemArray& a) {
  Cells out;
  a.ForEachCell([&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
    std::vector<Value>& cell = out[c];
    for (size_t at = 0; at < chunk.nattrs(); ++at) {
      cell.push_back(chunk.block(at).Get(rank));
    }
    return true;
  });
  return out;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

bool Identical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int64() || b.is_int64()) {
    return a.is_int64() && b.is_int64() && a.int64_value() == b.int64_value();
  }
  if (a.is_string() || b.is_string()) {
    return a.is_string() && b.is_string() &&
           a.string_value() == b.string_value();
  }
  if (a.is_uncertain() || b.is_uncertain()) {
    return a.is_uncertain() && b.is_uncertain() &&
           Bits(a.uncertain_value().mean) == Bits(b.uncertain_value().mean) &&
           Bits(a.uncertain_value().stderr_) ==
               Bits(b.uncertain_value().stderr_);
  }
  return a.is_double() && b.is_double() &&
         Bits(a.double_value()) == Bits(b.double_value());
}

void ExpectSameCells(const MemArray& want, const MemArray& got) {
  const Cells w = CellsOf(want);
  const Cells g = CellsOf(got);
  ASSERT_EQ(w.size(), g.size());
  for (auto wi = w.begin(), gi = g.begin(); wi != w.end(); ++wi, ++gi) {
    ASSERT_EQ(wi->first, gi->first);
    ASSERT_EQ(wi->second.size(), gi->second.size());
    for (size_t at = 0; at < wi->second.size(); ++at) {
      EXPECT_TRUE(Identical(wi->second[at], gi->second[at]))
          << CoordsToString(wi->first) << " attr " << at << ": "
          << wi->second[at].ToString() << " vs " << gi->second[at].ToString();
    }
  }
}

// The Subsample predicate naming `box` (no conjunct for an open end).
ExprPtr BoxPredicate(const ArraySchema& schema, const Box& box) {
  ExprPtr pred;
  auto conj = [&](ExprPtr e) { pred = pred ? And(pred, e) : e; };
  for (size_t d = 0; d < box.ndims(); ++d) {
    const std::string& dim = schema.dim(d).name;
    conj(Ge(Ref(dim), Lit(box.low[d])));
    if (box.high[d] != kUnboundedDim) conj(Le(Ref(dim), Lit(box.high[d])));
  }
  return pred;
}

// One source under test; `keep` owns whatever it reads from.
struct Case {
  std::string label;
  std::shared_ptr<void> keep;
  const ArraySource* source = nullptr;
  MemArray cells;  // what a whole read must return
};

// Stored: merged buckets that cross grid chunks, then a partial
// overlapping rewrite.
struct DiskKind {
  static std::vector<Case> Make(const std::string& dir) {
    auto sm = std::make_shared<StorageManager>(dir);
    std::vector<Case> out;
    for (bool unbounded : {false, true}) {
      const ArraySchema schema =
          ContractSchema(unbounded ? "disk_open" : "disk", unbounded);
      DiskArray* arr = sm->CreateArray(schema).ValueOrDie();
      Rng rng(TestSeed(unbounded ? 311 : 312));
      const int64_t jmax = unbounded ? 23 : 17;
      const MemArray first = RandomCells(schema, jmax, 70, &rng);
      const MemArray second = RandomCells(schema, jmax, 30, &rng);
      EXPECT_TRUE(arr->WriteAll(first).ok());
      EXPECT_GT(arr->MergeSmallBuckets(1 << 20).ValueOrDie(), 0);
      EXPECT_TRUE(arr->WriteAll(second).ok());
      out.push_back(
          {schema.name(), sm, arr, Overlay(schema, {&first, &second})});
    }
    return out;
  }
};

// A session-catalog array.
struct CatalogKind {
  static std::vector<Case> Make(const std::string&) {
    std::vector<Case> out;
    for (bool unbounded : {false, true}) {
      const ArraySchema schema =
          ContractSchema(unbounded ? "mem_open" : "mem", unbounded);
      Rng rng(TestSeed(unbounded ? 321 : 322));
      auto array = std::make_shared<MemArray>(
          RandomCells(schema, unbounded ? 23 : 17, 60, &rng));
      auto source = std::make_shared<MemArraySource>(array);
      out.push_back({schema.name(), source, source.get(), *array});
    }
    return out;
  }
};

// A shared array pinned at an epoch with later commits on top.
struct SnapshotKind {
  static std::vector<Case> Make(const std::string&) {
    auto catalog = std::make_shared<server::SharedCatalog>();
    std::vector<Case> out;
    for (bool unbounded : {false, true}) {
      const ArraySchema schema =
          ContractSchema(unbounded ? "snap_open" : "snap", unbounded);
      EXPECT_TRUE(catalog->Define(schema).ok());
      Rng rng(TestSeed(unbounded ? 331 : 332));
      int64_t pinned = 0;
      for (int t = 0; t < 4; ++t) {
        std::vector<CellUpdate> txn;
        RandomCells(schema, unbounded ? 23 : 17, 25, &rng)
            .ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                             int64_t rank) {
              if (rng.Uniform(5) == 0) {
                txn.push_back(CellUpdate::Delete(c));
                return true;
              }
              std::vector<Value> cell;
              for (size_t at = 0; at < chunk.nattrs(); ++at) {
                cell.push_back(chunk.block(at).Get(rank));
              }
              txn.push_back(CellUpdate::Set(c, cell));
              return true;
            });
        const int64_t epoch =
            catalog->CommitCells(schema.name(), txn).ValueOrDie();
        if (t == 2) pinned = epoch;
      }
      std::shared_ptr<const ArraySource> source =
          catalog->Source(schema.name(), pinned).ValueOrDie();
      // The source reads through the catalog: keep both alive.
      auto keep = std::make_shared<
          std::pair<std::shared_ptr<server::SharedCatalog>,
                    std::shared_ptr<const ArraySource>>>(catalog, source);
      out.push_back({schema.name(), keep, source.get(),
                     catalog->SnapshotAt(schema.name(), pinned).ValueOrDie()});
    }
    return out;
  }
};

// The self-describing .sdb file.
struct SdbKind {
  static std::vector<Case> Make(const std::string& dir) {
    std::vector<Case> out;
    for (bool unbounded : {false, true}) {
      const ArraySchema schema =
          ContractSchema(unbounded ? "sdb_open" : "sdb", unbounded);
      Rng rng(TestSeed(unbounded ? 341 : 342));
      MemArray cells = RandomCells(schema, unbounded ? 23 : 17, 60, &rng);
      const std::string path = dir + "/" + schema.name() + ".sdb";
      EXPECT_TRUE(WriteSciDbFile(path, cells).ok());
      std::shared_ptr<DiskArray> file = OpenSciDbFile(path).ValueOrDie();
      out.push_back({schema.name(), file, file.get(), std::move(cells)});
    }
    return out;
  }
};

// A dense 100 x 70 double payload: 64-cell chunks, so 2 x 2 of them.
std::vector<double> DensePayload() {
  std::vector<double> data(100 * 70);
  for (size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<double>(k) / 7.0;
  }
  return data;
}

MemArray DenseCells(const ArraySchema& schema) {
  const std::vector<double> data = DensePayload();
  MemArray a(schema);
  for (int64_t i = 1; i <= 100; ++i) {
    for (int64_t j = 1; j <= 70; ++j) {
      const size_t k = static_cast<size_t>((i - 1) * 70 + j - 1);
      EXPECT_TRUE(a.SetCell({i, j}, Value(data[k])).ok());
    }
  }
  return a;
}

struct H5Kind {
  static std::vector<Case> Make(const std::string& dir) {
    const std::string path = dir + "/dense.sh5";
    EXPECT_TRUE(
        WriteH5File(path, {{"flux", {"I", "J"}, {100, 70}, DensePayload()}})
            .ok());
    std::shared_ptr<H5DatasetAdaptor> adaptor =
        H5DatasetAdaptor::Open(path, "flux", "h5").ValueOrDie();
    return {{"h5", adaptor, adaptor.get(), DenseCells(adaptor->schema())}};
  }
};

struct NcKind {
  static std::vector<Case> Make(const std::string& dir) {
    const std::string path = dir + "/dense.snc";
    NcFileContents contents;
    contents.dimensions = {{"I", 100}, {"J", 70}};
    contents.variables = {{"flux", {0, 1}, DensePayload()}};
    EXPECT_TRUE(WriteNcFile(path, contents).ok());
    std::shared_ptr<NcVariableAdaptor> adaptor =
        NcVariableAdaptor::Open(path, "flux", "nc").ValueOrDie();
    return {{"nc", adaptor, adaptor.get(), DenseCells(adaptor->schema())}};
  }
};

// Interior, chunk-straddling, empty, past the high-water mark (and past
// the bounds of bounded arrays), open-ended and whole-extent boxes.
std::vector<Box> ContractBoxes(const ArraySource& source) {
  const ArraySchema& s = source.schema();
  const int64_t ci = s.dim(0).chunk_interval;
  const int64_t cj = s.dim(1).chunk_interval;
  return {Box({2, 2}, {3, 3}),
          Box({ci - 1, cj - 1}, {ci + 2, cj + 3}),
          Box({3, 4}, {11, 12}),
          Box({6, 1}, {5, 17}),
          Box({1, 40}, {18, 60}),
          Box({5, 3}, {9, kUnboundedDim}),
          Box({-5, -5}, {2, 2}),
          source.Extent()};
}

template <typename Kind>
class ArraySourceContractTest : public ::testing::Test {};

using SourceKinds =
    ::testing::Types<DiskKind, CatalogKind, SnapshotKind, SdbKind, H5Kind,
                     NcKind>;
TYPED_TEST_SUITE(ArraySourceContractTest, SourceKinds);

TYPED_TEST(ArraySourceContractTest, RegionReadIsSubsampleOfWholeRead) {
  const std::string dir = TempDir("contract");
  {
    FunctionRegistry fns;
    ExecContext ctx;
    ctx.functions = &fns;
    for (const Case& c : TypeParam::Make(dir)) {
      SCOPED_TRACE(c.label);
      const ArraySource& source = *c.source;
      const MemArray whole = source.ReadAll().ValueOrDie();
      ExpectSameCells(c.cells, whole);
      EXPECT_EQ(whole.schema().name(), source.schema().name());
      for (int width : {1, 2, 4}) {
        ThreadPool pool(width);
        SCOPED_TRACE("width " + std::to_string(width));
        ExpectSameCells(whole, source.ReadAll(&pool).ValueOrDie());
        for (const Box& box : ContractBoxes(source)) {
          SCOPED_TRACE("box " + box.ToString());
          const MemArray want =
              Subsample(ctx, whole, BoxPredicate(source.schema(), box))
                  .ValueOrDie();
          Result<MemArray> got = source.ReadRegion(box, &pool);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got.value().schema().name(), source.schema().name());
          ExpectSameCells(want, got.value());
        }
      }
      // A box of the wrong arity is rejected, not read.
      EXPECT_TRUE(source.ReadRegion(Box({1}, {2})).status().IsInvalid());
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace scidb
