// EXP-SITU (§2.9): "I am looking forward to getting something done, but I
// am still trying to load my data." Time-to-first-answer for a windowed
// query: (a) full load into the storage manager then query, vs (b)
// in-situ region read of only the window. Also the crossover: repeated
// queries amortize the load.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "exec/operators.h"
#include "insitu/formats.h"
#include "storage/storage_manager.h"
#include "workloads.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kSide = 256;
constexpr int64_t kChunk = 32;

struct Files {
  Files() {
    dir = (fs::temp_directory_path() /
           ("scidb_bench_insitu_" + std::to_string(::getpid())))
              .string();
    fs::create_directories(dir);
    sdb_path = dir + "/external.sdb";
    MemArray data = bench::MakeSkyImage(kSide, kChunk, 10, 42);
    SCIDB_CHECK(WriteSciDbFile(sdb_path, data).ok());
  }
  ~Files() { fs::remove_all(dir); }
  std::string dir;
  std::string sdb_path;
};

Files& SharedFiles() {
  static Files* files = new Files();
  return *files;
}

ExecContext Ctx() {
  static FunctionRegistry* fns = new FunctionRegistry();
  static AggregateRegistry* aggs = new AggregateRegistry();
  return ExecContext{fns, aggs, true, nullptr};
}

// Window query against an in-memory (loaded) array: a pruned Subsample.
MemArray QueryWindow(const MemArray& a, const Box& w) {
  ExprPtr pred = And(And(Ge(Ref("I"), Lit(w.low[0])),
                         Le(Ref("I"), Lit(w.high[0]))),
                     And(Ge(Ref("J"), Lit(w.low[1])),
                         Le(Ref("J"), Lit(w.high[1]))));
  ExecContext ctx = Ctx();
  return Subsample(ctx, a, pred).ValueOrDie();
}

double SumRegion(const MemArray& a) {
  double sum = 0;
  a.ForEachCell([&](const Coordinates&, const Chunk& c, int64_t rank) {
    sum += c.block(0).GetDouble(rank);
    return true;
  });
  return sum;
}

// (a) Load-then-query: ingest the whole external file into the storage
// manager, then answer the window query from the DiskArray.
void BM_LoadThenQuery(benchmark::State& state) {
  Files& files = SharedFiles();
  Box window({1, 1}, {32, 32});
  for (auto _ : state) {
    std::string load_dir = files.dir + "/loaded";
    fs::remove_all(load_dir);
    StorageManager sm(load_dir);
    auto ext = OpenSciDbFile(files.sdb_path).ValueOrDie();
    MemArray all = ext->ReadAll().ValueOrDie();          // the load stage
    DiskArray* arr = sm.CreateArray(all.schema()).ValueOrDie();
    SCIDB_CHECK(arr->WriteAll(all).ok());
    MemArray region = arr->ReadRegion(window).ValueOrDie();
    benchmark::DoNotOptimize(SumRegion(region));
  }
  state.SetLabel("load_then_query");
}
BENCHMARK(BM_LoadThenQuery)->Unit(benchmark::kMillisecond);

// (b) In-situ: open the foreign file and read just the window.
void BM_InSituQuery(benchmark::State& state) {
  Files& files = SharedFiles();
  Box window({1, 1}, {32, 32});
  for (auto _ : state) {
    auto ext = OpenSciDbFile(files.sdb_path).ValueOrDie();
    MemArray region = ext->ReadRegion(window).ValueOrDie();
    benchmark::DoNotOptimize(SumRegion(region));
  }
  state.SetLabel("in_situ");
}
BENCHMARK(BM_InSituQuery)->Unit(benchmark::kMillisecond);

// Crossover: k window queries. In-situ pays per query; loading pays once.
void BM_RepeatedQueries(benchmark::State& state) {
  Files& files = SharedFiles();
  const int64_t queries = state.range(0);
  const bool in_situ = state.range(1) == 1;
  Rng rng(TestSeed(5));
  for (auto _ : state) {
    if (in_situ) {
      auto ext = OpenSciDbFile(files.sdb_path).ValueOrDie();
      for (int64_t q = 0; q < queries; ++q) {
        int64_t x = rng.UniformInt(1, kSide - 32);
        int64_t y = rng.UniformInt(1, kSide - 32);
        MemArray r =
            ext->ReadRegion(Box({x, y}, {x + 31, y + 31})).ValueOrDie();
        benchmark::DoNotOptimize(SumRegion(r));
      }
    } else {
      // Load once (the expensive part), then answer every query from the
      // loaded in-memory array.
      auto ext = OpenSciDbFile(files.sdb_path).ValueOrDie();
      MemArray all = ext->ReadAll().ValueOrDie();
      for (int64_t q = 0; q < queries; ++q) {
        int64_t x = rng.UniformInt(1, kSide - 32);
        int64_t y = rng.UniformInt(1, kSide - 32);
        MemArray r = QueryWindow(all, Box({x, y}, {x + 31, y + 31}));
        benchmark::DoNotOptimize(SumRegion(r));
      }
    }
  }
  state.SetLabel(in_situ ? "in_situ" : "load_then_query");
}
BENCHMARK(BM_RepeatedQueries)
    ->Args({1, 1})->Args({1, 0})
    ->Args({16, 1})->Args({16, 0})
    ->Args({64, 1})->Args({64, 0})
    ->Unit(benchmark::kMillisecond);

// Adaptor overhead: H5-like adaptor vs native .sdb region read.
void BM_H5AdaptorRead(benchmark::State& state) {
  Files& files = SharedFiles();
  std::string h5_path = files.dir + "/image.sh5";
  {
    H5Dataset ds;
    ds.name = "image";
    ds.dim_names = {"I", "J"};
    ds.shape = {kSide, kSide};
    Rng rng(TestSeed(6));
    for (int64_t k = 0; k < kSide * kSide; ++k) {
      ds.data.push_back(rng.NextDouble());
    }
    SCIDB_CHECK(WriteH5File(h5_path, {ds}).ok());
  }
  auto adaptor =
      H5DatasetAdaptor::Open(h5_path, "image", "img").ValueOrDie();
  for (auto _ : state) {
    MemArray r = adaptor->ReadRegion(Box({1, 1}, {32, 32})).ValueOrDie();
    benchmark::DoNotOptimize(SumRegion(r));
  }
  state.SetLabel("h5_adaptor");
}
BENCHMARK(BM_H5AdaptorRead)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scidb
