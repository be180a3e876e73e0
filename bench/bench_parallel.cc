// Morsel-parallel scaling curves (ISSUE 3, DESIGN.md §8): scan / filter /
// aggregate over a multi-chunk stored array at pool widths 1/2/4/8. The
// perf-trajectory record is the google-benchmark JSON output — run
//
//   ./build/bench/bench_parallel --benchmark_out=BENCH_parallel.json
//       --benchmark_out_format=json
//
// and compare `real_time` across the `/1 /2 /4 /8` width suffixes. On a
// machine with >= 8 cores the filter+aggregate pipeline is expected to
// show >= 2.5x at width 8; on fewer cores the curve flattens at the core
// count (the pool never oversubscribes usefully — morsels are CPU-bound).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "exec/operators.h"
#include "storage/storage_manager.h"
#include "workloads.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kN = 512;      // 512 x 512 cells
constexpr int64_t kChunk = 64;   // 8 x 8 = 64 chunk-morsels

ExecContext Ctx(ThreadPool* pool) {
  static FunctionRegistry* fns = new FunctionRegistry();
  static AggregateRegistry* aggs = new AggregateRegistry();
  ExecContext ctx;
  ctx.functions = fns;
  ctx.aggregates = aggs;
  ctx.pool = pool;
  return ctx;
}

const MemArray& SkyArray() {
  static MemArray* a =
      new MemArray(bench::MakeSkyImage(kN, kChunk, 20, 42));  // NOLINT(no-naked-new): leaky bench singleton
  return *a;
}

// A stored (on-disk) copy of the sky image, read back through the chunk
// cache: the parallel-scan benchmark measures ReadAll's bucket decode.
DiskArray* StoredSky() {
  // The StorageManager (which owns the DiskArray) stays reachable through
  // this static for the life of the process; benches share one copy.
  static StorageManager* sm = [] {
    std::string dir = (fs::temp_directory_path() /
                       ("scidb_bench_parallel_" + std::to_string(::getpid())))
                          .string();
    fs::create_directories(dir);
    return new StorageManager(dir);  // NOLINT(no-naked-new): leaky bench singleton
  }();
  static DiskArray* disk = [] {
    DiskArray* da =
        sm->CreateArray(SkyArray().schema(), CodecType::kLz).ValueOrDie();
    Status st = da->WriteAll(SkyArray());
    SCIDB_CHECK(st.ok()) << st.ToString();
    return da;
  }();
  return disk;
}

// Per-width pools are created once: ThreadPool startup (N-1 std::thread
// spawns) is not what these benchmarks measure.
ThreadPool* PoolOfWidth(int width) {
  static std::map<int, ThreadPool*>* pools =
      new std::map<int, ThreadPool*>();  // NOLINT(no-naked-new): leaky bench singleton
  auto it = pools->find(width);
  if (it == pools->end()) {
    it = pools->emplace(width, new ThreadPool(width)).first;  // NOLINT(no-naked-new): pools leak by design; teardown races the bench timer
  }
  return it->second;
}

// ---- parallel stored-array scan (StorageManager::ReadAll) ----

void BM_ParallelScan_Stored(benchmark::State& state) {
  DiskArray* disk = StoredSky();
  ThreadPool* pool = PoolOfWidth(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = disk->ReadAll(pool);
    SCIDB_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r.value().CellCount());
  }
  state.SetItemsProcessed(state.iterations() * kN * kN);
}
BENCHMARK(BM_ParallelScan_Stored)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- parallel filter ----

void BM_ParallelFilter(benchmark::State& state) {
  const MemArray& sky = SkyArray();
  ThreadPool* pool = PoolOfWidth(static_cast<int>(state.range(0)));
  ExecContext ctx = Ctx(pool);
  ExprPtr pred = Gt(Ref("flux"), Lit(12.0));
  for (auto _ : state) {
    auto r = Filter(ctx, sky, pred);
    SCIDB_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r.value().CellCount());
  }
  state.SetItemsProcessed(state.iterations() * kN * kN);
}
BENCHMARK(BM_ParallelFilter)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- parallel apply ----

void BM_ParallelApply(benchmark::State& state) {
  const MemArray& sky = SkyArray();
  ThreadPool* pool = PoolOfWidth(static_cast<int>(state.range(0)));
  ExecContext ctx = Ctx(pool);
  ExprPtr cook = Sub(Mul(Ref("flux"), Lit(1.7)), Lit(17.0));
  for (auto _ : state) {
    auto r = Apply(ctx, sky, "cal", DataType::kDouble, cook);
    SCIDB_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r.value().CellCount());
  }
  state.SetItemsProcessed(state.iterations() * kN * kN);
}
BENCHMARK(BM_ParallelApply)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- parallel group-by aggregate ----

void BM_ParallelAggregate(benchmark::State& state) {
  const MemArray& sky = SkyArray();
  ThreadPool* pool = PoolOfWidth(static_cast<int>(state.range(0)));
  ExecContext ctx = Ctx(pool);
  for (auto _ : state) {
    auto r = Aggregate(ctx, sky, {"I"}, "avg", "flux");
    SCIDB_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r.value().CellCount());
  }
  state.SetItemsProcessed(state.iterations() * kN * kN);
}
BENCHMARK(BM_ParallelAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- the acceptance pipeline: filter + aggregate over the stored array ----

void BM_ParallelFilterAggregate_Stored(benchmark::State& state) {
  DiskArray* disk = StoredSky();
  ThreadPool* pool = PoolOfWidth(static_cast<int>(state.range(0)));
  ExecContext ctx = Ctx(pool);
  ExprPtr pred = Gt(Ref("flux"), Lit(12.0));
  for (auto _ : state) {
    auto in = disk->ReadAll(pool);
    SCIDB_CHECK(in.ok()) << in.status().ToString();
    auto filtered = Filter(ctx, in.value(), pred);
    SCIDB_CHECK(filtered.ok()) << filtered.status().ToString();
    auto agg = Aggregate(ctx, filtered.value(), {"I"}, "sum", "flux");
    SCIDB_CHECK(agg.ok()) << agg.status().ToString();
    benchmark::DoNotOptimize(agg.value().CellCount());
  }
  state.SetItemsProcessed(state.iterations() * kN * kN);
}
BENCHMARK(BM_ParallelFilterAggregate_Stored)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- raw pool dispatch overhead (empty-ish morsels) ----

void BM_PoolDispatchOverhead(benchmark::State& state) {
  ThreadPool* pool = PoolOfWidth(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Status st = pool->ParallelFor(64, [](int64_t i) -> Status {
      benchmark::DoNotOptimize(i);
      return Status::OK();
    });
    SCIDB_CHECK(st.ok());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PoolDispatchOverhead)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace scidb
