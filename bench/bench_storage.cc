// EXP-CHUNK (§2.8): storage-manager benchmarks — chunk-size sweep for
// write/scan paths, codec comparison on science-like payloads, the decode
// layer split into codec and serde rates, the background-merge ablation
// (fragmented vs merged reads), and the R-tree chunk-pruning ablation for
// Subsample (DESIGN.md §5).
#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>

#include "exec/operators.h"
#include "storage/chunk_serde.h"
#include "storage/codec.h"
#include "storage/storage_manager.h"
#include "workloads.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

ExecContext Ctx() {
  static FunctionRegistry* fns = new FunctionRegistry();
  static AggregateRegistry* aggs = new AggregateRegistry();
  return ExecContext{fns, aggs, true, nullptr};
}

std::string BenchDir() {
  static std::string* dir = [] {
    auto* d = new std::string(  // NOLINT(no-naked-new): leaky bench singleton
        (fs::temp_directory_path() /
         ("scidb_bench_storage_" + std::to_string(::getpid())))
            .string());
    fs::create_directories(*d);
    return d;
  }();
  return *dir;
}

// ---- chunk size sweep ----

void BM_CellWrite_ChunkSize(benchmark::State& state) {
  const int64_t n = 256;
  const int64_t chunk = state.range(0);
  for (auto _ : state) {
    MemArray a = bench::MakeSparseArray(n, chunk, 20000, 42);
    benchmark::DoNotOptimize(a.CellCount());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_CellWrite_ChunkSize)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

void BM_FullScan_ChunkSize(benchmark::State& state) {
  const int64_t n = 256;
  MemArray a = bench::MakeSkyImage(n, state.range(0), 10, 42);
  for (auto _ : state) {
    double sum = 0;
    a.ForEachCell([&](const Coordinates&, const Chunk& c, int64_t rank) {
      sum += c.block(0).GetDouble(rank);
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_FullScan_ChunkSize)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

// ---- codec sweep on disk ----

void BM_DiskWrite_Codec(benchmark::State& state) {
  CodecType codec = static_cast<CodecType>(state.range(0));
  MemArray data = bench::MakeSkyImage(128, 32, 10, 42);
  int64_t bytes = 0;
  int64_t logical = 0;
  int run = 0;
  for (auto _ : state) {
    std::string name =
        std::string("codec_") + CodecTypeName(codec) + std::to_string(run++);
    StorageManager sm(BenchDir());
    ArraySchema s = data.schema();
    s.set_name(name);
    MemArray copy(s);
    data.ForEachCell([&](const Coordinates& c, const Chunk& ch,
                         int64_t rank) {
      SCIDB_CHECK(copy.SetCell(c, ch.block(0).Get(rank)).ok());
      return true;
    });
    DiskArray* arr = sm.CreateArray(s, codec).ValueOrDie();
    SCIDB_CHECK(arr->WriteAll(copy).ok());
    bytes = arr->stats().bytes_written;
    logical = arr->stats().bytes_logical;
    SCIDB_CHECK(sm.DropArray(name).ok());
  }
  state.counters["disk_bytes"] = static_cast<double>(bytes);
  state.counters["compression_ratio"] =
      bytes ? static_cast<double>(logical) / static_cast<double>(bytes) : 0;
  state.SetLabel(CodecTypeName(codec));
}
BENCHMARK(BM_DiskWrite_Codec)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_DiskRead_Codec(benchmark::State& state) {
  CodecType codec = static_cast<CodecType>(state.range(0));
  std::string name = std::string("read_codec_") + CodecTypeName(codec);
  StorageManager sm(BenchDir());
  MemArray data = bench::MakeSkyImage(128, 32, 10, 42);
  ArraySchema s = data.schema();
  s.set_name(name);
  MemArray copy(s);
  data.ForEachCell([&](const Coordinates& c, const Chunk& ch, int64_t rank) {
    SCIDB_CHECK(copy.SetCell(c, ch.block(0).Get(rank)).ok());
    return true;
  });
  DiskArray* arr = sm.OpenOrCreateArray(s, codec).ValueOrDie();
  SCIDB_CHECK(arr->WriteAll(copy).ok());
  for (auto _ : state) {
    MemArray back = arr->ReadAll().ValueOrDie();
    benchmark::DoNotOptimize(back.CellCount());
  }
  state.SetLabel(CodecTypeName(codec));
  state.SetItemsProcessed(state.iterations() * 128 * 128);
}
BENCHMARK(BM_DiskRead_Codec)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// ---- the decode layer, split: codec MB/s and serde MB/s ----

// The bench sky image quantized to 1/64, so the codecs see the repetition
// real instrument counts have; one attribute per DeserializeChunk case.
// Kind 0 double, 1 int64, 2 uncertain double (varying stderr), 3 string.
std::vector<AttributeDesc> DecodeBenchAttrs(int kind) {
  const char* names[] = {"double", "int64", "uncertain", "string"};
  const DataType types[] = {DataType::kDouble, DataType::kInt64,
                            DataType::kDouble, DataType::kString};
  return {{names[kind], types[kind], true, kind == 2}};
}

std::vector<Chunk> DecodeBenchChunks(int kind) {
  const std::vector<AttributeDesc> attrs = DecodeBenchAttrs(kind);
  MemArray sky = bench::MakeSkyImage(256, 64, 10, 42);
  std::vector<Chunk> out;
  for (const auto& [origin, src] : sky.chunks()) {
    Chunk c(src->box(), attrs);
    for (Chunk::CellIterator it(*src); it.valid(); it.Next()) {
      const double v = std::round(src->block(0).GetDouble(it.rank()) * 64) / 64;
      Value x;
      switch (kind) {
        case 0:
          x = Value(v);
          break;
        case 1:
          x = Value(static_cast<int64_t>(std::llround(v * 64)));
          break;
        case 2:
          x = Value(Uncertain(v, std::round(std::sqrt(std::fabs(v)) * 8) / 64));
          break;
        default:
          x = Value(std::to_string(std::llround(v)));
          break;
      }
      c.SetCell(it.coords(), {x});
    }
    out.push_back(std::move(c));
  }
  return out;
}

void BM_Decompress_Codec(benchmark::State& state) {
  const CodecType codec = static_cast<CodecType>(state.range(0));
  std::vector<std::vector<uint8_t>> payloads;
  int64_t raw_bytes = 0;
  for (const Chunk& c : DecodeBenchChunks(0)) {
    std::vector<uint8_t> raw = SerializeChunk(c);
    raw_bytes += static_cast<int64_t>(raw.size());
    payloads.push_back(Compress(codec, raw));
  }
  for (auto _ : state) {
    for (const auto& p : payloads) {
      benchmark::DoNotOptimize(Decompress(p).ValueOrDie().data());
    }
  }
  state.SetBytesProcessed(state.iterations() * raw_bytes);
  state.SetLabel(CodecTypeName(codec));
}
BENCHMARK(BM_Decompress_Codec)->Arg(0)->Arg(1)->Arg(2);

void BM_DeserializeChunk_Type(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const std::vector<AttributeDesc> attrs = DecodeBenchAttrs(kind);
  std::vector<std::vector<uint8_t>> raws;
  int64_t raw_bytes = 0;
  for (const Chunk& c : DecodeBenchChunks(kind)) {
    raws.push_back(SerializeChunk(c));
    raw_bytes += static_cast<int64_t>(raws.back().size());
  }
  for (auto _ : state) {
    for (const auto& raw : raws) {
      benchmark::DoNotOptimize(
          DeserializeChunk(raw, attrs).ValueOrDie().present_count());
    }
  }
  state.SetBytesProcessed(state.iterations() * raw_bytes);
  state.SetLabel(attrs[0].name);
}
BENCHMARK(BM_DeserializeChunk_Type)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// ---- background merge ablation ----

void BM_RegionRead_Fragmentation(benchmark::State& state) {
  bool merged = state.range(0) == 1;
  std::string name = merged ? "merged" : "fragmented";
  StorageManager sm(BenchDir() + "/" + name);
  ArraySchema s("ts", {{"t", 1, 100000, 64}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.OpenOrCreateArray(s).ValueOrDie();
  if (arr->bucket_count() == 0) {
    // Trickle-load: tiny buckets, the worst case §2.8's merge fixes.
    Rng rng(TestSeed(1));
    MemArray buf(s);
    for (int64_t t = 1; t <= 20000; ++t) {
      SCIDB_CHECK(buf.SetCell({t}, Value(rng.NextDouble())).ok());
      if (t % 64 == 0) {
        SCIDB_CHECK(arr->WriteAll(buf).ok());
        buf = MemArray(s);
      }
    }
    if (merged) {
      while (arr->MergeSmallBuckets(1 << 16).ValueOrDie() > 0) {
      }
    }
  }
  for (auto _ : state) {
    MemArray r = arr->ReadRegion(Box({5000}, {15000})).ValueOrDie();
    benchmark::DoNotOptimize(r.CellCount());
  }
  state.counters["buckets"] = static_cast<double>(arr->bucket_count());
  state.SetLabel(merged ? "after_merge" : "fragmented");
}
BENCHMARK(BM_RegionRead_Fragmentation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- R-tree pruning ablation for Subsample ----

void BM_Subsample_Pruning(benchmark::State& state) {
  bool pruning = state.range(0) == 1;
  ExecContext ctx = Ctx();
  ctx.enable_chunk_pruning = pruning;
  MemArray a = bench::MakeSkyImage(256, 16, 10, 42);
  ExprPtr pred = And(And(Ge(Ref("I"), Lit(int64_t{17})),
                         Le(Ref("I"), Lit(int64_t{48}))),
                     And(Ge(Ref("J"), Lit(int64_t{17})),
                         Le(Ref("J"), Lit(int64_t{48}))));
  ExecStats stats;
  ctx.stats = &stats;
  for (auto _ : state) {
    auto r = Subsample(ctx, a, pred);
    benchmark::DoNotOptimize(r.ValueOrDie().CellCount());
  }
  state.counters["chunks_scanned"] =
      static_cast<double>(stats.chunks_scanned) /
      static_cast<double>(state.iterations());
  state.counters["chunks_pruned"] =
      static_cast<double>(stats.chunks_pruned) /
      static_cast<double>(state.iterations());
  state.SetLabel(pruning ? "pruned" : "scan_all");
}
BENCHMARK(BM_Subsample_Pruning)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// ---- streaming loader flush behaviour ----

void BM_StreamLoader(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0)) * 1024;
  ArraySchema s("stream", {{"t", 1, kUnboundedDim, 256}},
                {{"v", DataType::kDouble, true, false}});
  int64_t flushes = 0;
  size_t buckets = 0;
  int64_t stored = 0;
  int run = 0;
  for (auto _ : state) {
    std::string dir = BenchDir() + "/loader" + std::to_string(run++);
    StorageManager sm(dir);
    DiskArray* arr = sm.CreateArray(s).ValueOrDie();
    StreamLoader loader(arr, budget);
    Rng rng(TestSeed(2));
    for (int64_t t = 1; t <= 20000; ++t) {
      SCIDB_CHECK(loader.Append({t}, {Value(rng.NextDouble())}).ok());
    }
    SCIDB_CHECK(loader.Finish().ok());
    flushes = loader.flushes();
    buckets = arr->bucket_count();
    stored = arr->LiveBytes();
    fs::remove_all(dir);
  }
  state.counters["flushes"] = static_cast<double>(flushes);
  state.counters["buckets"] = static_cast<double>(buckets);
  state.counters["stored_bytes_per_cell"] = static_cast<double>(stored) / 20000;
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_StreamLoader)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// ---- chunk cache ablation ----

void BM_RegionRead_Cache(benchmark::State& state) {
  bool cached = state.range(0) == 1;
  std::string name = cached ? "cache_on" : "cache_off";
  StorageManager sm(BenchDir() + "/" + name);
  ArraySchema s("img", {{"x", 1, 256, 32}, {"y", 1, 256, 32}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.OpenOrCreateArray(s).ValueOrDie();
  if (arr->bucket_count() == 0) {
    MemArray data = bench::MakeSkyImage(256, 32, 10, 42);
    MemArray copy(s);
    data.ForEachCell([&](const Coordinates& c, const Chunk& ch,
                         int64_t rank) {
      SCIDB_CHECK(copy.SetCell(c, ch.block(0).Get(rank)).ok());
      return true;
    });
    SCIDB_CHECK(arr->WriteAll(copy).ok());
  }
  if (cached) arr->EnableCache(64 << 20);
  Rng rng(TestSeed(3));
  for (auto _ : state) {
    int64_t x = rng.UniformInt(1, 192);
    int64_t y = rng.UniformInt(1, 192);
    MemArray r =
        arr->ReadRegion(Box({x, y}, {x + 63, y + 63})).ValueOrDie();
    benchmark::DoNotOptimize(r.CellCount());
  }
  if (cached && arr->cache() != nullptr) {
    const auto& cs = arr->cache()->stats();
    state.counters["hit_rate"] =
        cs.hits + cs.misses
            ? static_cast<double>(cs.hits) / (cs.hits + cs.misses)
            : 0;
  }
  state.SetLabel(cached ? "lru_cache" : "no_cache");
}
BENCHMARK(BM_RegionRead_Cache)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scidb
