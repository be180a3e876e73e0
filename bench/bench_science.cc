// EXP-SCI (§2.15): the science tasks the paper promises ("a collection
// of tasks", later published as SS-DB). Cook, detect, regrid and the
// windowed aggregate are timed and checked end to end by ssdb_bench
// (workload ssdb_query); this suite keeps the two tasks ssdb_bench has
// no counterpart for:
//   Q4  composite— best-of-N passes by least cloud
//   Q6  history  — commit observation epochs, time-travel read
#include <benchmark/benchmark.h>

#include "cook/cooking.h"
#include "version/history.h"
#include "workloads.h"

namespace scidb {
namespace {

constexpr int64_t kSide = 192;
constexpr int64_t kChunk = 32;

void BM_Q4_Composite(benchmark::State& state) {
  // Three passes with synthetic cloud fields.
  static std::vector<MemArray>* passes = [] {
    auto* v = new std::vector<MemArray>();  // NOLINT(no-naked-new): leaky bench singleton
    Rng rng(TestSeed(3));
    ArraySchema schema(
        "pass", {{"x", 1, kSide, kChunk}, {"y", 1, kSide, kChunk}},
        {{"value", DataType::kDouble, true, false},
         {"cloud", DataType::kDouble, true, false}});
    for (int p = 0; p < 3; ++p) {
      MemArray pass(schema);
      for (int64_t i = 1; i <= kSide; ++i) {
        for (int64_t j = 1; j <= kSide; ++j) {
          SCIDB_CHECK(pass.SetCell({i, j}, {Value(rng.NextDouble() * 100),
                                            Value(rng.NextDouble())})
                          .ok());
        }
      }
      v->push_back(std::move(pass));
    }
    return v;
  }();
  for (auto _ : state) {
    auto r = Composite({&(*passes)[0], &(*passes)[1], &(*passes)[2]},
                       "cloud");
    benchmark::DoNotOptimize(r.ValueOrDie().CellCount());
  }
  state.SetItemsProcessed(state.iterations() * kSide * kSide * 3);
}
BENCHMARK(BM_Q4_Composite)->Unit(benchmark::kMillisecond);

void BM_Q6_HistoryEpoch(benchmark::State& state) {
  ArraySchema s("survey", {{"x", 1, kSide, kChunk}, {"y", 1, kSide, kChunk}},
                {{"flux", DataType::kDouble, true, false}});
  Rng rng(TestSeed(4));
  for (auto _ : state) {
    HistoryArray arr(s);
    // Three observation epochs of 2000 detections each.
    int64_t ts = 1000;
    for (int epoch = 0; epoch < 3; ++epoch) {
      std::vector<CellUpdate> txn;
      for (int k = 0; k < 2000; ++k) {
        txn.push_back(CellUpdate::Set(
            {rng.UniformInt(1, kSide), rng.UniformInt(1, kSide)},
            {Value(rng.NextDouble() * 100)}));
      }
      benchmark::DoNotOptimize(arr.Commit(txn, ts++).ValueOrDie());
    }
    // Time-travel: state as of the first epoch.
    benchmark::DoNotOptimize(arr.SnapshotAt(1).ValueOrDie().CellCount());
  }
  state.SetItemsProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_Q6_HistoryEpoch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scidb
