// Ablations for the design choices DESIGN.md §5 calls out that are not
// covered elsewhere: the logical optimizer (on/off at the session level)
// and the overlap-replication width for uncertain spatial joins.
#include <benchmark/benchmark.h>

#include "grid/cluster.h"
#include "query/session.h"
#include "workloads.h"

namespace scidb {
namespace {

// ---- logical optimizer on/off over a pushdown-friendly query ----

Session& SharedSession() {
  static Session* session = [] {
    auto* s = new Session();  // NOLINT(no-naked-new): leaky bench singleton
    SCIDB_CHECK(s->Execute("define T (v = double) (I, J)").ok());
    SCIDB_CHECK(s->Execute("create A as T [128, 128]").ok());
    auto arr = s->GetArray("A").ValueOrDie();
    Rng rng(TestSeed(9));
    for (int64_t i = 1; i <= 128; ++i) {
      for (int64_t j = 1; j <= 128; ++j) {
        SCIDB_CHECK(
            arr->SetCell({i, j}, Value(rng.NextDouble() * 100)).ok());
      }
    }
    return s;
  }();
  return *session;
}

void BM_OptimizerPushdown(benchmark::State& state) {
  bool optimize = state.range(0) == 1;
  Session& session = SharedSession();
  session.set_optimize(optimize);
  const std::string query =
      "select Subsample(Filter(Apply(A, w, v * 2 + 1), w > 50), "
      "I <= 8 and J <= 8)";
  for (auto _ : state) {
    auto r = session.Execute(query);
    benchmark::DoNotOptimize(r.ValueOrDie().array->CellCount());
  }
  state.SetLabel(optimize ? "optimized" : "naive");
}
BENCHMARK(BM_OptimizerPushdown)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- overlap replication width (PanSTARRS uncertain joins, §2.13) ----
// Wider replication bands cover larger position errors but cost storage;
// the bench reports replicated cells and extra bytes per width.

void BM_ReplicationWidth(benchmark::State& state) {
  const int64_t width = state.range(0);
  ArraySchema s("obj", {{"x", 1, 4096, 16}},
                {{"m", DataType::kDouble, true, false}});
  int64_t replicated = 0;
  size_t base_bytes = 0;
  size_t repl_bytes = 0;
  for (auto _ : state) {
    auto part = std::make_shared<RangePartitioner>(
        0, std::vector<int64_t>{1024, 2048, 3072});
    DistributedArray d(s, part);
    Rng rng(TestSeed(5));
    for (int64_t k = 0; k < 4096; ++k) {
      SCIDB_CHECK(
          d.SetCell({k + 1}, {Value(rng.NextDouble())}, 0).ok());
    }
    base_bytes = 0;
    for (int n = 0; n < d.num_nodes(); ++n) {
      base_bytes += d.shard(n).ByteSize();
    }
    replicated = d.ReplicateBoundaries(width).ValueOrDie();
    repl_bytes = 0;
    for (int n = 0; n < d.num_nodes(); ++n) {
      repl_bytes += d.shard(n).ByteSize();
    }
  }
  state.counters["replicated_cells"] = static_cast<double>(replicated);
  state.counters["extra_bytes"] =
      static_cast<double>(repl_bytes - base_bytes);
}
BENCHMARK(BM_ReplicationWidth)->Arg(0)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ---- window radius cost (the halo kernel folds O(cells * window)) ----

void BM_WindowRadius(benchmark::State& state) {
  const int64_t radius = state.range(0);
  static FunctionRegistry* fns = new FunctionRegistry();
  static AggregateRegistry* aggs = new AggregateRegistry();
  ExecContext ctx{fns, aggs, true, nullptr};
  MemArray a = bench::MakeTimeSeries(20000, 1024, 11);
  for (auto _ : state) {
    auto r = WindowAggregate(ctx, a, {radius}, "avg", "v");
    benchmark::DoNotOptimize(r.ValueOrDie().CellCount());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_WindowRadius)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scidb
