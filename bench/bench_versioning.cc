// EXP-VER + EXP-HIST (§2.5, §2.11): named-version space cost (delta vs
// full copy), read overhead vs version-chain depth, no-overwrite update
// throughput, and time-travel read cost vs history depth.
#include <benchmark/benchmark.h>

#include "storage/chunk_serde.h"
#include "version/named_version.h"
#include "workloads.h"

namespace scidb {
namespace {

constexpr int64_t kSide = 64;

ArraySchema GridSchema() {
  return ArraySchema("base", {{"x", 1, kSide, 16}, {"y", 1, kSide, 16}},
                     {{"v", DataType::kDouble, true, false}});
}

std::vector<CellUpdate> FullLoad(uint64_t seed) {
  Rng rng(TestSeed(seed));
  std::vector<CellUpdate> updates;
  for (int64_t x = 1; x <= kSide; ++x) {
    for (int64_t y = 1; y <= kSide; ++y) {
      updates.push_back(CellUpdate::Set({x, y}, {Value(rng.NextDouble())}));
    }
  }
  return updates;
}

// Space: N versions each diverging in 1% of cells, stored as deltas vs
// materialized copies.
void BM_VersionSpace(benchmark::State& state) {
  const int versions = static_cast<int>(state.range(0));
  const bool materialize = state.range(1) == 1;
  size_t delta_bytes = 0;
  size_t base_bytes = 0;
  for (auto _ : state) {
    VersionTree tree(GridSchema());
    SCIDB_CHECK(tree.Commit("", FullLoad(1), 1000).ok());
    Rng rng(TestSeed(2));
    std::string parent;
    for (int v = 0; v < versions; ++v) {
      std::string name = "v";
      name += std::to_string(v);
      SCIDB_CHECK(tree.CreateVersion(name, parent).ok());
      std::vector<CellUpdate> patch;
      for (int k = 0; k < kSide * kSide / 100; ++k) {
        patch.push_back(CellUpdate::Set(
            {rng.UniformInt(1, kSide), rng.UniformInt(1, kSide)},
            {Value(rng.NextDouble())}));
      }
      SCIDB_CHECK(tree.Commit(name, patch, 2000 + v).ok());
      if (materialize) SCIDB_CHECK(tree.MaterializeVersion(name).ok());
      parent = name;
    }
    // Persisted (serialized) delta size — the §2.11 space claim is about
    // storage, not chunk-capacity-granular memory.
    auto serialized_bytes = [&](const std::string& name) {
      const HistoryArray* h = tree.VersionHistory(name).ValueOrDie();
      size_t bytes = 0;
      for (int64_t l = 1; l <= h->current_history(); ++l) {
        for (const auto& [origin, chunk] : h->layer_delta(l).chunks()) {
          if (chunk->present_count() > 0) {
            bytes += SerializeChunk(*chunk).size();
          }
        }
      }
      return bytes;
    };
    delta_bytes = 0;
    for (int v = 0; v < versions; ++v) {
      delta_bytes +=
          serialized_bytes(std::string("v").append(std::to_string(v)));
    }
    base_bytes = serialized_bytes("");
  }
  state.counters["version_bytes"] = static_cast<double>(delta_bytes);
  state.counters["base_bytes"] = static_cast<double>(base_bytes);
  state.counters["bytes_per_version"] =
      versions ? static_cast<double>(delta_bytes) / versions : 0;
  state.SetLabel(materialize ? "materialized_copies" : "deltas");
}
BENCHMARK(BM_VersionSpace)
    ->Args({4, 0})->Args({4, 1})->Args({16, 0})->Args({16, 1})
    ->Unit(benchmark::kMillisecond);

// Read latency vs chain depth: a chain of D versions, each read walks to
// the base for cells it never touched.
void BM_VersionChainRead(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  VersionTree tree(GridSchema());
  SCIDB_CHECK(tree.Commit("", FullLoad(1), 1000).ok());
  std::string parent;
  Rng rng(TestSeed(3));
  for (int v = 0; v < depth; ++v) {
    std::string name = "v";
    name += std::to_string(v);
    SCIDB_CHECK(tree.CreateVersion(name, parent).ok());
    SCIDB_CHECK(tree.Commit(name,
                            {CellUpdate::Set({rng.UniformInt(1, kSide),
                                              rng.UniformInt(1, kSide)},
                                             {Value(1.0)})},
                            2000 + v)
                    .ok());
    parent = name;
  }
  std::string leaf = parent.empty() ? "" : parent;
  Rng read_rng(4);
  for (auto _ : state) {
    Coordinates c{read_rng.UniformInt(1, kSide),
                  read_rng.UniformInt(1, kSide)};
    benchmark::DoNotOptimize(tree.GetCell(leaf, c).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionChainRead)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Materialization ablation: same chain, leaf materialized first.
void BM_MaterializedLeafRead(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  VersionTree tree(GridSchema());
  SCIDB_CHECK(tree.Commit("", FullLoad(1), 1000).ok());
  std::string parent;
  Rng rng(TestSeed(3));
  for (int v = 0; v < depth; ++v) {
    std::string name = "v";
    name += std::to_string(v);
    SCIDB_CHECK(tree.CreateVersion(name, parent).ok());
    SCIDB_CHECK(tree.Commit(name,
                            {CellUpdate::Set({rng.UniformInt(1, kSide),
                                              rng.UniformInt(1, kSide)},
                                             {Value(1.0)})},
                            2000 + v)
                    .ok());
    parent = name;
  }
  SCIDB_CHECK(tree.MaterializeVersion(parent).ok());
  Rng read_rng(4);
  for (auto _ : state) {
    Coordinates c{read_rng.UniformInt(1, kSide),
                  read_rng.UniformInt(1, kSide)};
    benchmark::DoNotOptimize(tree.GetCell(parent, c).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaterializedLeafRead)->Arg(16)->Arg(64);

// No-overwrite commit throughput (history layers accumulate).
void BM_HistoryCommit(benchmark::State& state) {
  const int64_t cells_per_txn = state.range(0);
  HistoryArray arr(GridSchema());
  Rng rng(TestSeed(5));
  int64_t ts = 1000;
  for (auto _ : state) {
    std::vector<CellUpdate> txn;
    for (int64_t k = 0; k < cells_per_txn; ++k) {
      txn.push_back(CellUpdate::Set(
          {rng.UniformInt(1, kSide), rng.UniformInt(1, kSide)},
          {Value(rng.NextDouble())}));
    }
    benchmark::DoNotOptimize(arr.Commit(txn, ts++).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * cells_per_txn);
  state.counters["history_depth"] =
      static_cast<double>(arr.current_history());
}
BENCHMARK(BM_HistoryCommit)->Arg(1)->Arg(64)->Arg(1024);

// Time-travel read cost as history deepens: reading "as of h" scans
// layers newest-first from h.
void BM_TimeTravelRead(benchmark::State& state) {
  const int64_t depth = state.range(0);
  HistoryArray arr(GridSchema());
  Rng rng(TestSeed(6));
  for (int64_t h = 0; h < depth; ++h) {
    SCIDB_CHECK(arr.Commit({CellUpdate::Set({rng.UniformInt(1, kSide),
                                             rng.UniformInt(1, kSide)},
                                            {Value(1.0)})},
                           1000 + h)
                    .ok());
  }
  Rng read_rng(7);
  for (auto _ : state) {
    Coordinates c{read_rng.UniformInt(1, kSide),
                  read_rng.UniformInt(1, kSide)};
    benchmark::DoNotOptimize(
        arr.GetCellAt(c, depth).ValueOrDie().has_value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeTravelRead)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace scidb
