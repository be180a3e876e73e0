#include "exec/parallel.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/macros.h"

namespace scidb {

namespace {

void FoldStats(const ExecContext& ctx, const std::vector<ExecStats>& slots,
               int64_t morsels) {
  if (ctx.stats == nullptr) return;
  // Fixed index order; integer sums are order-independent but the habit
  // keeps any future float stat deterministic too.
  for (const ExecStats& s : slots) {
    ctx.stats->chunks_scanned += s.chunks_scanned;
    ctx.stats->chunks_pruned += s.chunks_pruned;
    ctx.stats->cells_visited += s.cells_visited;
  }
  ctx.stats->morsels += morsels;
  int64_t width = ctx.pool != nullptr ? ctx.pool->parallelism() : 1;
  if (ctx.max_workers > 0 && ctx.max_workers < width) {
    width = ctx.max_workers;  // per-query cap (DESIGN.md §15)
  }
  if (width > ctx.stats->parallel_workers) {
    ctx.stats->parallel_workers = width;
  }
}

}  // namespace

bool Cancelled(const ExecContext& ctx) {
  return ctx.cancel != nullptr &&
         ctx.cancel->load(std::memory_order_acquire);
}

Status CancelledStatus() {
  return Status::Cancelled("query cancelled");
}

Status ForEachChunkParallel(const ExecContext& ctx, const MemArray& in,
                            const ChunkBody& body) {
  // Snapshot the chunk map into an indexable morsel list. Pointers stay
  // valid: `in` is const for the whole run.
  std::vector<std::pair<const Coordinates*, const Chunk*>> morsels;
  morsels.reserve(in.chunks().size());
  for (const auto& [origin, chunk] : in.chunks()) {
    morsels.emplace_back(&origin, chunk.get());
  }
  std::vector<ExecStats> slots(morsels.size());
  const int64_t n = static_cast<int64_t>(morsels.size());

  // The cancel flag is polled before every morsel — in the pool path and
  // the serial path alike — so an aborted query stops within one morsel
  // (the satellite contract the server's Cancel RPC relies on).
  auto run_one = [&](int64_t i) -> Status {
    if (Cancelled(ctx)) return CancelledStatus();
    size_t idx = static_cast<size_t>(i);
    return body(idx, *morsels[idx].first, *morsels[idx].second, &slots[idx]);
  };

  Status st;
  if (ctx.pool != nullptr) {
    if (FlightRecorder::enabled()) {
      FlightRecorder::Instance().Record(
          FlightEventKind::kParallelFor, /*node=*/-1,
          static_cast<uint64_t>(morsels.size()),
          static_cast<uint64_t>(ctx.pool->parallelism()));
    }
    if (ctx.gate != nullptr) {
      // Sliced dispatch (DESIGN.md §15): at most slice_morsels() morsels
      // per gate acquisition, so concurrent queries interleave on the
      // shared pool. Slices run in index order and stop at the first
      // failing slice, which preserves the lowest-failing-index error
      // determinism of the unsliced path.
      const int64_t slice = std::max<int64_t>(1, ctx.gate->slice_morsels());
      for (int64_t start = 0; start < n; start += slice) {
        if (Cancelled(ctx)) {
          st = CancelledStatus();
          break;
        }
        st = ctx.gate->Acquire();
        if (!st.ok()) break;
        const int64_t count = std::min(slice, n - start);
        st = ctx.pool->ParallelFor(
            count, [&](int64_t i) { return run_one(start + i); },
            ctx.max_workers);
        ctx.gate->Release();
        if (!st.ok()) break;
      }
    } else {
      st = ctx.pool->ParallelFor(n, run_one, ctx.max_workers);
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      st = run_one(i);
      if (!st.ok()) break;
    }
  }
  // Stats are folded even on failure (partial progress is still progress
  // the trace should see), morsel count reflects what was dispatched.
  FoldStats(ctx, slots, n);
  return st;
}

Status ParallelChunkMap(const ExecContext& ctx, const MemArray& in,
                        MemArray* out, const ChunkKernel& kernel) {
  std::vector<std::shared_ptr<Chunk>> results(in.chunks().size());
  RETURN_NOT_OK(ForEachChunkParallel(
      ctx, in,
      [&](size_t index, const Coordinates& origin, const Chunk& chunk,
          ExecStats* stats) -> Status {
        ASSIGN_OR_RETURN(results[index], kernel(origin, chunk, stats));
        return Status::OK();
      }));
  // Single-threaded assembly in origin order; empty outputs are dropped so
  // the chunk map matches what cell-at-a-time SetCell would have built.
  size_t index = 0;
  auto* chunks = out->mutable_chunks();
  for (const auto& [origin, chunk] : in.chunks()) {
    std::shared_ptr<Chunk>& produced = results[index++];
    if (produced == nullptr || produced->present_count() == 0) continue;
    chunks->emplace(origin, std::move(produced));
  }
  return Status::OK();
}

}  // namespace scidb
