#ifndef SCIDB_EXEC_PARALLEL_H_
#define SCIDB_EXEC_PARALLEL_H_

#include <functional>
#include <memory>

#include "array/mem_array.h"
#include "common/macros.h"
#include "common/result.h"
#include "exec/operators.h"

namespace scidb {

// Morsel drivers for chunk-parallel operators (DESIGN.md §8). The morsel
// is one input chunk; kernels see exactly one chunk and share nothing, so
// an operator is parallel-safe iff its kernel (a) reads only its chunk and
// read-only shared state, and (b) writes only its own return value / its
// own per-morsel slot. Result assembly is always single-threaded and in
// chunk-map (origin) order, which makes output — including every
// floating-point merge — independent of the pool width.

// The one cancel check of every operator path: true once ctx.cancel is
// set. ForEachChunkParallel polls it before each morsel, WalkCells before
// each input chunk; a cancelled operator returns CancelledStatus().
[[nodiscard]] bool Cancelled(const ExecContext& ctx);
Status CancelledStatus();

// The serial cell walk of the remapping operators: calls
// fn(coords, chunk, rank) -> Status on every present cell of `in` in
// (chunk, row-major) order, polling Cancelled() before each chunk, and
// stops at the first error.
template <typename Fn>
[[nodiscard]] Status WalkCells(const ExecContext& ctx, const MemArray& in,
                               Fn&& fn) {
  for (const auto& [origin, chunk] : in.chunks()) {
    if (Cancelled(ctx)) return CancelledStatus();
    for (Chunk::CellIterator it(*chunk); it.valid(); it.Next()) {
      RETURN_NOT_OK(fn(it.coords(), *chunk, it.rank()));
    }
  }
  return Status::OK();
}

// Per-chunk body for ForEachChunkParallel. `index` is the chunk's position
// in the input's sorted chunk map (the serial visitation order); `stats`
// is a private per-morsel slot, folded into ctx.stats in index order
// afterwards.
using ChunkBody = std::function<Status(
    size_t index, const Coordinates& origin, const Chunk& chunk,
    ExecStats* stats)>;

// Runs `body` once per chunk of `in`, spread over ctx.pool (serially when
// the pool is null or width 1). On failure returns the Status of the
// lowest-index failing chunk — the same chunk a serial scan fails on
// first. Records morsel/worker counts in ctx.stats.
[[nodiscard]] Status ForEachChunkParallel(const ExecContext& ctx,
                                          const MemArray& in,
                                          const ChunkBody& body);

// Per-chunk kernel for ParallelChunkMap: returns the output chunk for one
// input chunk, or null when the chunk produces nothing. The output chunk's
// box must equal the input chunk's box (dimension-preserving operators
// only — Filter, Apply, Project, Subsample, Window).
using ChunkKernel = std::function<Result<std::shared_ptr<Chunk>>(
    const Coordinates& origin, const Chunk& chunk, ExecStats* stats)>;

// Maps every chunk of `in` through `kernel` and assembles the surviving
// (non-null, non-empty) outputs into `out`'s chunk map in origin order.
[[nodiscard]] Status ParallelChunkMap(const ExecContext& ctx,
                                      const MemArray& in, MemArray* out,
                                      const ChunkKernel& kernel);

}  // namespace scidb

#endif  // SCIDB_EXEC_PARALLEL_H_
