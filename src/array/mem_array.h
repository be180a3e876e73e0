#ifndef SCIDB_ARRAY_MEM_ARRAY_H_
#define SCIDB_ARRAY_MEM_ARRAY_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "array/chunk.h"
#include "array/coordinates.h"
#include "array/schema.h"
#include "common/result.h"

namespace scidb {

// In-memory chunked array: the operand/result representation of the
// executor. Chunks are laid out on a regular grid (stride = per-dimension
// chunk_interval, anchored at each dimension's low bound); the storage
// manager additionally persists irregular merged buckets, but the exec
// layer always sees grid-aligned chunks.
class MemArray {
 public:
  MemArray() = default;
  explicit MemArray(ArraySchema schema) : schema_(std::move(schema)) {}

  const ArraySchema& schema() const { return schema_; }
  ArraySchema* mutable_schema() { return &schema_; }

  // Origin of the chunk containing `c` on the chunk grid.
  Coordinates ChunkOriginFor(const Coordinates& c) const;
  // The box covered by the chunk anchored at `origin` (clipped to declared
  // bounds for bounded dimensions).
  Box ChunkBoxFor(const Coordinates& origin) const;

  Chunk* GetOrCreateChunk(const Coordinates& origin);
  const Chunk* FindChunk(const Coordinates& origin) const;

  // Cell API. SetCell validates bounds (OutOfRange on violation; unbounded
  // dimensions accept any coordinate >= low, paper §2.1's '*' marker).
  Status SetCell(const Coordinates& c, const std::vector<Value>& values);
  Status SetCell(const Coordinates& c, const Value& v);  // 1-attribute arrays
  // SetCell's checks for a cell of `nvalues` attributes at `c`: Invalid
  // on coordinate or value arity, OutOfRange outside the bounds.
  Status CheckCell(const Coordinates& c, size_t nvalues) const;
  // Empty optional when the cell is absent ("Exists? == false").
  std::optional<std::vector<Value>> GetCell(const Coordinates& c) const;
  [[nodiscard]] bool Exists(const Coordinates& c) const;
  Status DeleteCell(const Coordinates& c);

  int64_t CellCount() const;
  size_t ChunkCount() const { return chunks_.size(); }
  size_t ByteSize() const;

  // Tight bounding box of present cells — the high-water mark of unbounded
  // arrays. NotFound when the array is empty.
  Result<Box> HighWaterMark() const;

  const std::map<Coordinates, std::shared_ptr<Chunk>>& chunks() const {
    return chunks_;
  }
  std::map<Coordinates, std::shared_ptr<Chunk>>* mutable_chunks() {
    return &chunks_;
  }

  // Iterates every present cell in (chunk, row-major) order and invokes
  // fn(coords, chunk, rank). Stops early if fn returns false. Coordinates
  // are advanced odometer-style in a reused buffer — no per-cell
  // allocation (this loop is the hot path of every operator).
  template <typename Fn>
  void ForEachCell(Fn&& fn) const {
    Coordinates c;
    for (const auto& [origin, chunk] : chunks_) {
      const Box& box = chunk->box();
      const int64_t cap = chunk->cell_capacity();
      c = box.low;
      for (int64_t rank = 0; rank < cap; ++rank) {
        // rank < cap guarantees the odometer has not wrapped, so the
        // has-more result carries no information here.
        if (rank > 0) (void)NextInBox(box, &c);
        if (!chunk->IsPresent(rank)) continue;
        if (!fn(c, *chunk, rank)) return;
      }
    }
  }

 private:
  ArraySchema schema_;
  std::map<Coordinates, std::shared_ptr<Chunk>> chunks_;
};

// Copies the present cells of `src` inside `region` into `out`, one grid
// chunk at a time: the same result as out->SetCell(c, src.GetCell(c)) for
// each such cell, without boxing a Value. A cell this call copies
// replaces what an earlier call left there; other cells stay as they
// were (last writer wins per cell), so applying sources in order overlays
// them. Fails as SetCell would on the first present cell outside the
// schema's bounds.
Status CopyCells(const Chunk& src, const Box& region, MemArray* out);

// The remapping twin of CopyCells: writes cell `c` of `out` from the
// attributes of cell `rank` of `src` — followed, in the join form, by
// those of cell `rank2` of `src2` — with typed cell copies: the same
// result as out->SetCell(c, values) with the values read from those
// cells, without boxing a Value. Each source attribute must have the type
// and uncertainty of the output attribute it fills (Invalid otherwise).
// Fails as SetCell does: Invalid on coordinate or attribute arity,
// OutOfRange outside the schema's bounds.
Status PutCell(const Coordinates& c, const Chunk& src, int64_t rank,
               MemArray* out);
Status PutCell(const Coordinates& c, const Chunk& src, int64_t rank,
               const Chunk& src2, int64_t rank2, MemArray* out);

}  // namespace scidb

#endif  // SCIDB_ARRAY_MEM_ARRAY_H_
