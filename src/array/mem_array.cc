#include "array/mem_array.h"

#include <algorithm>
#include <string>

#include "common/macros.h"

namespace scidb {

namespace {

// A whole-chunk copy gives what copying its present cells one by one
// gives, unless a block keeps state beyond those cells: string payload
// left in absent or null cells (counted by ByteSize), a stderr column
// whose constant collapse remembers every error bar ever set, or a
// non-null nested-array cell without an array (CopyCell makes it null).
bool CopiesWholeChunks(const ArraySchema& schema) {
  return std::none_of(schema.attrs().begin(), schema.attrs().end(),
                      [](const AttributeDesc& a) {
                        return a.uncertain || a.type == DataType::kString ||
                               a.type == DataType::kArray;
                      });
}

// Copies the cells of `src` that lie in `part` — inside one grid chunk of
// `out`, anchored at `origin` — row by row with typed cell copies. The
// destination chunk is resolved once, and only when a present cell needs
// it, so the chunk map holds exactly the chunks that have cells.
void CopyPart(const Chunk& src, const Box& part, const Coordinates& origin,
              MemArray* out) {
  if (src.box() == part && src.present_count() > 0 &&
      out->FindChunk(origin) == nullptr &&
      out->ChunkBoxFor(origin) == part && CopiesWholeChunks(out->schema())) {
    // A source chunk that is exactly a grid chunk nobody wrote yet.
    out->mutable_chunks()->emplace(origin, std::make_shared<Chunk>(src));
    return;
  }
  const size_t last = part.ndims() - 1;
  const int64_t row = part.high[last] - part.low[last] + 1;
  Box rows = part;
  rows.high[last] = part.low[last];
  Chunk* dst = nullptr;
  Coordinates c = rows.low;
  do {
    const int64_t s = RankInBox(src.box(), c);
    int64_t d = -1;
    for (int64_t k = 0; k < row; ++k) {
      if (!src.IsPresent(s + k)) continue;
      if (dst == nullptr) dst = out->GetOrCreateChunk(origin);
      if (d < 0) d = RankInBox(dst->box(), c);
      for (size_t at = 0; at < src.nattrs(); ++at) {
        dst->block(at).CopyCell(src.block(at), s + k, d + k);
      }
      dst->MarkPresent(d + k);
    }
  } while (NextInBox(rows, &c));
}

// SetCell's checks for a cell of `nvalues` attributes at `c`.
Status CheckCell(const ArraySchema& schema, const Coordinates& c,
                 size_t nvalues) {
  if (c.size() != schema.ndims()) {
    return Status::Invalid("coordinate arity " + std::to_string(c.size()) +
                           " != ndims " + std::to_string(schema.ndims()));
  }
  if (!schema.ContainsCoords(c)) {
    return Status::OutOfRange("cell " + CoordsToString(c) +
                              " outside bounds of array '" + schema.name() +
                              "'");
  }
  if (nvalues != schema.nattrs()) {
    return Status::Invalid("value arity " + std::to_string(nvalues) +
                           " != nattrs " + std::to_string(schema.nattrs()));
  }
  return Status::OK();
}

// PutCell's type check: the attributes of `src` fill the output
// attributes from `first` on, so each must match the one it fills.
Status CheckSource(const ArraySchema& schema, const Chunk& src,
                   size_t first) {
  for (size_t at = 0; at < src.nattrs(); ++at) {
    const AttributeDesc& want = schema.attr(first + at);
    if (src.block(at).type() != want.type ||
        src.block(at).uncertain() != want.uncertain) {
      std::string msg = "source cell type differs from attribute '";
      msg += want.name;
      msg += "'";
      return Status::Invalid(msg);
    }
  }
  return Status::OK();
}

// Both PutCell forms: `src2` is null for a single source cell.
Status PutCellFrom(const Coordinates& c, const Chunk& src, int64_t rank,
                   const Chunk* src2, int64_t rank2, MemArray* out) {
  const ArraySchema& schema = out->schema();
  const size_t n = src.nattrs();
  RETURN_NOT_OK(
      CheckCell(schema, c, n + (src2 == nullptr ? 0 : src2->nattrs())));
  RETURN_NOT_OK(CheckSource(schema, src, 0));
  if (src2 != nullptr) RETURN_NOT_OK(CheckSource(schema, *src2, n));
  Chunk* dst = out->GetOrCreateChunk(out->ChunkOriginFor(c));
  const int64_t d = RankInBox(dst->box(), c);
  for (size_t at = 0; at < n; ++at) {
    dst->block(at).CopyCell(src.block(at), rank, d);
  }
  if (src2 != nullptr) {
    for (size_t at = 0; at < src2->nattrs(); ++at) {
      dst->block(n + at).CopyCell(src2->block(at), rank2, d);
    }
  }
  dst->MarkPresent(d);
  return Status::OK();
}

}  // namespace

Coordinates MemArray::ChunkOriginFor(const Coordinates& c) const {
  Coordinates origin(c.size());
  for (size_t d = 0; d < c.size(); ++d) {
    const DimensionDesc& dim = schema_.dim(d);
    int64_t off = c[d] - dim.low;
    // Floor-divide also for negative offsets (cells below dim.low are
    // rejected by SetCell, but enhancement-mapped reads may probe there).
    int64_t q = off >= 0 ? off / dim.chunk_interval
                         : -((-off + dim.chunk_interval - 1) /
                             dim.chunk_interval);
    origin[d] = dim.low + q * dim.chunk_interval;
  }
  return origin;
}

Box MemArray::ChunkBoxFor(const Coordinates& origin) const {
  Box b;
  b.low = origin;
  b.high.resize(origin.size());
  for (size_t d = 0; d < origin.size(); ++d) {
    const DimensionDesc& dim = schema_.dim(d);
    int64_t hi = origin[d] + dim.chunk_interval - 1;
    if (!dim.unbounded()) hi = std::min(hi, dim.high);
    b.high[d] = hi;
  }
  return b;
}

Chunk* MemArray::GetOrCreateChunk(const Coordinates& origin) {
  auto it = chunks_.find(origin);
  if (it == chunks_.end()) {
    auto chunk = std::make_shared<Chunk>(ChunkBoxFor(origin), schema_.attrs());
    it = chunks_.emplace(origin, std::move(chunk)).first;
  } else if (it->second.use_count() > 1) {
    // Copy-on-write: MemArray copies are shallow (chunks shared), so a
    // mutation must not write through a chunk another array still sees
    // (e.g. `store A into B` then `insert B` must leave A intact).
    it->second = std::make_shared<Chunk>(*it->second);
  }
  return it->second.get();
}

const Chunk* MemArray::FindChunk(const Coordinates& origin) const {
  auto it = chunks_.find(origin);
  return it == chunks_.end() ? nullptr : it->second.get();
}

Status MemArray::SetCell(const Coordinates& c,
                         const std::vector<Value>& values) {
  RETURN_NOT_OK(CheckCell(schema_, c, values.size()));
  GetOrCreateChunk(ChunkOriginFor(c))->SetCell(c, values);
  return Status::OK();
}

Status MemArray::SetCell(const Coordinates& c, const Value& v) {
  return SetCell(c, std::vector<Value>{v});
}

std::optional<std::vector<Value>> MemArray::GetCell(
    const Coordinates& c) const {
  if (c.size() != schema_.ndims()) return std::nullopt;
  auto it = chunks_.find(ChunkOriginFor(c));
  if (it == chunks_.end()) return std::nullopt;
  const Chunk& chunk = *it->second;
  if (!chunk.IsPresentAt(c)) return std::nullopt;
  return chunk.GetCell(c);
}

bool MemArray::Exists(const Coordinates& c) const {
  if (c.size() != schema_.ndims()) return false;
  auto it = chunks_.find(ChunkOriginFor(c));
  return it != chunks_.end() && it->second->IsPresentAt(c);
}

Status MemArray::DeleteCell(const Coordinates& c) {
  auto it = chunks_.find(ChunkOriginFor(c));
  if (it == chunks_.end() || !it->second->IsPresentAt(c)) {
    return Status::NotFound("cell " + CoordsToString(c) + " not present");
  }
  // Copy-on-write, as in GetOrCreateChunk.
  if (it->second.use_count() > 1) {
    it->second = std::make_shared<Chunk>(*it->second);
  }
  it->second->MarkAbsent(RankInBox(it->second->box(), c));
  return Status::OK();
}

int64_t MemArray::CellCount() const {
  int64_t n = 0;
  for (const auto& [origin, chunk] : chunks_) n += chunk->present_count();
  return n;
}

size_t MemArray::ByteSize() const {
  size_t bytes = 0;
  for (const auto& [origin, chunk] : chunks_) bytes += chunk->ByteSize();
  return bytes;
}

Result<Box> MemArray::HighWaterMark() const {
  bool found = false;
  Box hwm;
  ForEachCell([&](const Coordinates& c, const Chunk&, int64_t) {
    if (!found) {
      hwm = Box(c, c);
      found = true;
    } else {
      hwm.ExpandToInclude(Box(c, c));
    }
    return true;
  });
  if (!found) {
    return Status::NotFound("array '" + schema_.name() + "' is empty");
  }
  return hwm;
}

Status CopyCells(const Chunk& src, const Box& region, MemArray* out) {
  const ArraySchema& schema = out->schema();
  if (region.ndims() != schema.ndims()) {
    return Status::Invalid("coordinate arity " +
                           std::to_string(region.ndims()) + " != ndims " +
                           std::to_string(schema.ndims()));
  }
  Box inside = region;
  if (!schema.ContainsCoords(region.low) ||
      !schema.ContainsCoords(region.high)) {
    Coordinates c = region.low;
    do {
      if (src.IsPresentAt(c) && !schema.ContainsCoords(c)) {
        return Status::OutOfRange("cell " + CoordsToString(c) +
                                  " outside bounds of array '" +
                                  schema.name() + "'");
      }
    } while (NextInBox(region, &c));
    // No present cell lies outside the bounds: clip to them.
    for (size_t d = 0; d < schema.ndims(); ++d) {
      const DimensionDesc& dim = schema.dim(d);
      inside.low[d] = std::max(inside.low[d], dim.low);
      if (!dim.unbounded()) inside.high[d] = std::min(inside.high[d], dim.high);
      if (inside.high[d] < inside.low[d]) return Status::OK();
    }
  }
  const Coordinates first = out->ChunkOriginFor(inside.low);
  const Coordinates end = out->ChunkOriginFor(inside.high);
  Coordinates origin = first;
  while (true) {
    CopyPart(src, out->ChunkBoxFor(origin).Intersect(inside), origin, out);
    // Next grid chunk, last dimension fastest.
    size_t d = origin.size();
    while (d > 0) {
      --d;
      origin[d] += schema.dim(d).chunk_interval;
      if (origin[d] <= end[d]) break;
      origin[d] = first[d];
      if (d == 0) return Status::OK();
    }
  }
}

Status PutCell(const Coordinates& c, const Chunk& src, int64_t rank,
               MemArray* out) {
  return PutCellFrom(c, src, rank, nullptr, 0, out);
}

Status PutCell(const Coordinates& c, const Chunk& src, int64_t rank,
               const Chunk& src2, int64_t rank2, MemArray* out) {
  return PutCellFrom(c, src, rank, &src2, rank2, out);
}

}  // namespace scidb
