#include "array/array_source.h"

#include <string>

#include "common/macros.h"

namespace scidb {

Result<MemArray> ArraySource::ReadRegion(const Box& box,
                                         ThreadPool* pool) const {
  if (box.ndims() != schema().ndims()) {
    return Status::Invalid("region arity " + std::to_string(box.ndims()) +
                           " != ndims " + std::to_string(schema().ndims()) +
                           " of array '" + schema().name() + "'");
  }
  if (box.empty()) return MemArray(schema());
  return ReadBox(box, pool);
}

Result<MemArray> MemArraySource::ReadBox(const Box& box,
                                         ThreadPool* pool) const {
  (void)pool;  // in memory already: nothing to fetch or decode
  MemArray out(array_->schema());
  for (const auto& [origin, chunk] : array_->chunks()) {
    const Box& cb = chunk->box();
    if (!cb.Intersects(box)) continue;
    const Box part = cb.Intersect(box);
    if (part == cb) {
      auto* chunks = out.mutable_chunks();
      chunks->emplace_hint(chunks->end(), origin, chunk);
    } else {
      RETURN_NOT_OK(CopyCells(*chunk, part, &out));
    }
  }
  return out;
}

}  // namespace scidb
