#ifndef SCIDB_ARRAY_ARRAY_SOURCE_H_
#define SCIDB_ARRAY_ARRAY_SOURCE_H_

#include <memory>

#include "array/mem_array.h"
#include "array/schema.h"
#include "common/result.h"
#include "common/thread_pool.h"

namespace scidb {

// Anything the engine can read an array from (DESIGN.md §5): a stored
// DiskArray, an in-situ file adaptor, a session-catalog MemArray or an
// epoch-pinned server snapshot. A read names a box and gets back only the
// cells inside it, so a query that needs a region never decodes the rest
// (paper §2.2.1: structural operators "do not necessarily have to read
// the data values"; §2.9: region reads of in-situ data).
class ArraySource {
 public:
  virtual ~ArraySource() = default;

  virtual const ArraySchema& schema() const = 0;

  // The box every cell of the source lies in: the schema's declared
  // box, an unbounded dimension open up to kUnboundedDim.
  Box Extent() const { return schema().DeclaredBox(); }

  // The present cells inside `box` as a grid-aligned MemArray of
  // schema(): the cells, values and nulls Subsample of the whole array by
  // that box keeps. A box empty along some dimension (low > high) reads
  // nothing. With a pool the source may fetch and decode in parallel; the
  // result is the same at every width. Invalid when the box's arity is
  // not the schema's.
  Result<MemArray> ReadRegion(const Box& box,
                              ThreadPool* pool = nullptr) const;

  // ReadRegion(Extent(), pool): the whole array.
  Result<MemArray> ReadAll(ThreadPool* pool = nullptr) const {
    return ReadRegion(Extent(), pool);
  }

 protected:
  // ReadRegion's body; `box` has the schema's arity and is non-empty.
  virtual Result<MemArray> ReadBox(const Box& box, ThreadPool* pool) const = 0;
};

// A session-catalog array as a source. Chunks inside the box are shared
// with the catalog (MemArray copies are copy-on-write); chunks the box
// cuts are copied cell range by cell range with CopyCells.
class MemArraySource : public ArraySource {
 public:
  explicit MemArraySource(std::shared_ptr<const MemArray> array)
      : array_(std::move(array)) {}

  const ArraySchema& schema() const override { return array_->schema(); }

 protected:
  Result<MemArray> ReadBox(const Box& box, ThreadPool* pool) const override;

 private:
  std::shared_ptr<const MemArray> array_;
};

}  // namespace scidb

#endif  // SCIDB_ARRAY_ARRAY_SOURCE_H_
