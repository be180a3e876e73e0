#ifndef SCIDB_ARRAY_CHUNK_H_
#define SCIDB_ARRAY_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/coordinates.h"
#include "array/schema.h"
#include "common/result.h"
#include "types/uncertain.h"
#include "types/value.h"

namespace scidb {

// Columnar storage for one attribute inside one chunk. Values are dense in
// row-major order over the chunk box; a validity flag per cell marks which
// cells are present ("empty" cells are how sparse arrays and the Filter
// operator's NULL results are represented).
//
// Uncertain attributes carry a parallel stderr column. When every cell has
// the same error bar the column collapses to a single constant — the paper's
// §2.13 requirement that "arrays with the same error bounds for all values
// will require negligible extra space".
class AttributeBlock {
 public:
  AttributeBlock() = default;
  AttributeBlock(DataType type, bool uncertain, int64_t cells);

  DataType type() const { return type_; }
  bool uncertain() const { return uncertain_; }
  int64_t size() const { return cells_; }

  void Set(int64_t i, const Value& v);
  Value Get(int64_t i) const;

  bool IsNull(int64_t i) const { return nulls_[static_cast<size_t>(i)] != 0; }

  // Typed fast paths for hot operator loops; only valid for the matching
  // DataType (checked in debug builds).
  void SetDouble(int64_t i, double v);
  double GetDouble(int64_t i) const;
  void SetInt64(int64_t i, int64_t v);
  int64_t GetInt64(int64_t i) const;
  void SetStderr(int64_t i, double s);
  double GetStderr(int64_t i) const;

  // Direct access to the dense payload for vectorized loops. Entries of
  // null cells are unspecified; read nulls() first.
  const std::vector<double>& doubles() const { return f64_; }
  const std::vector<int64_t>& int64s() const { return i64_; }
  const std::vector<float>& floats() const { return f32_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }
  // The per-cell error bars; empty while has_constant_stderr().
  const std::vector<double>& stderrs() const { return stderrs_; }

  // Writable raw columns, for a codec that fills a whole block at once
  // (the chunk serde): the null flags (1 == null) and the value column of
  // type(), with bools as 0/1 bytes and an uncertain attribute's means in
  // its value column. The other value pointers are null. The writer
  // clears each value cell's null flag itself. Strings and nested arrays
  // have no raw column; they go through Set().
  struct Columns {
    uint8_t* nulls;
    uint8_t* bools;
    int64_t* i64;
    float* f32;
    double* f64;
  };
  Columns mutable_columns() {
    return {nulls_.data(), bools_.data(), i64_.data(), f32_.data(),
            f64_.data()};
  }

  // Sets the error bar of every non-null cell from `per_cell` (one entry
  // per cell) and collapses the column to a constant when they all
  // agree: the state a run of SetStderr calls in rank order leaves.
  void AssignStderrs(std::vector<double> per_cell);

  // Cell `i` := cell `src_i` of `src` (same type and uncertainty); the
  // same result as Set(i, src.Get(src_i)), without boxing a Value, except
  // that an uncertain int64 keeps the exact value its double mean may not.
  void CopyCell(const AttributeBlock& src, int64_t src_i, int64_t i);

  // True when the stderr column is a single constant (space optimization).
  bool has_constant_stderr() const { return stderr_is_const_; }

  // Approximate in-memory footprint, used by the loader's memory-pressure
  // flush and the space-accounting benchmarks.
  size_t ByteSize() const;

 private:
  DataType type_ = DataType::kDouble;
  bool uncertain_ = false;
  int64_t cells_ = 0;
  std::vector<uint8_t> nulls_;  // 1 == null

  // Exactly one of these is populated, per type_.
  std::vector<uint8_t> bools_;
  std::vector<int64_t> i64_;
  std::vector<float> f32_;
  std::vector<double> f64_;
  std::vector<std::string> strs_;
  std::vector<std::shared_ptr<NestedArray>> arrays_;

  // stderr column for uncertain attributes; constant-collapsed when all
  // cells share one error bar.
  bool stderr_is_const_ = true;
  bool stderr_seen_ = false;
  double const_stderr_ = 0.0;
  std::vector<double> stderrs_;

  void MaterializeStderr();
};

// A chunk is one variable-size rectangular bucket of the array (paper
// §2.8): a box of cells with per-attribute columnar blocks plus a shared
// presence bitmap. Chunks are the unit of storage, compression, R-tree
// indexing, partitioning and parallel execution.
class Chunk {
 public:
  Chunk() = default;
  Chunk(Box box, const std::vector<AttributeDesc>& attrs);

  const Box& box() const { return box_; }
  size_t nattrs() const { return blocks_.size(); }
  int64_t cell_capacity() const { return box_.CellCount(); }
  int64_t present_count() const { return present_count_; }
  double density() const {
    return cell_capacity() == 0
               ? 0.0
               : static_cast<double>(present_count_) / cell_capacity();
  }

  AttributeBlock& block(size_t attr) { return blocks_[attr]; }
  const AttributeBlock& block(size_t attr) const { return blocks_[attr]; }

  bool IsPresent(int64_t rank) const {
    return present_[static_cast<size_t>(rank)] != 0;
  }
  bool IsPresentAt(const Coordinates& c) const {
    return box_.Contains(c) && IsPresent(RankInBox(box_, c));
  }
  void MarkPresent(int64_t rank);
  void MarkAbsent(int64_t rank);

  // The presence flags, one byte per cell (1 == present).
  const std::vector<uint8_t>& presence() const { return present_; }
  // Sets every cell's presence from `flags`, one byte per cell (nonzero
  // == present), and recounts present_count().
  void AssignPresence(const uint8_t* flags);

  // Cell-level convenience API (operators use rank + block fast paths).
  void SetCell(const Coordinates& c, const std::vector<Value>& values);
  std::vector<Value> GetCell(const Coordinates& c) const;

  size_t ByteSize() const;

  // Iterates the ranks of present cells in row-major order.
  class CellIterator {
   public:
    explicit CellIterator(const Chunk& chunk) : chunk_(chunk) { Advance(0); }
    bool valid() const { return rank_ < chunk_.cell_capacity(); }
    int64_t rank() const { return rank_; }
    Coordinates coords() const { return UnrankInBox(chunk_.box(), rank_); }
    void Next() { Advance(rank_ + 1); }

   private:
    void Advance(int64_t from) {
      rank_ = from;
      while (rank_ < chunk_.cell_capacity() && !chunk_.IsPresent(rank_)) {
        ++rank_;
      }
    }
    const Chunk& chunk_;
    int64_t rank_ = 0;
  };

 private:
  Box box_;
  std::vector<AttributeBlock> blocks_;
  std::vector<uint8_t> present_;
  int64_t present_count_ = 0;
};

}  // namespace scidb

#endif  // SCIDB_ARRAY_CHUNK_H_
