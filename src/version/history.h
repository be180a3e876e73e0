#ifndef SCIDB_VERSION_HISTORY_H_
#define SCIDB_VERSION_HISTORY_H_

#include <optional>
#include <set>
#include <vector>

#include "array/mem_array.h"
#include "common/result.h"
#include "udf/enhancement.h"

namespace scidb {

// One update inside a transaction: a new cell value or a deletion flag
// (paper §2.5: "one would insert a deletion-flag as the delta, indicating
// the value has been deleted").
struct CellUpdate {
  Coordinates coords;
  std::vector<Value> values;  // ignored when deleted
  bool deleted = false;

  static CellUpdate Set(Coordinates c, std::vector<Value> v) {
    return {std::move(c), std::move(v), false};
  }
  static CellUpdate Delete(Coordinates c) { return {std::move(c), {}, true}; }
};

// The state of a cell at one history index.
struct CellVersion {
  int64_t history = 0;
  bool deleted = false;
  std::vector<Value> values;  // empty when deleted
};

// No-overwrite updatable array (paper §2.5): every transaction appends a
// delta layer at the next history index; nothing is ever modified in
// place. Logically this is the paper's extra history dimension — cell
// [x, y, history=h] — implemented as layered deltas so that "the same
// value as h-1" costs nothing.
//
// A wall-clock enhancement maps history indices to commit timestamps so
// the array "can be addressed using conventional time".
class HistoryArray {
 public:
  // `schema` is the logical (history-less) schema; it is implicitly
  // updatable (the paper: declaring an array updatable adds the history
  // dimension automatically).
  explicit HistoryArray(ArraySchema schema);

  const ArraySchema& schema() const { return schema_; }
  // Highest committed history index; 0 when nothing committed yet.
  int64_t current_history() const {
    return static_cast<int64_t>(layers_.size());
  }

  // Applies one transaction; returns the new history index (1-based).
  // Timestamps must be non-decreasing across commits.
  Result<int64_t> Commit(const std::vector<CellUpdate>& updates,
                         int64_t timestamp_micros);

  // Value of a cell as of history index `history` (inclusive overlay of
  // layers 1..history). nullopt == absent or deleted.
  Result<std::optional<std::vector<Value>>> GetCellAt(const Coordinates& c,
                                                      int64_t history) const;
  std::optional<std::vector<Value>> GetCellLatest(const Coordinates& c) const;

  // Value of a cell as of wall-clock time t (paper: address via time).
  Result<std::optional<std::vector<Value>>> GetCellAsOf(
      const Coordinates& c, int64_t timestamp_micros) const;

  // The full trajectory of a cell along the history dimension — the
  // paper's "travels along the history dimension" starting at [c, 1].
  // Only history indices where the cell changed appear.
  std::vector<CellVersion> CellHistory(const Coordinates& c) const;

  // Materializes the array state as of `history`.
  Result<MemArray> SnapshotAt(int64_t history) const;
  // The same state restricted to the cells inside `box`: only the delta
  // chunks and deletion flags inside the box are applied, so a region
  // costs what it touches. Invalid when the box's arity is not the
  // schema's.
  Result<MemArray> SnapshotAt(int64_t history, const Box& box) const;
  Result<MemArray> SnapshotLatest() const {
    return SnapshotAt(current_history());
  }

  // In-memory delta bytes (chunk-capacity granular) — versioning space
  // accounting for EXP-VER/HIST. Persisted cost is what SerializeChunk
  // produces per layer; iterate layers via the accessors below to
  // measure it.
  size_t ByteSize() const;

  // Read-only access to the delta layers (1-based history index).
  const MemArray& layer_delta(int64_t h) const {
    return layers_[static_cast<size_t>(h - 1)].delta;
  }
  const std::set<Coordinates>& layer_deletions(int64_t h) const {
    return layers_[static_cast<size_t>(h - 1)].deletions;
  }

  const WallClockEnhancement& wall_clock() const { return clock_; }

 private:
  friend class VersionTree;

  struct Layer {
    MemArray delta;
    std::set<Coordinates> deletions;
  };

  // Looks up the most recent change to `c` in layers 1..history of THIS
  // array only (no parent-version fallthrough). nullopt = never touched.
  std::optional<CellVersion> FindLocal(const Coordinates& c,
                                       int64_t history) const;

  // Applies layers 1..history of THIS array on top of `out`, chunk by
  // chunk: each delta's cells, then that layer's deletions, both limited
  // to the cells inside `region`.
  Status Overlay(int64_t history, const Box& region, MemArray* out) const;

  ArraySchema schema_;
  std::vector<Layer> layers_;  // layers_[h-1] = history index h
  WallClockEnhancement clock_;
};

}  // namespace scidb

#endif  // SCIDB_VERSION_HISTORY_H_
