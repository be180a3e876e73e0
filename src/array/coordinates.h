#ifndef SCIDB_ARRAY_COORDINATES_H_
#define SCIDB_ARRAY_COORDINATES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"

namespace scidb {

// A cell address: one integer per dimension. Paper §2.1 dimensions run
// 1..N; the engine itself is agnostic to the origin and supports any
// int64 bounds (enhancement functions translate/scale freely).
using Coordinates = std::vector<int64_t>;

std::string CoordsToString(const Coordinates& c);

// An axis-aligned box of cells, [low[d], high[d]] inclusive per dimension.
// Chunks, subsample windows and R-tree entries are all boxes.
struct Box {
  Coordinates low;
  Coordinates high;

  Box() = default;
  Box(Coordinates l, Coordinates h) : low(std::move(l)), high(std::move(h)) {
    SCIDB_DCHECK(low.size() == high.size());
  }

  size_t ndims() const { return low.size(); }

  // True when some dimension has low > high: the box holds no cell.
  [[nodiscard]] bool empty() const {
    for (size_t d = 0; d < low.size(); ++d) {
      if (low[d] > high[d]) return true;
    }
    return false;
  }

  [[nodiscard]] bool Contains(const Coordinates& c) const {
    for (size_t d = 0; d < low.size(); ++d) {
      if (c[d] < low[d] || c[d] > high[d]) return false;
    }
    return true;
  }

  [[nodiscard]] bool Intersects(const Box& o) const {
    for (size_t d = 0; d < low.size(); ++d) {
      if (o.high[d] < low[d] || o.low[d] > high[d]) return false;
    }
    return true;
  }

  // Intersection; valid only when Intersects(o).
  Box Intersect(const Box& o) const {
    Box r(low, high);
    for (size_t d = 0; d < low.size(); ++d) {
      r.low[d] = std::max(low[d], o.low[d]);
      r.high[d] = std::min(high[d], o.high[d]);
    }
    return r;
  }

  // Grows this box to cover `o` (used by R-tree node MBRs).
  void ExpandToInclude(const Box& o) {
    for (size_t d = 0; d < low.size(); ++d) {
      low[d] = std::min(low[d], o.low[d]);
      high[d] = std::max(high[d], o.high[d]);
    }
  }

  // Unchecked: a box wider than int64 cells overflows. CellsWithin
  // below is the checked count.
  int64_t CellCount() const {
    int64_t n = 1;
    for (size_t d = 0; d < low.size(); ++d) n *= (high[d] - low[d] + 1);
    return n;
  }

  // Sum over dims of side lengths; the R-tree split heuristic minimizes
  // this ("margin") rather than volume, which degenerates in high dims.
  int64_t Margin() const {
    int64_t m = 0;
    for (size_t d = 0; d < low.size(); ++d) m += (high[d] - low[d] + 1);
    return m;
  }

  bool operator==(const Box& o) const { return low == o.low && high == o.high; }

  std::string ToString() const;
};

// Row-major linearization of `c` within `box`; inverse of Unrank.
int64_t RankInBox(const Box& box, const Coordinates& c);
Coordinates UnrankInBox(const Box& box, int64_t rank);

// The cell count of `box`, or 0 when it exceeds `limit`. Extents are
// computed in uint64 (exact since high >= low; the +1 wraps to 0 only for
// the full-int64 range, which is rejected) and the running product is
// checked against `limit` before each multiply, so a hostile box such as
// [INT64_MIN, INT64_MAX]^64 neither overflows nor allocates.
uint64_t CellsWithin(const Box& box, uint64_t limit);

// Odometer-style iteration over all cells of a box in row-major order
// (last dimension fastest). Returns false when iteration wraps past the
// end. `c` must start at box.low.
[[nodiscard]] bool NextInBox(const Box& box, Coordinates* c);

}  // namespace scidb

#endif  // SCIDB_ARRAY_COORDINATES_H_
