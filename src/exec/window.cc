#include <algorithm>

#include "common/macros.h"
#include "exec/operators.h"
#include "exec/parallel.h"
#include "exec/typed_fold.h"

namespace scidb {
namespace {

// |y - x| <= r, without overflow for any int64 pair.
bool Near(int64_t y, int64_t x, int64_t r) {
  const uint64_t uy = static_cast<uint64_t>(y);
  const uint64_t ux = static_cast<uint64_t>(x);
  return (y >= x ? uy - ux : ux - uy) <= static_cast<uint64_t>(r);
}

// max(x - r, floor) and min(x + r, ceil) for floor <= x <= ceil and r >= 0,
// without overflow for any radius.
int64_t DownTo(int64_t x, int64_t r, int64_t floor) {
  return static_cast<uint64_t>(x) - static_cast<uint64_t>(floor) <=
                 static_cast<uint64_t>(r)
             ? floor
             : x - r;
}
int64_t UpTo(int64_t x, int64_t r, int64_t ceil) {
  return static_cast<uint64_t>(ceil) - static_cast<uint64_t>(x) <=
                 static_cast<uint64_t>(r)
             ? ceil
             : x + r;
}

// The first index in [lo, hi) at which `before` turns false; `before`
// holds on a prefix of the range.
template <typename Before>
size_t FirstNot(size_t lo, size_t hi, Before&& before) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (before(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// One output chunk's halo (DESIGN.md §8): the cells of the input's chunks
// within `box`, the chunk's box grown by the radii and clipped to the box
// the chunks cover, gathered once. Dense when the chunks cover at least
// half of `box`: every cell of `box`, row-major, `valid` marking the cells
// a fold takes. Sparse otherwise: only the present cells, row-major, so
// memory follows the chunks rather than the box; each row (a run of
// cells sharing all but the last coordinate) is recorded with its
// coordinates, and `x` holds each cell's last coordinate.
template <typename T>
struct Halo {
  bool dense = true;
  Box box;
  std::vector<T> vals;
  std::vector<uint8_t> valid;
  std::vector<int64_t> stride;     // dense: row-major, per dimension
  std::vector<int64_t> row_at;     // sparse: ndims - 1 coordinates per row
  std::vector<size_t> row_begin;   // sparse: first cell of each row, + end
  std::vector<int64_t> x;          // sparse: last coordinate per cell
};

// The chunks of `a` meeting `box`: a lookup per chunk-grid origin
// spanning it, or one scan of the chunk map when that is shorter.
std::vector<const Chunk*> ChunksMeeting(const MemArray& a, const Box& box) {
  std::vector<const Chunk*> found;
  const Coordinates first = a.ChunkOriginFor(box.low);
  const Coordinates last = a.ChunkOriginFor(box.high);
  const size_t nd = box.ndims();
  uint64_t origins = 1;
  for (size_t d = 0; d < nd && origins != 0; ++d) {
    const uint64_t n =
        (static_cast<uint64_t>(last[d]) - static_cast<uint64_t>(first[d])) /
            static_cast<uint64_t>(a.schema().dim(d).chunk_interval) +
        1;
    origins = n == 0 || origins > a.ChunkCount() / n ? 0 : origins * n;
  }
  if (origins == 0) {  // more origins than chunks
    for (const auto& [origin, chunk] : a.chunks()) {
      if (chunk->box().Intersects(box)) found.push_back(chunk.get());
    }
    return found;
  }
  Coordinates o = first;
  for (;;) {
    if (const Chunk* chunk = a.FindChunk(o)) found.push_back(chunk);
    size_t d = nd;
    for (; d > 0; --d) {
      if (o[d - 1] < last[d - 1]) {
        o[d - 1] += a.schema().dim(d - 1).chunk_interval;
        break;
      }
      o[d - 1] = first[d - 1];
    }
    if (d == 0) return found;
  }
}

// Calls row(c, rank, len) on every row of `src` within `box`, in
// row-major order: `c` is the row's first cell, `rank` its rank in `src`
// and `len` its length along the last dimension.
template <typename Row>
void ForEachRow(const Chunk& src, const Box& box, Row&& row) {
  const size_t last = box.ndims() - 1;
  const Box part = src.box().Intersect(box);
  const int64_t len = part.high[last] - part.low[last] + 1;
  Box rows = part;
  rows.high[last] = part.low[last];
  Coordinates c = rows.low;
  do {
    row(c, RankInBox(src.box(), c), len);
  } while (NextInBox(rows, &c));
}

// Fills `halo` over `box` from attribute `attr` of the chunks of `a`:
// take(block, rank, &val) stores a present cell's value and says whether
// the fold takes it.
template <typename T, typename Take>
void Gather(const MemArray& a, size_t attr, const Box& box, Halo<T>* halo,
            Take&& take) {
  const size_t nd = box.ndims();
  const std::vector<const Chunk*> chunks = ChunksMeeting(a, box);
  uint64_t covered = 0;
  for (const Chunk* src : chunks) {
    covered += static_cast<uint64_t>(src->box().Intersect(box).CellCount());
  }
  halo->box = box;
  const uint64_t cells = CellsWithin(box, 2 * covered);
  halo->dense = cells != 0;
  if (halo->dense) {
    halo->stride.assign(nd, 1);
    for (size_t d = nd - 1; d > 0; --d) {
      halo->stride[d - 1] = halo->stride[d] * (box.high[d] - box.low[d] + 1);
    }
    halo->vals.assign(static_cast<size_t>(cells), T{});
    halo->valid.assign(static_cast<size_t>(cells), 0);
    for (const Chunk* src : chunks) {
      const AttributeBlock& block = src->block(attr);
      ForEachRow(*src, box, [&](const Coordinates& c, int64_t s, int64_t len) {
        int64_t h = 0;
        for (size_t d = 0; d < nd; ++d) {
          h += (c[d] - box.low[d]) * halo->stride[d];
        }
        for (int64_t k = 0; k < len; ++k) {
          if (!src->IsPresent(s + k)) continue;
          const size_t i = static_cast<size_t>(h + k);
          halo->valid[i] = take(block, s + k, &halo->vals[i]) ? 1 : 0;
        }
      });
    }
    return;
  }
  // Sparse: collect the present cells, then order them row-major.
  std::vector<int64_t> at;  // nd coordinates per cell
  std::vector<T> vals;
  std::vector<uint8_t> valid;
  for (const Chunk* src : chunks) {
    const AttributeBlock& block = src->block(attr);
    ForEachRow(*src, box, [&](const Coordinates& c, int64_t s, int64_t len) {
      for (int64_t k = 0; k < len; ++k) {
        if (!src->IsPresent(s + k)) continue;
        at.insert(at.end(), c.begin(), c.end() - 1);
        at.push_back(c[nd - 1] + k);
        valid.push_back(take(block, s + k, &vals.emplace_back()) ? 1 : 0);
      }
    });
  }
  std::vector<size_t> order(vals.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
    return std::lexicographical_compare(at.begin() + i * nd,
                                        at.begin() + (i + 1) * nd,
                                        at.begin() + j * nd,
                                        at.begin() + (j + 1) * nd);
  });
  for (size_t k = 0; k < order.size(); ++k) {
    const auto c = at.begin() + order[k] * nd;
    if (k == 0 ||
        !std::equal(c, c + (nd - 1), at.begin() + order[k - 1] * nd)) {
      halo->row_at.insert(halo->row_at.end(), c, c + (nd - 1));
      halo->row_begin.push_back(k);
    }
    halo->vals.push_back(std::move(vals[order[k]]));
    halo->valid.push_back(valid[order[k]]);
    halo->x.push_back(c[nd - 1]);
  }
  halo->row_begin.push_back(order.size());
}

// For every present cell c of `chunk`, in rank order: calls
// fold(h, len) on each row of its window — the box [c - radii, c + radii]
// clipped to the halo, walked row-major as NextInBox walks it — where `h`
// is the halo index of the row's first cell, then emit(rank). Stops at
// the first fold that returns false.
template <typename T, typename FoldRow, typename Emit>
void WalkWindows(const Chunk& chunk, const Halo<T>& halo,
                 const std::vector<int64_t>& radii, FoldRow&& fold,
                 Emit&& emit) {
  const Box& box = chunk.box();
  const Box& hb = halo.box;
  const size_t last = box.ndims() - 1;
  // Dense: the window's first and last halo offsets along `d` around `x`.
  auto lo = [&](size_t d, int64_t x) {
    const int64_t off = x - hb.low[d];
    return off > radii[d] ? off - radii[d] : 0;
  };
  auto hi = [&](size_t d, int64_t x) {
    const int64_t off = x - hb.low[d];
    const int64_t span = hb.high[d] - hb.low[d];
    return span - off > radii[d] ? off + radii[d] : span;
  };
  const size_t nrows = halo.dense ? 0 : halo.row_begin.size() - 1;
  const int64_t row = box.high[last] - box.low[last] + 1;
  Box rows = box;
  rows.high[last] = box.low[last];
  Coordinates c = rows.low;
  std::vector<int64_t> at(last);
  std::vector<size_t> starts;  // dense: halo index; sparse: halo row
  int64_t rank = 0;
  do {
    // The cells of one chunk row share their window rows.
    starts.clear();
    if (halo.dense) {
      // The halo index of each, at offset 0 along the last dimension.
      for (size_t d = 0; d < last; ++d) at[d] = lo(d, c[d]);
      for (;;) {
        int64_t h = 0;
        for (size_t d = 0; d < last; ++d) h += at[d] * halo.stride[d];
        starts.push_back(static_cast<size_t>(h));
        size_t d = last;
        while (d > 0 && ++at[d - 1] > hi(d - 1, c[d - 1])) {
          at[d - 1] = lo(d - 1, c[d - 1]);
          --d;
        }
        if (d == 0) break;
      }
    } else {
      // The halo rows within the radii of c's leading coordinates; they
      // are sorted, so those near along the first dimension are a range.
      auto row_at = [&](size_t r, size_t d) {
        return halo.row_at[r * last + d];
      };
      size_t r0 = 0;
      size_t r1 = nrows;
      if (last > 0) {
        r0 = FirstNot(0, nrows, [&](size_t r) {
          return row_at(r, 0) < c[0] && !Near(row_at(r, 0), c[0], radii[0]);
        });
        r1 = FirstNot(r0, nrows, [&](size_t r) {
          return Near(row_at(r, 0), c[0], radii[0]);
        });
      }
      for (size_t r = r0; r < r1; ++r) {
        bool near = true;
        for (size_t d = 1; d < last && near; ++d) {
          near = Near(row_at(r, d), c[d], radii[d]);
        }
        if (near) starts.push_back(r);
      }
    }
    for (int64_t j = 0; j < row; ++j, ++rank) {
      if (!chunk.IsPresent(rank)) continue;
      const int64_t x = box.low[last] + j;
      if (halo.dense) {
        const int64_t first = lo(last, x);
        const int64_t len = hi(last, x) - first + 1;
        for (size_t h : starts) {
          if (!fold(h + static_cast<size_t>(first), len)) return;
        }
      } else {
        const int64_t r = radii[last];
        for (size_t hr : starts) {
          const size_t b = FirstNot(
              halo.row_begin[hr], halo.row_begin[hr + 1], [&](size_t i) {
                return halo.x[i] < x && !Near(halo.x[i], x, r);
              });
          const size_t e = FirstNot(b, halo.row_begin[hr + 1], [&](size_t i) {
            return Near(halo.x[i], x, r);
          });
          if (e > b && !fold(b, static_cast<int64_t>(e - b))) return;
        }
      }
      emit(rank);
    }
  } while (NextInBox(rows, &c));
}

}  // namespace

Result<MemArray> WindowAggregate(const ExecContext& ctx, const MemArray& a,
                                 const std::vector<int64_t>& radii,
                                 const std::string& agg,
                                 const std::string& attr) {
  if (ctx.aggregates == nullptr) {
    return Status::Internal("WindowAggregate: no aggregate registry bound");
  }
  const ArraySchema& schema = a.schema();
  if (radii.size() != schema.ndims()) {
    return Status::Invalid("WindowAggregate: need one radius per dimension");
  }
  for (int64_t r : radii) {
    if (r < 0) return Status::Invalid("WindowAggregate: negative radius");
  }
  ASSIGN_OR_RETURN(const AggregateFunction* afn, ctx.aggregates->Find(agg));
  size_t attr_idx = 0;
  if (attr != "*") {
    ASSIGN_OR_RETURN(attr_idx, schema.AttrIndex(attr));
  } else if (schema.nattrs() == 0) {
    return Status::Invalid("WindowAggregate: input has no attributes");
  }
  const AttributeDesc& in = schema.attr(attr_idx);
  const BuiltinAgg kind =
      FoldsTyped(in) ? afn->builtin() : BuiltinAgg::kNone;

  ArraySchema out_schema(schema.name() + "_window", schema.dims(),
                         {AggOutputAttr(agg, in)});
  MemArray out(out_schema);
  if (a.ChunkCount() == 0 || schema.ndims() == 0) return out;

  // Halos stop at the box the chunks cover: along an unbounded dimension
  // nothing lies beyond it.
  Box extent = a.chunks().begin()->second->box();
  for (const auto& [origin, chunk] : a.chunks()) {
    extent.ExpandToInclude(chunk->box());
  }

  // Each output chunk folds the windows of its input chunk's present
  // cells over its own halo: one gather, then one neighbour walk, with
  // the typed fold of a built-in over a typed column and the boxed
  // AggregateState fold for everything else. Parallel-safe: a morsel
  // reads only `a` and writes its own output chunk.
  const std::vector<AttributeDesc>& out_attrs = out.schema().attrs();
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk,
          ExecStats* stats) -> Result<std::shared_ptr<Chunk>> {
        if (chunk.present_count() == 0) return std::shared_ptr<Chunk>();
        stats->cells_visited += chunk.present_count();
        auto oc = std::make_shared<Chunk>(chunk.box(), out_attrs);
        AttributeBlock* dst = &oc->block(0);
        Box halo_box = chunk.box();
        for (size_t d = 0; d < halo_box.ndims(); ++d) {
          halo_box.low[d] = DownTo(halo_box.low[d], radii[d], extent.low[d]);
          halo_box.high[d] = UpTo(halo_box.high[d], radii[d], extent.high[d]);
        }
        Status st;
        if (kind != BuiltinAgg::kNone) {
          WithFold(kind, in.type, [&]<BuiltinAgg K, typename T>() {
            Halo<T> halo;
            Gather(a, attr_idx, halo_box, &halo,
                   [](const AttributeBlock& b, int64_t r, T* v) {
                     *v = Column<T>(b)[r];
                     return !b.IsNull(r);
                   });
            FoldState s;
            WalkWindows(
                chunk, halo, radii,
                [&](size_t h, int64_t len) {
                  FoldState t = s;  // in registers for the row
                  const T* vals = halo.vals.data() + h;
                  const uint8_t* valid = halo.valid.data() + h;
                  for (int64_t j = 0; j < len; ++j) {
                    if (valid[j]) Fold<K>(&t, vals[j]);
                  }
                  s = t;
                  return true;
                },
                [&](int64_t rank) {
                  FinalizeInto(K, in.type, s, dst, rank);
                  s = FoldState();
                });
          });
        } else {
          Halo<Value> halo;
          Gather(a, attr_idx, halo_box, &halo,
                 [](const AttributeBlock& b, int64_t r, Value* v) {
                   *v = b.Get(r);
                   return true;
                 });
          std::unique_ptr<AggregateState> state = afn->NewState();
          WalkWindows(
              chunk, halo, radii,
              [&](size_t h, int64_t len) {
                for (size_t j = h; j < h + static_cast<size_t>(len); ++j) {
                  if (!halo.valid[j]) continue;
                  st = state->Accumulate(halo.vals[j]);
                  if (!st.ok()) return false;
                }
                return true;
              },
              [&](int64_t rank) {
                dst->Set(rank, state->Finalize());
                state = afn->NewState();
              });
        }
        RETURN_NOT_OK(st);
        // Every present input cell got its window's result.
        oc->AssignPresence(chunk.presence().data());
        return oc;
      }));
  return out;
}

}  // namespace scidb
