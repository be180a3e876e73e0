#include <algorithm>
#include <cstddef>
#include <map>
#include <set>

#include "common/macros.h"
#include "exec/bound_expr.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace scidb {

namespace {

// The attribute (dimension) list of a join's output: `a` then `b`, each
// name of `b` suffixed with "_2" until it differs from every name already
// in the output.
template <typename Named>
std::vector<Named> MergeNamed(const std::vector<Named>& a,
                              const std::vector<Named>& b) {
  std::vector<Named> out = a;
  std::set<std::string> names;
  for (const auto& x : a) names.insert(x.name);
  for (Named x : b) {
    while (names.count(x.name)) x.name += "_2";
    names.insert(x.name);
    out.push_back(std::move(x));
  }
  return out;
}

// The sub-box of `domain` that ExtractDimBounds finds `pred` implies;
// empty() when no cell can match. `exact` as for ExtractDimBounds.
Box ImpliedBox(const Expr& pred, const ArraySchema& schema,
               const Box& domain, bool* exact = nullptr) {
  std::vector<DimBounds> bounds =
      ExtractDimBounds(pred, schema, domain, exact);
  Box box = domain;
  for (size_t d = 0; d < bounds.size(); ++d) {
    box.low[d] = bounds[d].low;
    box.high[d] = bounds[d].high;
  }
  return box;
}

}  // namespace

// ------------------------------------------------------------- Subsample

Result<MemArray> Subsample(const ExecContext& ctx, const MemArray& a,
                           const ExprPtr& pred) {
  if (pred == nullptr) return Status::Invalid("Subsample: null predicate");
  if (!IsPerDimensionConjunction(*pred, a.schema())) {
    return Status::Invalid(
        "Subsample predicate must be a conjunction of conditions on each "
        "dimension independently: " +
        pred->ToString());
  }
  const ArraySchema& schema = a.schema();
  MemArray out(schema);
  out.mutable_schema()->set_name(schema.name() + "_subsample");

  const BoundExpr bound = BoundExpr::Bind(pred, {&schema}, ctx.functions);
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk,
          ExecStats* stats) -> Result<std::shared_ptr<Chunk>> {
        bool exact = false;
        Box want = chunk.box();
        if (ctx.enable_chunk_pruning) {
          want = ImpliedBox(*pred, schema, chunk.box(), &exact);
          if (want.empty()) {
            ++stats->chunks_pruned;
            return std::shared_ptr<Chunk>();
          }
        }
        ++stats->chunks_scanned;
        // When the bounds fully capture the predicate, skip per-cell
        // evaluation (data-agnostic fast path — the "opportunity for
        // optimization" of §2.2.1); otherwise evaluate it on the present
        // cells of the implied sub-box only.
        std::vector<uint8_t> keep;
        if (!exact) {
          ASSIGN_OR_RETURN(keep, bound.Keep(chunk, want));
        }

        std::shared_ptr<Chunk> oc;  // created lazily on the first keeper
        Coordinates c = want.low;
        do {
          const int64_t rank = RankInBox(chunk.box(), c);
          if (!chunk.IsPresent(rank)) continue;
          ++stats->cells_visited;
          if (!exact && !keep[static_cast<size_t>(rank)]) continue;
          if (oc == nullptr) {
            oc = std::make_shared<Chunk>(chunk.box(), schema.attrs());
          }
          for (size_t at = 0; at < chunk.nattrs(); ++at) {
            oc->block(at).CopyCell(chunk.block(at), rank, rank);
          }
          oc->MarkPresent(rank);
        } while (NextInBox(want, &c));
        return oc;
      }));
  return out;
}

Box SubsampleBox(const ExecContext& ctx, const ArraySource& source,
                 const Expr& pred) {
  if (!ctx.enable_chunk_pruning ||
      !IsPerDimensionConjunction(pred, source.schema())) {
    return source.Extent();
  }
  return ImpliedBox(pred, source.schema(), source.Extent());
}

bool Exists(const MemArray& a, const Coordinates& c) { return a.Exists(c); }

// --------------------------------------------------------------- Reshape

Result<MemArray> Reshape(const ExecContext& ctx, const MemArray& a,
                         const std::vector<std::string>& dim_order,
                         std::vector<DimensionDesc> new_dims) {
  const ArraySchema& schema = a.schema();
  if (dim_order.size() != schema.ndims()) {
    return Status::Invalid("Reshape: dim_order must list all " +
                           std::to_string(schema.ndims()) + " dimensions");
  }
  ASSIGN_OR_RETURN(Box in_box, schema.Bounds());

  // Permuted box following dim_order (first listed iterates slowest).
  std::vector<size_t> perm(dim_order.size());
  std::set<size_t> used;
  for (size_t i = 0; i < dim_order.size(); ++i) {
    ASSIGN_OR_RETURN(size_t di, schema.DimIndex(dim_order[i]));
    if (!used.insert(di).second) {
      return Status::Invalid("Reshape: duplicate dimension '" +
                             dim_order[i] + "'");
    }
    perm[i] = di;
  }

  ArraySchema out_schema(schema.name() + "_reshape", std::move(new_dims),
                         schema.attrs());
  RETURN_NOT_OK(out_schema.Validate());
  ASSIGN_OR_RETURN(Box out_box, out_schema.Bounds());
  if (out_box.CellCount() != in_box.CellCount()) {
    return Status::Invalid(
        "Reshape: cell count mismatch (" +
        std::to_string(in_box.CellCount()) + " vs " +
        std::to_string(out_box.CellCount()) + ")");
  }

  Box perm_box;
  for (size_t i = 0; i < perm.size(); ++i) {
    perm_box.low.push_back(in_box.low[perm[i]]);
    perm_box.high.push_back(in_box.high[perm[i]]);
  }

  MemArray out(out_schema);
  Coordinates pc(perm.size());
  RETURN_NOT_OK(WalkCells(
      ctx, a, [&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
        // Out of bounds, a cell's linear index would wrap onto another's.
        if (!in_box.Contains(c)) {
          return Status::OutOfRange("Reshape: cell " + CoordsToString(c) +
                                    " lies outside " + in_box.ToString());
        }
        // Linear index under the requested iteration order.
        for (size_t i = 0; i < perm.size(); ++i) pc[i] = c[perm[i]];
        return PutCell(UnrankInBox(out_box, RankInBox(perm_box, pc)), chunk,
                       rank, &out);
      }));
  return out;
}

// ----------------------------------------------------------------- Sjoin

Result<MemArray> Sjoin(
    const ExecContext& ctx, const MemArray& a, const MemArray& b,
    const std::vector<std::pair<std::string, std::string>>& dim_pairs) {
  if (dim_pairs.empty()) {
    return Status::Invalid("Sjoin: need at least one dimension pair");
  }
  const ArraySchema& sa = a.schema();
  const ArraySchema& sb = b.schema();

  std::vector<size_t> a_join, b_join;
  std::set<size_t> a_seen, b_seen;
  for (const auto& [an, bn] : dim_pairs) {
    ASSIGN_OR_RETURN(size_t ai, sa.DimIndex(an));
    ASSIGN_OR_RETURN(size_t bi, sb.DimIndex(bn));
    if (!a_seen.insert(ai).second || !b_seen.insert(bi).second) {
      return Status::Invalid("Sjoin: dimension used twice in join predicate");
    }
    a_join.push_back(ai);
    b_join.push_back(bi);
  }

  // Output: all of A's dims, then B's un-joined dims.
  std::vector<size_t> b_free;
  std::vector<DimensionDesc> free_dims;
  for (size_t d = 0; d < sb.ndims(); ++d) {
    if (!b_seen.count(d)) {
      b_free.push_back(d);
      free_dims.push_back(sb.dim(d));
    }
  }
  ArraySchema out_schema(sa.name() + "_sjoin",
                         MergeNamed(sa.dims(), free_dims),
                         MergeNamed(sa.attrs(), sb.attrs()));
  MemArray out(out_schema);

  // Hash B's present cells by their joined-dimension values.
  std::map<Coordinates, std::vector<std::pair<const Chunk*, int64_t>>>
      b_index;
  RETURN_NOT_OK(WalkCells(
      ctx, b, [&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
        Coordinates key(b_join.size());
        for (size_t i = 0; i < b_join.size(); ++i) key[i] = c[b_join[i]];
        b_index[key].push_back({&chunk, rank});
        return Status::OK();
      }));

  Coordinates key(a_join.size());
  RETURN_NOT_OK(WalkCells(
      ctx, a,
      [&](const Coordinates& ca, const Chunk& ach, int64_t arank) -> Status {
        for (size_t i = 0; i < a_join.size(); ++i) key[i] = ca[a_join[i]];
        auto it = b_index.find(key);
        if (it == b_index.end()) return Status::OK();
        for (const auto& [bch, brank] : it->second) {
          Coordinates cb = UnrankInBox(bch->box(), brank);
          Coordinates oc = ca;
          for (size_t f : b_free) oc.push_back(cb[f]);
          RETURN_NOT_OK(PutCell(oc, ach, arank, *bch, brank, &out));
        }
        return Status::OK();
      }));
  return out;
}

// ---------------------------------------------------- Add/RemoveDimension

Result<MemArray> AddDimension(const ExecContext& ctx, const MemArray& a,
                              const std::string& name) {
  if (a.schema().DimIndex(name).ok() || a.schema().AttrIndex(name).ok()) {
    return Status::Invalid("AddDimension: name '" + name +
                           "' already in use");
  }
  std::vector<DimensionDesc> dims = a.schema().dims();
  dims.push_back({name, 1, 1, 1});
  ArraySchema out_schema(a.schema().name() + "_adddim", std::move(dims),
                         a.schema().attrs());
  MemArray out(out_schema);
  RETURN_NOT_OK(WalkCells(
      ctx, a, [&](Coordinates c, const Chunk& chunk, int64_t rank) {
        c.push_back(1);
        return PutCell(c, chunk, rank, &out);
      }));
  return out;
}

Result<MemArray> RemoveDimension(const ExecContext& ctx, const MemArray& a,
                                 const std::string& name) {
  ASSIGN_OR_RETURN(size_t di, a.schema().DimIndex(name));
  if (a.schema().ndims() == 1) {
    return Status::Invalid("RemoveDimension: cannot remove the only "
                           "dimension");
  }
  std::vector<DimensionDesc> dims;
  for (size_t d = 0; d < a.schema().ndims(); ++d) {
    if (d != di) dims.push_back(a.schema().dim(d));
  }
  ArraySchema out_schema(a.schema().name() + "_rmdim", std::move(dims),
                         a.schema().attrs());
  MemArray out(out_schema);
  RETURN_NOT_OK(WalkCells(
      ctx, a, [&](Coordinates c, const Chunk& chunk, int64_t rank) {
        c.erase(c.begin() + static_cast<std::ptrdiff_t>(di));
        if (out.Exists(c)) {
          return Status::Invalid(
              "RemoveDimension: removing '" + name +
              "' collapses distinct cells onto " + CoordsToString(c));
        }
        return PutCell(c, chunk, rank, &out);
      }));
  return out;
}

// ---------------------------------------------------------------- Concat

Result<MemArray> Concat(const ExecContext& ctx, const MemArray& a,
                        const MemArray& b, const std::string& dim) {
  const ArraySchema& sa = a.schema();
  const ArraySchema& sb = b.schema();
  if (!(sa == sb)) {
    return Status::Invalid("Concat: array schemas must match");
  }
  ASSIGN_OR_RETURN(size_t di, sa.DimIndex(dim));

  // B is shifted to start right after A's extent along `dim`.
  ASSIGN_OR_RETURN(Box a_bounds, sa.Bounds());
  int64_t shift = a_bounds.high[di] + 1 - sb.dim(di).low;

  std::vector<DimensionDesc> dims = sa.dims();
  if (sb.dim(di).unbounded()) {
    dims[di].high = kUnboundedDim;
  } else {
    dims[di].high = a_bounds.high[di] + sb.dim(di).extent();
  }
  ArraySchema out_schema(sa.name() + "_concat", std::move(dims), sa.attrs());
  MemArray out(out_schema);

  auto shifted = [&](const MemArray& src, int64_t delta) {
    return WalkCells(
        ctx, src, [&](Coordinates c, const Chunk& chunk, int64_t rank) {
          c[di] += delta;
          return PutCell(c, chunk, rank, &out);
        });
  };
  RETURN_NOT_OK(shifted(a, 0));
  RETURN_NOT_OK(shifted(b, shift));
  return out;
}

// ---------------------------------------------------------- CrossProduct

Result<MemArray> CrossProduct(const ExecContext& ctx, const MemArray& a,
                              const MemArray& b) {
  const ArraySchema& sa = a.schema();
  const ArraySchema& sb = b.schema();
  ArraySchema out_schema(sa.name() + "_cross",
                         MergeNamed(sa.dims(), sb.dims()),
                         MergeNamed(sa.attrs(), sb.attrs()));
  MemArray out(out_schema);
  RETURN_NOT_OK(WalkCells(
      ctx, a, [&](const Coordinates& ca, const Chunk& ach, int64_t ar) {
        return WalkCells(
            ctx, b, [&](const Coordinates& cb, const Chunk& bch, int64_t br) {
              Coordinates oc = ca;
              oc.insert(oc.end(), cb.begin(), cb.end());
              return PutCell(oc, ach, ar, bch, br, &out);
            });
      }));
  return out;
}

}  // namespace scidb
