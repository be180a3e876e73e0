#include "common/macros.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace scidb {

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

  ArraySchema out_schema(schema.name() + "_window", schema.dims(),
                         {AggOutputAttr(agg, schema.attr(attr_idx))});
  MemArray out(out_schema);

  // For each present cell, accumulate over the window box. The window is
  // evaluated via chunk-local random access: cost O(cells * window).
  // (A production engine would slide partial aggregates; the separable
  // optimization is noted in DESIGN.md §5 and benchmarked as-is.)
  //
  // Parallel-safe because each morsel only reads `a` (windows cross chunk
  // boundaries, but reads of a const array share nothing mutable) and
  // writes its own output chunk.
  const std::vector<AttributeDesc>& out_attrs = out.schema().attrs();
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk,
          ExecStats* stats) -> Result<std::shared_ptr<Chunk>> {
        auto oc = std::make_shared<Chunk>(chunk.box(), out_attrs);
        for (Chunk::CellIterator it(chunk); it.valid(); it.Next()) {
          ++stats->cells_visited;
          Coordinates c = it.coords();
          Box window;
          window.low.resize(c.size());
          window.high.resize(c.size());
          for (size_t d = 0; d < c.size(); ++d) {
            window.low[d] = c[d] - radii[d];
            window.high[d] = c[d] + radii[d];
            // Clip to declared bounds so probes stay in-range.
            window.low[d] = std::max(window.low[d], schema.dim(d).low);
            if (!schema.dim(d).unbounded()) {
              window.high[d] = std::min(window.high[d], schema.dim(d).high);
            }
          }
          // Only the aggregated attribute is read from each neighbour;
          // most neighbours share the cell's own chunk.
          auto state = afn->NewState();
          Coordinates probe = window.low;
          do {
            const Chunk* nb = chunk.box().Contains(probe)
                                  ? &chunk
                                  : a.FindChunk(a.ChunkOriginFor(probe));
            if (nb == nullptr || !nb->box().Contains(probe)) continue;
            const int64_t r = RankInBox(nb->box(), probe);
            if (nb->IsPresent(r)) {
              RETURN_NOT_OK(state->Accumulate(nb->block(attr_idx).Get(r)));
            }
          } while (NextInBox(window, &probe));
          oc->block(0).Set(it.rank(), state->Finalize());
          oc->MarkPresent(it.rank());
        }
        return oc;
      }));
  return out;
}

}  // namespace scidb
