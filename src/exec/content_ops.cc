#include <memory>
#include <set>

#include "common/macros.h"
#include "exec/bound_expr.h"
#include "exec/grouped_aggregate.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace scidb {

// ---------------------------------------------------------------- Filter

Result<MemArray> Filter(const ExecContext& ctx, const MemArray& a,
                        const ExprPtr& pred) {
  if (pred == nullptr) return Status::Invalid("Filter: null predicate");
  const ArraySchema& schema = a.schema();
  MemArray out(schema);
  out.mutable_schema()->set_name(schema.name() + "_filter");

  // Paper: cells failing P "will contain NULL" — present, null-valued.
  const BoundExpr bound = BoundExpr::Bind(pred, schema, ctx.functions);
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk, ExecStats* stats) {
        stats->cells_visited += chunk.present_count();
        return bound.MapChunk(CellMap::kFilter, chunk, schema.attrs());
      }));
  return out;
}

// ------------------------------------------------------------- Aggregate

AttributeDesc AggOutputAttr(const std::string& agg) {
  if (agg == "count") return {agg, DataType::kInt64, true, false};
  if (agg == "usum" || agg == "uavg") {
    return {agg, DataType::kDouble, true, true};
  }
  return {agg, DataType::kDouble, true, false};
}

// Aggregate is the one-call case of AggregateMulti, but keeps the bare
// AggOutputAttr(agg) attribute name that AQL results and plans print.
Result<MemArray> Aggregate(const ExecContext& ctx, const MemArray& a,
                           const std::vector<std::string>& group_dims,
                           const std::string& agg, const std::string& attr) {
  ASSIGN_OR_RETURN(
      GroupedAggregate core,
      GroupedAggregate::ByDims(ctx, a.schema(), group_dims, {{agg, attr}}));
  return core.Run(ctx, a, a.schema().name() + "_agg", {AggOutputAttr(agg)});
}

Result<MemArray> AggregateMulti(const ExecContext& ctx, const MemArray& a,
                                const std::vector<std::string>& group_dims,
                                const std::vector<AggCall>& calls) {
  ASSIGN_OR_RETURN(
      GroupedAggregate core,
      GroupedAggregate::ByDims(ctx, a.schema(), group_dims, calls));
  std::vector<AttributeDesc> out_attrs;
  std::set<std::string> used_names;
  for (const AggCall& call : calls) {
    AttributeDesc desc = AggOutputAttr(call.agg);
    if (call.attr != "*") desc.name = call.agg + "_" + call.attr;
    while (!used_names.insert(desc.name).second) desc.name += "_2";
    out_attrs.push_back(std::move(desc));
  }
  return core.Run(ctx, a, a.schema().name() + "_agg", std::move(out_attrs));
}

// ----------------------------------------------------------------- Cjoin

Result<MemArray> Cjoin(const ExecContext& ctx, const MemArray& a,
                       const MemArray& b, const ExprPtr& pred) {
  if (pred == nullptr) return Status::Invalid("Cjoin: null predicate");
  const ArraySchema& sa = a.schema();
  const ArraySchema& sb = b.schema();

  std::vector<DimensionDesc> dims = sa.dims();
  for (DimensionDesc d : sb.dims()) {
    while (sa.DimIndex(d.name).ok()) d.name += "_2";
    dims.push_back(std::move(d));
  }
  ArraySchema out_schema(sa.name() + "_cjoin", std::move(dims),
                         MergeAttrs(sa.attrs(), sb.attrs()));
  MemArray out(out_schema);

  EvalContext ectx;
  ectx.functions = ctx.functions;
  Coordinates ca_bound, cb_bound;
  std::vector<Value> va, vb;
  ectx.sides.push_back({&sa, &ca_bound, &va});
  ectx.sides.push_back({&sb, &cb_bound, &vb});

  std::vector<Value> nulls(out_schema.nattrs());
  Status st;
  bool failed = false;
  a.ForEachCell([&](const Coordinates& ca, const Chunk& ach, int64_t ar) {
    va.clear();
    for (size_t at = 0; at < ach.nattrs(); ++at) {
      va.push_back(ach.block(at).Get(ar));
    }
    ca_bound = ca;
    b.ForEachCell([&](const Coordinates& cb, const Chunk& bch, int64_t br) {
      if (ctx.stats != nullptr) ++ctx.stats->cells_visited;
      vb.clear();
      for (size_t at = 0; at < bch.nattrs(); ++at) {
        vb.push_back(bch.block(at).Get(br));
      }
      cb_bound = cb;
      auto ok = pred->Eval(ectx);
      if (!ok.ok()) {
        st = ok.status();
        failed = true;
        return false;
      }
      bool match = ok.value().is_bool() && ok.value().bool_value();
      Coordinates oc = ca;
      oc.insert(oc.end(), cb.begin(), cb.end());
      if (match) {
        std::vector<Value> cell = va;
        cell.insert(cell.end(), vb.begin(), vb.end());
        st = out.SetCell(oc, cell);
      } else {
        // Figure 3: non-matching positions hold NULL.
        st = out.SetCell(oc, nulls);
      }
      if (!st.ok()) {
        failed = true;
        return false;
      }
      return true;
    });
    return !failed;
  });
  if (failed) return st;
  return out;
}

// ----------------------------------------------------------------- Apply

Result<MemArray> Apply(const ExecContext& ctx, const MemArray& a,
                       const std::string& name, DataType type,
                       const ExprPtr& e, bool uncertain) {
  if (e == nullptr) return Status::Invalid("Apply: null expression");
  const ArraySchema& schema = a.schema();
  if (schema.FindDim(name) || schema.FindAttr(name)) {
    return Status::Invalid("Apply: name '" + name + "' already in use");
  }
  std::vector<AttributeDesc> attrs = schema.attrs();
  attrs.push_back({name, type, true, uncertain});
  ArraySchema out_schema(schema.name() + "_apply", schema.dims(),
                         std::move(attrs));
  MemArray out(out_schema);

  const std::vector<AttributeDesc>& out_attrs = out.schema().attrs();
  const BoundExpr bound = BoundExpr::Bind(e, schema, ctx.functions);
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk, ExecStats* stats) {
        stats->cells_visited += chunk.present_count();
        return bound.MapChunk(CellMap::kApply, chunk, out_attrs);
      }));
  return out;
}

// --------------------------------------------------------------- Project

Result<MemArray> Project(const ExecContext& ctx, const MemArray& a,
                         const std::vector<std::string>& attrs) {
  if (attrs.empty()) {
    return Status::Invalid("Project: need at least one attribute");
  }
  const ArraySchema& schema = a.schema();
  std::vector<size_t> idx;
  std::vector<AttributeDesc> out_attrs;
  for (const auto& name : attrs) {
    ASSIGN_OR_RETURN(size_t ai, schema.AttrIndex(name));
    idx.push_back(ai);
    out_attrs.push_back(schema.attr(ai));
  }
  ArraySchema out_schema(schema.name() + "_project", schema.dims(),
                         std::move(out_attrs));
  MemArray out(out_schema);

  const std::vector<AttributeDesc>& kept = out.schema().attrs();
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk,
          ExecStats*) -> Result<std::shared_ptr<Chunk>> {
        auto oc = std::make_shared<Chunk>(chunk.box(), kept);
        for (Chunk::CellIterator it(chunk); it.valid(); it.Next()) {
          for (size_t k = 0; k < idx.size(); ++k) {
            oc->block(k).CopyCell(chunk.block(idx[k]), it.rank(), it.rank());
          }
          oc->MarkPresent(it.rank());
        }
        return oc;
      }));
  return out;
}

// ---------------------------------------------------------------- Regrid

Result<MemArray> Regrid(const ExecContext& ctx, const MemArray& a,
                        const std::vector<int64_t>& factors,
                        const std::string& agg, const std::string& attr) {
  ASSIGN_OR_RETURN(
      GroupedAggregate core,
      GroupedAggregate::ByBlocks(ctx, a.schema(), factors, {{agg, attr}}));
  return core.Run(ctx, a, a.schema().name() + "_regrid", {AggOutputAttr(agg)});
}

}  // namespace scidb
