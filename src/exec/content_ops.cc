#include <memory>
#include <set>

#include "common/macros.h"
#include "exec/bound_expr.h"
#include "exec/grouped_aggregate.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace scidb {

// ---------------------------------------------------------------- Filter

namespace {

// The body Filter and Cjoin share: `in` holds the operands `sides` side by
// side, and its cells where `pred` is not true keep their place but turn
// NULL (paper: failing cells "will contain NULL" — present, null-valued).
Result<MemArray> FilterSides(const ExecContext& ctx, const MemArray& in,
                             const ExprPtr& pred,
                             std::vector<const ArraySchema*> sides,
                             std::string name) {
  MemArray out(in.schema());
  out.mutable_schema()->set_name(std::move(name));
  const BoundExpr bound =
      BoundExpr::Bind(pred, std::move(sides), ctx.functions);
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, in, &out,
      [&](const Coordinates&, const Chunk& chunk, ExecStats* stats) {
        stats->cells_visited += chunk.present_count();
        return bound.MapChunk(CellMap::kFilter, chunk, in.schema().attrs());
      }));
  return out;
}

}  // namespace

Result<MemArray> Filter(const ExecContext& ctx, const MemArray& a,
                        const ExprPtr& pred) {
  if (pred == nullptr) return Status::Invalid("Filter: null predicate");
  return FilterSides(ctx, a, pred, {&a.schema()},
                     a.schema().name() + "_filter");
}

// ------------------------------------------------------------- Aggregate

AttributeDesc AggOutputAttr(const std::string& agg, const AttributeDesc& in) {
  if (agg == "count") return {agg, DataType::kInt64, true, false};
  if (agg == "usum" || agg == "uavg") {
    return {agg, DataType::kDouble, true, true};
  }
  // min/max return one of their inputs: a string stays a string, an
  // int64 above 2^53 stays exact.
  if (agg == "min" || agg == "max") return {agg, in.type, true, false};
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
  return core.Run(ctx, a, a.schema().name() + "_agg",
                  {AggOutputAttr(agg, core.input(0))});
}

Result<MemArray> AggregateMulti(const ExecContext& ctx, const MemArray& a,
                                const std::vector<std::string>& group_dims,
                                const std::vector<AggCall>& calls) {
  ASSIGN_OR_RETURN(
      GroupedAggregate core,
      GroupedAggregate::ByDims(ctx, a.schema(), group_dims, calls));
  std::vector<AttributeDesc> out_attrs;
  std::set<std::string> used_names;
  for (size_t k = 0; k < calls.size(); ++k) {
    const AggCall& call = calls[k];
    AttributeDesc desc = AggOutputAttr(call.agg, core.input(k));
    if (call.attr != "*") desc.name = call.agg + "_" + call.attr;
    while (!used_names.insert(desc.name).second) desc.name += "_2";
    out_attrs.push_back(std::move(desc));
  }
  return core.Run(ctx, a, a.schema().name() + "_agg", std::move(out_attrs));
}

// ----------------------------------------------------------------- Cjoin

// Figure 3: every pair of cells, NULL wherever P is not true — Filter over
// CrossProduct, with P bound to (A, B).
Result<MemArray> Cjoin(const ExecContext& ctx, const MemArray& a,
                       const MemArray& b, const ExprPtr& pred) {
  if (pred == nullptr) return Status::Invalid("Cjoin: null predicate");
  ASSIGN_OR_RETURN(MemArray cross, CrossProduct(ctx, a, b));
  return FilterSides(ctx, cross, pred, {&a.schema(), &b.schema()},
                     a.schema().name() + "_cjoin");
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
  const BoundExpr bound = BoundExpr::Bind(e, {&schema}, ctx.functions);
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
  return core.Run(ctx, a, a.schema().name() + "_regrid",
                  {AggOutputAttr(agg, core.input(0))});
}

}  // namespace scidb
