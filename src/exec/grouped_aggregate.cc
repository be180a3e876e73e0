#include "exec/grouped_aggregate.h"

#include <set>
#include <utility>

#include "common/macros.h"
#include "exec/parallel.h"

namespace scidb {

Result<GroupedAggregate> GroupedAggregate::Bind(
    const ExecContext& ctx, const ArraySchema& in,
    const std::vector<AggCall>& calls) {
  if (ctx.aggregates == nullptr) {
    return Status::Internal("Aggregate: no aggregate registry bound");
  }
  if (calls.empty()) {
    return Status::Invalid("Aggregate: need at least one aggregate");
  }
  GroupedAggregate g;
  for (const AggCall& call : calls) {
    ASSIGN_OR_RETURN(const AggregateFunction* fn,
                     ctx.aggregates->Find(call.agg));
    size_t ai = 0;  // "*" = first attribute
    if (call.attr != "*") {
      ASSIGN_OR_RETURN(ai, in.AttrIndex(call.attr));
    } else if (in.nattrs() == 0) {
      return Status::Invalid("Aggregate: input has no attributes");
    }
    g.fns_.push_back(fn);
    g.attr_idx_.push_back(ai);
    g.inputs_.push_back(in.attr(ai));
  }
  return g;
}

void GroupedAggregate::AddTerm(const ArraySchema& in, size_t dim,
                               int64_t factor) {
  DimensionDesc dd = in.dim(dim);
  terms_.push_back({dim, dd.low, factor});
  if (!dd.unbounded()) {
    dd.high = dd.low + (dd.extent() + factor - 1) / factor - 1;
  }
  out_dims_.push_back(std::move(dd));
}

Result<GroupedAggregate> GroupedAggregate::ByDims(
    const ExecContext& ctx, const ArraySchema& in,
    const std::vector<std::string>& group_dims,
    const std::vector<AggCall>& calls) {
  ASSIGN_OR_RETURN(GroupedAggregate g, Bind(ctx, in, calls));
  std::set<size_t> seen;
  for (const std::string& name : group_dims) {
    ASSIGN_OR_RETURN(size_t di, in.DimIndex(name));
    if (!seen.insert(di).second) {
      return Status::Invalid("Aggregate: duplicate grouping dimension '" +
                             name + "'");
    }
    g.AddTerm(in, di, 1);
  }
  if (g.terms_.empty()) g.out_dims_.push_back({"all", 1, 1, 1});
  return g;
}

Result<GroupedAggregate> GroupedAggregate::ByBlocks(
    const ExecContext& ctx, const ArraySchema& in,
    const std::vector<int64_t>& factors, const std::vector<AggCall>& calls) {
  if (factors.size() != in.ndims()) {
    return Status::Invalid("Regrid: need one factor per dimension");
  }
  for (int64_t f : factors) {
    if (f <= 0) return Status::Invalid("Regrid: factors must be positive");
  }
  ASSIGN_OR_RETURN(GroupedAggregate g, Bind(ctx, in, calls));
  for (size_t d = 0; d < factors.size(); ++d) g.AddTerm(in, d, factors[d]);
  return g;
}

std::vector<std::unique_ptr<AggregateState>> GroupedAggregate::NewStates()
    const {
  std::vector<std::unique_ptr<AggregateState>> states;
  states.reserve(fns_.size());
  for (const AggregateFunction* fn : fns_) states.push_back(fn->NewState());
  return states;
}

Status GroupedAggregate::Accumulate(const Chunk& chunk, Groups* groups) const {
  const Box& box = chunk.box();
  const int64_t cap = chunk.cell_capacity();
  Coordinates c = box.low;
  Coordinates key;
  auto git = groups->end();
  for (int64_t rank = 0; rank < cap; ++rank) {
    // Odometer walk, as MemArray::ForEachCell: no per-cell allocation.
    if (rank > 0) (void)NextInBox(box, &c);
    if (!chunk.IsPresent(rank)) continue;
    key.clear();
    for (const KeyTerm& t : terms_) {
      key.push_back(t.low + (c[t.dim] - t.low) / t.factor);
    }
    if (terms_.empty()) key.push_back(1);
    // Neighbouring cells mostly share a group: skip the lookup then.
    if (git == groups->end() || git->first != key) {
      git = groups->find(key);
      if (git == groups->end()) git = groups->emplace(key, NewStates()).first;
    }
    for (size_t k = 0; k < fns_.size(); ++k) {
      RETURN_NOT_OK(
          git->second[k]->Accumulate(chunk.block(attr_idx_[k]).Get(rank)));
    }
  }
  return Status::OK();
}

Result<MemArray> GroupedAggregate::Finish(
    std::vector<Groups> parts, const std::string& out_name,
    std::vector<AttributeDesc> out_attrs) const {
  Groups groups;
  for (Groups& part : parts) {
    for (auto& [key, states] : part) {
      auto [it, fresh] = groups.try_emplace(key);
      if (fresh) {
        it->second = std::move(states);
        continue;
      }
      for (size_t k = 0; k < states.size(); ++k) {
        RETURN_NOT_OK(it->second[k]->Merge(*states[k]));
      }
    }
  }
  // A grand aggregate over empty input still produces its one cell (SQL
  // semantics: SUM of nothing is NULL, COUNT of nothing is 0).
  if (terms_.empty() && groups.empty()) {
    groups.emplace(Coordinates{1}, NewStates());
  }
  MemArray out(ArraySchema(out_name, out_dims_, std::move(out_attrs)));
  std::vector<Value> row;
  for (const auto& [key, states] : groups) {
    row.clear();
    for (const auto& state : states) row.push_back(state->Finalize());
    RETURN_NOT_OK(out.SetCell(key, row));
  }
  return out;
}

Result<MemArray> GroupedAggregate::Run(
    const ExecContext& ctx, const MemArray& in, const std::string& out_name,
    std::vector<AttributeDesc> out_attrs) const {
  // One part per chunk at EVERY pool width: the partial+merge shape is
  // the algorithm, not a parallel special case, so results are
  // bit-identical at parallelism 1/2/8.
  std::vector<Groups> parts(in.chunks().size());
  RETURN_NOT_OK(ForEachChunkParallel(
      ctx, in,
      [&](size_t index, const Coordinates&, const Chunk& chunk,
          ExecStats* stats) -> Status {
        stats->cells_visited += chunk.present_count();
        return Accumulate(chunk, &parts[index]);
      }));
  return Finish(std::move(parts), out_name, std::move(out_attrs));
}

}  // namespace scidb
