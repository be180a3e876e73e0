#include "exec/grouped_aggregate.h"

#include <algorithm>
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
    const BuiltinAgg kind =
        FoldsTyped(in.attr(ai)) ? fn->builtin() : BuiltinAgg::kNone;
    size_t& count = kind == BuiltinAgg::kNone ? g.nboxed_ : g.ntyped_;
    g.calls_.push_back({kind, ai, count++, fn});
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

size_t GroupedAggregate::Part::AddSlot(const GroupedAggregate& g) {
  typed_.resize(typed_.size() + g.ntyped_);
  for (const Call& call : g.calls_) {
    if (call.kind == BuiltinAgg::kNone) boxed_.push_back(call.fn->NewState());
  }
  return nslots_++;
}

void GroupedAggregate::Part::TakeSlot(const GroupedAggregate& g, Part* src,
                                     size_t from) {
  const auto typed = src->typed_.begin() +
                     static_cast<std::ptrdiff_t>(from * g.ntyped_);
  typed_.insert(typed_.end(), typed, typed + static_cast<std::ptrdiff_t>(
                                                 g.ntyped_));
  for (size_t k = 0; k < g.nboxed_; ++k) {
    boxed_.push_back(std::move(src->boxed_[from * g.nboxed_ + k]));
  }
  ++nslots_;
}

size_t GroupedAggregate::Part::SlotFor(const GroupedAggregate& g,
                                       const Coordinates& key) {
  auto [it, fresh] = slots_.try_emplace(key, nslots_);
  if (fresh) (void)AddSlot(g);
  return it->second;
}

Coordinates GroupedAggregate::KeyOf(const Coordinates& c) const {
  if (terms_.empty()) return {1};
  Coordinates key;
  key.reserve(terms_.size());
  for (const KeyTerm& t : terms_) key.push_back(t.Key(c[t.dim]));
  return key;
}

void GroupedAggregate::MapSlots(const Chunk& chunk, Part* part,
                                std::vector<int64_t>* slot_of) const {
  const Box& box = chunk.box();
  const size_t nd = box.ndims();
  const int64_t cap = chunk.cell_capacity();
  const uint8_t* present = chunk.presence().data();
  slot_of->assign(static_cast<size_t>(cap), -1);
  int64_t* out = slot_of->data();
  // Each key term is a floor division of one coordinate, so a cell's
  // dense in-chunk group id is a sum of one share per dimension, looked
  // up by the cell's offset in the chunk (no share: dimension not keyed).
  std::vector<std::vector<int64_t>> share(nd);
  int64_t groups = 1;
  for (auto t = terms_.rbegin(); t != terms_.rend(); ++t) {
    const int64_t lo = t->Key(box.low[t->dim]);
    const int64_t span = t->Key(box.high[t->dim]) - lo + 1;
    std::vector<int64_t>& s = share[t->dim];
    for (int64_t c = box.low[t->dim]; c <= box.high[t->dim]; ++c) {
      s.push_back((t->Key(c) - lo) * groups);
    }
    groups *= span;
  }
  // Row-major walk, one row of the last dimension at a time; a group's
  // slot is looked up at its first present cell in the chunk.
  std::vector<int64_t> local(static_cast<size_t>(groups), -1);
  const size_t last = nd - 1;
  const int64_t row = box.high[last] - box.low[last] + 1;
  const int64_t* inner = share[last].empty() ? nullptr : share[last].data();
  Box rows = box;
  rows.high[last] = box.low[last];
  Coordinates c = rows.low;
  int64_t rank = 0;
  do {
    int64_t base = 0;
    for (size_t d = 0; d < last; ++d) {
      if (!share[d].empty()) base += share[d][c[d] - box.low[d]];
    }
    for (int64_t j = 0; j < row; ++j, ++rank) {
      if (!present[rank]) continue;
      const int64_t g = base + (inner != nullptr ? inner[j] : 0);
      int64_t& slot = local[static_cast<size_t>(g)];
      if (slot < 0) {
        c[last] = box.low[last] + j;
        slot = static_cast<int64_t>(part->SlotFor(*this, KeyOf(c)));
        c[last] = box.low[last];
      }
      out[rank] = slot;
    }
  } while (NextInBox(rows, &c));
}

Status GroupedAggregate::Accumulate(const Chunk& chunk, Part* part) const {
  if (chunk.present_count() == 0) return Status::OK();
  std::vector<int64_t> slot_of;
  MapSlots(chunk, part, &slot_of);
  const int64_t cap = chunk.cell_capacity();
  for (const Call& call : calls_) {
    if (call.kind == BuiltinAgg::kNone) continue;
    const AttributeBlock& block = chunk.block(call.attr);
    FoldState* states = part->typed_.data() + call.state;
    WithFold(call.kind, block.type(), [&]<BuiltinAgg K, typename T>() {
      const T* vals = Column<T>(block);
      const uint8_t* nulls = block.nulls().data();
      const size_t stride = ntyped_;
      // Each run of one group's cells folds into a local copy of its
      // state: the same operations in the same order, kept in registers.
      int64_t cur = -1;
      FoldState s;
      for (int64_t r = 0; r < cap; ++r) {
        const int64_t slot = slot_of[static_cast<size_t>(r)];
        if (slot < 0 || nulls[r]) continue;
        if (slot != cur) {
          if (cur >= 0) states[static_cast<size_t>(cur) * stride] = s;
          cur = slot;
          s = states[static_cast<size_t>(cur) * stride];
        }
        Fold<K>(&s, vals[r]);
      }
      if (cur >= 0) states[static_cast<size_t>(cur) * stride] = s;
    });
  }
  if (nboxed_ == 0) return Status::OK();
  for (int64_t r = 0; r < cap; ++r) {
    const int64_t s = slot_of[static_cast<size_t>(r)];
    if (s < 0) continue;
    for (const Call& call : calls_) {
      if (call.kind != BuiltinAgg::kNone) continue;
      RETURN_NOT_OK(
          part->boxed_[static_cast<size_t>(s) * nboxed_ + call.state]
              ->Accumulate(chunk.block(call.attr).Get(r)));
    }
  }
  return Status::OK();
}

Result<MemArray> GroupedAggregate::Finish(
    std::vector<Part> parts, const std::string& out_name,
    std::vector<AttributeDesc> out_attrs) const {
  if (out_attrs.size() != calls_.size()) {
    return Status::Invalid("Aggregate: need one output attribute per call");
  }
  // A grand aggregate over empty input still produces its one cell (SQL
  // semantics: SUM of nothing is NULL, COUNT of nothing is 0).
  if (terms_.empty() &&
      std::all_of(parts.begin(), parts.end(),
                  [](const Part& p) { return p.nslots_ == 0; })) {
    parts.clear();
    (void)parts.emplace_back().SlotFor(*this, {1});
  }
  // The first part holding a group seeds it in `merged` with its own
  // states; later ones Merge in.
  Part merged;
  for (Part& part : parts) {
    for (const auto& [key, from] : part.slots_) {
      auto [it, fresh] = merged.slots_.try_emplace(key, merged.nslots_);
      if (fresh) {
        merged.TakeSlot(*this, &part, from);
        continue;
      }
      const size_t dst = it->second;
      for (size_t k = 0; k < calls_.size(); ++k) {
        const Call& call = calls_[k];
        if (call.kind != BuiltinAgg::kNone) {
          MergeFold(call.kind, inputs_[k].type,
                    part.typed_[from * ntyped_ + call.state],
                    &merged.typed_[dst * ntyped_ + call.state]);
        } else {
          RETURN_NOT_OK(merged.boxed_[dst * nboxed_ + call.state]->Merge(
              *part.boxed_[from * nboxed_ + call.state]));
        }
      }
    }
  }
  // Finalize each group into its output cell.
  MemArray out(ArraySchema(out_name, out_dims_, std::move(out_attrs)));
  Chunk* chunk = nullptr;
  for (const auto& [key, slot] : merged.slots_) {
    if (chunk == nullptr || !chunk->box().Contains(key)) {
      chunk = out.GetOrCreateChunk(out.ChunkOriginFor(key));
    }
    const int64_t r = RankInBox(chunk->box(), key);
    for (size_t k = 0; k < calls_.size(); ++k) {
      const Call& call = calls_[k];
      if (call.kind != BuiltinAgg::kNone) {
        FinalizeInto(call.kind, inputs_[k].type,
                     merged.typed_[slot * ntyped_ + call.state],
                     &chunk->block(k), r);
      } else {
        chunk->block(k).Set(
            r, merged.boxed_[slot * nboxed_ + call.state]->Finalize());
      }
    }
    chunk->MarkPresent(r);
  }
  return out;
}

Result<MemArray> GroupedAggregate::Run(
    const ExecContext& ctx, const MemArray& in, const std::string& out_name,
    std::vector<AttributeDesc> out_attrs) const {
  // One part per chunk at EVERY pool width: the partial+merge shape is
  // the algorithm, not a parallel special case, so results are
  // bit-identical at parallelism 1/2/8.
  std::vector<Part> parts(in.chunks().size());
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
