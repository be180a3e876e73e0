#ifndef SCIDB_EXEC_GROUPED_AGGREGATE_H_
#define SCIDB_EXEC_GROUPED_AGGREGATE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/mem_array.h"
#include "common/result.h"
#include "exec/operators.h"
#include "exec/typed_fold.h"

namespace scidb {

// The grouped-aggregation core (DESIGN.md §8) behind Aggregate,
// AggregateMulti, Regrid and the grid's ParallelAggregate. Every cell is
// folded into its group's states, one state per bound (agg, attr) call:
// a typed FoldState for a built-in over a typed column (FoldsTyped), an
// AggregateState for the rest. Parts — one chunk each locally, one node's
// shard on the grid — are accumulated independently, then merged on one
// thread in part order and finalized. The caller fixes the part order, so
// the merge (and every floating-point sum it performs) never depends on
// worker count.
class GroupedAggregate {
 public:
  // One part's groups. Each group holds a slot, numbered in the order
  // the part first saw it, that indexes the flat per-call state arrays.
  // Filled by Accumulate, consumed by Finish.
  class Part {
   private:
    friend class GroupedAggregate;
    // Slot of `key`, adding the group with fresh states when new.
    size_t SlotFor(const GroupedAggregate& g, const Coordinates& key);
    // Appends fresh states for one more slot and returns its number.
    size_t AddSlot(const GroupedAggregate& g);
    // Appends one more slot holding the states of slot `from` of `src`,
    // moved out of it.
    void TakeSlot(const GroupedAggregate& g, Part* src, size_t from);

    size_t nslots_ = 0;
    std::map<Coordinates, size_t> slots_;
    std::vector<FoldState> typed_;                         // [slot][typed]
    std::vector<std::unique_ptr<AggregateState>> boxed_;   // [slot][boxed]
  };

  // Groups by projection onto `group_dims`; unknown or repeated names are
  // rejected. No dims is the grand aggregate: one group, keyed {1} under
  // the synthetic output dimension all[1:1], present even on empty input.
  static Result<GroupedAggregate> ByDims(
      const ExecContext& ctx, const ArraySchema& in,
      const std::vector<std::string>& group_dims,
      const std::vector<AggCall>& calls);
  // Groups by Regrid block: along dimension d the cell c falls in block
  // low + (c - low) / factors[d]. Needs one positive factor per dimension.
  static Result<GroupedAggregate> ByBlocks(const ExecContext& ctx,
                                           const ArraySchema& in,
                                           const std::vector<int64_t>& factors,
                                           const std::vector<AggCall>& calls);

  // Folds the present cells of `chunk`, each group in rank order, into
  // `part`, continuing the states the part's earlier chunks left. A group
  // exists from its first present cell on, even when every value is NULL.
  [[nodiscard]] Status Accumulate(const Chunk& chunk, Part* part) const;
  // Merges `parts` in order (the first part holding a group seeds it,
  // later ones Merge in) and finalizes one cell per group into an array
  // named `out_name` with one attribute per call.
  Result<MemArray> Finish(std::vector<Part> parts, const std::string& out_name,
                          std::vector<AttributeDesc> out_attrs) const;
  // The input attribute of call `k` (the first attribute for "*").
  const AttributeDesc& input(size_t k) const { return inputs_[k]; }
  // Accumulates each chunk of `in` as its own part, morsel-parallel on
  // ctx.pool at every width, then Finish()es in chunk-map order.
  Result<MemArray> Run(const ExecContext& ctx, const MemArray& in,
                       const std::string& out_name,
                       std::vector<AttributeDesc> out_attrs) const;

 private:
  // Key term: key component = low + (c[dim] - low) / factor. A projection
  // is the factor-1 case.
  struct KeyTerm {
    size_t dim;
    int64_t low;
    int64_t factor;
    int64_t Key(int64_t c) const { return low + (c - low) / factor; }
  };
  // One bound call: a typed fold (kind != kNone) or a boxed state, at
  // index `state` of its part's typed or boxed states per slot.
  struct Call {
    BuiltinAgg kind;
    size_t attr;
    size_t state;
    const AggregateFunction* fn;
  };

  static Result<GroupedAggregate> Bind(const ExecContext& ctx,
                                       const ArraySchema& in,
                                       const std::vector<AggCall>& calls);
  void AddTerm(const ArraySchema& in, size_t dim, int64_t factor);
  // The group key of the cell at `c`.
  Coordinates KeyOf(const Coordinates& c) const;
  // The slot of every cell of `chunk` (-1 where absent), looking each
  // in-chunk group up in `part` once.
  void MapSlots(const Chunk& chunk, Part* part,
                std::vector<int64_t>* slot_of) const;

  std::vector<Call> calls_;
  size_t ntyped_ = 0;
  size_t nboxed_ = 0;
  std::vector<AttributeDesc> inputs_;
  std::vector<KeyTerm> terms_;  // empty = grand aggregate
  std::vector<DimensionDesc> out_dims_;
};

}  // namespace scidb

#endif  // SCIDB_EXEC_GROUPED_AGGREGATE_H_
