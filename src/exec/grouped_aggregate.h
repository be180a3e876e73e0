#ifndef SCIDB_EXEC_GROUPED_AGGREGATE_H_
#define SCIDB_EXEC_GROUPED_AGGREGATE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/mem_array.h"
#include "common/result.h"
#include "exec/operators.h"

namespace scidb {

// The grouped-aggregation core (DESIGN.md §8) behind Aggregate,
// AggregateMulti, Regrid and the grid's ParallelAggregate. Every cell is
// folded into its group's states, one state per bound (agg, attr) call.
// Parts — one chunk each locally, one node's shard on the grid — are
// accumulated independently, then merged on one thread in part order and
// finalized. The caller fixes the part order, so the merge (and every
// floating-point sum it performs) never depends on worker count.
class GroupedAggregate {
 public:
  using Groups =
      std::map<Coordinates, std::vector<std::unique_ptr<AggregateState>>>;

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

  // Folds the present cells of `chunk`, in rank order, into `groups`.
  [[nodiscard]] Status Accumulate(const Chunk& chunk, Groups* groups) const;
  // Merges `parts` in order (the first part holding a group seeds it,
  // later ones Merge in) and finalizes one row per group into an array
  // named `out_name` with one attribute per call.
  Result<MemArray> Finish(std::vector<Groups> parts,
                          const std::string& out_name,
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
  };

  static Result<GroupedAggregate> Bind(const ExecContext& ctx,
                                       const ArraySchema& in,
                                       const std::vector<AggCall>& calls);
  void AddTerm(const ArraySchema& in, size_t dim, int64_t factor);
  std::vector<std::unique_ptr<AggregateState>> NewStates() const;

  std::vector<const AggregateFunction*> fns_;
  std::vector<size_t> attr_idx_;
  std::vector<AttributeDesc> inputs_;
  std::vector<KeyTerm> terms_;  // empty = grand aggregate
  std::vector<DimensionDesc> out_dims_;
};

}  // namespace scidb

#endif  // SCIDB_EXEC_GROUPED_AGGREGATE_H_
