#ifndef SCIDB_EXEC_TYPED_FOLD_H_
#define SCIDB_EXEC_TYPED_FOLD_H_

#include <cstdint>
#include <type_traits>

#include "array/chunk.h"
#include "udf/aggregate.h"

namespace scidb {

// Executor helpers of the typed fold (DESIGN.md §8): which columns fold
// typed, a dispatch to the compile-time (aggregate, value type) pair,
// and the typed column reads and result writes around FoldState.

// True when column `in` folds typed under a built-in: a non-uncertain
// int64, float or double column.
inline bool FoldsTyped(const AttributeDesc& in) {
  return !in.uncertain && (in.type == DataType::kDouble ||
                           in.type == DataType::kFloat ||
                           in.type == DataType::kInt64);
}

// Writes the finalized `s` into cell `rank` of `out`: the cell
// out->Set(rank, <the boxed state's Finalize()>) leaves.
inline void FinalizeInto(BuiltinAgg kind, DataType in, const FoldState& s,
                         AttributeBlock* out, int64_t rank) {
  const FoldResult r = FinalizeFold(kind, in, s);
  const bool plain = !out->uncertain();
  if (r.kind == FoldResult::kDouble && plain &&
      out->type() == DataType::kDouble) {
    out->SetDouble(rank, r.d);
  } else if (r.kind == FoldResult::kInt64 && plain &&
             out->type() == DataType::kInt64) {
    out->SetInt64(rank, r.i);
  } else {
    out->Set(rank, r.ToValue());
  }
}

// Calls fn.template operator()<K, T>() with the compile-time aggregate
// kind and input value type of (`kind`, `type`); FoldsTyped() must hold.
template <typename T, typename Fn>
void WithFoldKind(BuiltinAgg kind, Fn& fn) {
  switch (kind) {
    case BuiltinAgg::kCount:
      return fn.template operator()<BuiltinAgg::kCount, T>();
    case BuiltinAgg::kSum:
      return fn.template operator()<BuiltinAgg::kSum, T>();
    case BuiltinAgg::kAvg:
      return fn.template operator()<BuiltinAgg::kAvg, T>();
    case BuiltinAgg::kMin:
      return fn.template operator()<BuiltinAgg::kMin, T>();
    case BuiltinAgg::kMax:
      return fn.template operator()<BuiltinAgg::kMax, T>();
    case BuiltinAgg::kStddev:
      return fn.template operator()<BuiltinAgg::kStddev, T>();
    case BuiltinAgg::kNone:
      return;
  }
}

template <typename Fn>
void WithFold(BuiltinAgg kind, DataType type, Fn&& fn) {
  switch (type) {
    case DataType::kInt64:
      return WithFoldKind<int64_t>(kind, fn);
    case DataType::kFloat:
      return WithFoldKind<float>(kind, fn);
    case DataType::kDouble:
      return WithFoldKind<double>(kind, fn);
    case DataType::kBool:
    case DataType::kString:
    case DataType::kArray:
      return;
  }
}

// The value column of `block` as T (T matching its type).
template <typename T>
const T* Column(const AttributeBlock& block) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return block.int64s().data();
  } else if constexpr (std::is_same_v<T, float>) {
    return block.floats().data();
  } else {
    return block.doubles().data();
  }
}

}  // namespace scidb

#endif  // SCIDB_EXEC_TYPED_FOLD_H_
