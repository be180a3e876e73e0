#ifndef SCIDB_UDF_AGGREGATE_H_
#define SCIDB_UDF_AGGREGATE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace scidb {

// Postgres-style user-defined aggregate (paper §2.1: "We will also support
// user-defined aggregates, again POSTGRES-style"). An aggregate is a state
// machine: fresh state per group, Accumulate per cell, Merge for parallel
// partial aggregation across grid nodes, Finalize to a Value.
class AggregateState {
 public:
  virtual ~AggregateState() = default;
  virtual Status Accumulate(const Value& v) = 0;
  virtual Status Merge(const AggregateState& other) = 0;
  virtual Value Finalize() const = 0;
};

// The built-in aggregates, which the executor may fold over typed
// columns without boxing (FoldState below). Only AggregateRegistry's own
// built-ins carry a kind other than kNone, so an aggregate registered from
// outside runs its own states whatever its name.
enum class BuiltinAgg : uint8_t {
  kNone,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kStddev,
};

// The state of one built-in over one group, folded from unboxed values
// (the caller skips NULLs): the arithmetic of the built-in states, which
// run it on each value they take. Executors keep these in flat arrays
// (DESIGN.md §8), so a typed fold gives the bits the boxed one does.
struct FoldState {
  int64_t n = 0;   // non-NULL inputs folded
  double x = 0;    // sum; Welford mean; double or float min/max
  double m2 = 0;   // Welford sum of squared deviations
  int64_t i = 0;   // int64 min/max, compared exactly
};

template <BuiltinAgg K, typename T>
inline void Fold(FoldState* s, T v) {
  if constexpr (K == BuiltinAgg::kCount) {
    ++s->n;
  } else if constexpr (K == BuiltinAgg::kSum || K == BuiltinAgg::kAvg) {
    s->x += static_cast<double>(v);
    ++s->n;
  } else if constexpr (K == BuiltinAgg::kMin || K == BuiltinAgg::kMax) {
    // The first of equal values stays, and so does a NaN best.
    if constexpr (std::is_same_v<T, int64_t>) {
      if (s->n == 0 || (K == BuiltinAgg::kMin ? v < s->i : s->i < v)) {
        s->i = v;
      }
    } else {
      const double d = static_cast<double>(v);
      if (s->n == 0 || (K == BuiltinAgg::kMin ? d < s->x : s->x < d)) {
        s->x = d;
      }
    }
    ++s->n;
  } else {
    static_assert(K == BuiltinAgg::kStddev, "Welford");
    const double d = static_cast<double>(v);
    ++s->n;
    const double delta = d - s->x;
    s->x += delta / static_cast<double>(s->n);
    s->m2 += delta * (d - s->x);
  }
}

// `into` := the state of `into`'s inputs followed by `from`'s. `in` is
// the input type (int64 min/max keep `i`, the others `x`).
void MergeFold(BuiltinAgg kind, DataType in, const FoldState& from,
               FoldState* into);

// What a built-in state finalizes to: NULL, an int64 or a double.
struct FoldResult {
  enum Kind : uint8_t { kNull, kInt64, kDouble };
  Kind kind = kNull;
  int64_t i = 0;
  double d = 0;

  Value ToValue() const {
    if (kind == kNull) return Value::Null();
    return kind == kInt64 ? Value(i) : Value(d);
  }
};

inline FoldResult FinalizeFold(BuiltinAgg kind, DataType in,
                               const FoldState& s) {
  if (kind == BuiltinAgg::kCount) return {FoldResult::kInt64, s.n, 0};
  if (s.n == 0 || (kind == BuiltinAgg::kStddev && s.n < 2)) return {};
  switch (kind) {
    case BuiltinAgg::kSum:
      return {FoldResult::kDouble, 0, s.x};
    case BuiltinAgg::kAvg:
      return {FoldResult::kDouble, 0, s.x / static_cast<double>(s.n)};
    case BuiltinAgg::kMin:
    case BuiltinAgg::kMax:
      // An input value, with its type (a float is exact as a double).
      if (in == DataType::kInt64) return {FoldResult::kInt64, s.i, 0};
      return {FoldResult::kDouble, 0, s.x};
    case BuiltinAgg::kStddev:
      return {FoldResult::kDouble, 0,
              std::sqrt(s.m2 / static_cast<double>(s.n - 1))};
    case BuiltinAgg::kCount:
    case BuiltinAgg::kNone:
      break;
  }
  return {};
}

class AggregateFunction {
 public:
  using StateFactory = std::function<std::unique_ptr<AggregateState>()>;

  AggregateFunction() = default;
  AggregateFunction(std::string name, StateFactory factory)
      : name_(std::move(name)), factory_(std::move(factory)) {}

  const std::string& name() const { return name_; }
  std::unique_ptr<AggregateState> NewState() const { return factory_(); }
  BuiltinAgg builtin() const { return builtin_; }

 private:
  friend class AggregateRegistry;  // sets builtin_ on its built-ins only
  std::string name_;
  StateFactory factory_;
  BuiltinAgg builtin_ = BuiltinAgg::kNone;
};

// Catalog of aggregates; pre-registers sum, count, avg, min, max, stddev
// and their uncertain-aware variants (usum/uavg propagate error bars in
// quadrature, paper §2.13).
class AggregateRegistry {
 public:
  AggregateRegistry();

  Status Register(AggregateFunction fn);
  Result<const AggregateFunction*> Find(const std::string& name) const;
  [[nodiscard]] bool Contains(const std::string& name) const;

 private:
  void RegisterBuiltins();
  std::map<std::string, AggregateFunction> fns_;
};

}  // namespace scidb

#endif  // SCIDB_UDF_AGGREGATE_H_
