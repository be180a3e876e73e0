#ifndef SCIDB_TESTS_REFERENCE_AGGREGATES_H_
#define SCIDB_TESTS_REFERENCE_AGGREGATES_H_

// Boxed reference states for the built-in aggregates, written apart from
// the library's typed fold (udf/aggregate.h) so a differential against
// them checks the fold's arithmetic as well as its walk: sum and avg add
// each value as a double to a running sum starting at 0, stddev is
// Welford merged with the parallel-variance formula, min and max keep the
// first of equal values and compare int64 pairs exactly.
// RegisterBoxedClones adds "<name>_boxed" for each built-in, running these
// states as a UDF.

#include <cmath>
#include <memory>
#include <string>

#include "common/macros.h"
#include "udf/aggregate.h"

namespace scidb {
namespace reference {

class SumState : public AggregateState {
 public:
  explicit SumState(bool avg) : avg_(avg) {}
  Status Accumulate(const Value& v) override {
    if (v.is_null()) return Status::OK();
    ASSIGN_OR_RETURN(double d, v.AsDouble());
    sum_ += d;
    ++n_;
    return Status::OK();
  }
  Status Merge(const AggregateState& other) override {
    const auto& o = static_cast<const SumState&>(other);
    sum_ += o.sum_;
    n_ += o.n_;
    return Status::OK();
  }
  Value Finalize() const override {
    if (n_ == 0) return Value::Null();
    return Value(avg_ ? sum_ / static_cast<double>(n_) : sum_);
  }

 private:
  bool avg_;
  double sum_ = 0;
  int64_t n_ = 0;
};

class CountState : public AggregateState {
 public:
  Status Accumulate(const Value& v) override {
    if (!v.is_null()) ++n_;
    return Status::OK();
  }
  Status Merge(const AggregateState& other) override {
    n_ += static_cast<const CountState&>(other).n_;
    return Status::OK();
  }
  Value Finalize() const override { return Value(n_); }

 private:
  int64_t n_ = 0;
};

class MinMaxState : public AggregateState {
 public:
  explicit MinMaxState(bool is_min) : is_min_(is_min) {}
  Status Accumulate(const Value& v) override {
    if (v.is_null()) return Status::OK();
    if (best_.is_null() || (is_min_ ? Less(v, best_) : Less(best_, v))) {
      best_ = v;
    }
    return Status::OK();
  }
  Status Merge(const AggregateState& other) override {
    return Accumulate(static_cast<const MinMaxState&>(other).best_);
  }
  Value Finalize() const override { return best_; }

 private:
  static bool Less(const Value& a, const Value& b) {
    if (a.is_int64() && b.is_int64()) {
      return a.int64_value() < b.int64_value();
    }
    return a.AsDouble().ValueOrDie() < b.AsDouble().ValueOrDie();
  }
  bool is_min_;
  Value best_;
};

class StddevState : public AggregateState {
 public:
  Status Accumulate(const Value& v) override {
    if (v.is_null()) return Status::OK();
    ASSIGN_OR_RETURN(double d, v.AsDouble());
    ++n_;
    const double delta = d - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (d - mean_);
    return Status::OK();
  }
  Status Merge(const AggregateState& other) override {
    const auto& o = static_cast<const StddevState&>(other);
    if (o.n_ == 0) return Status::OK();
    if (n_ == 0) {
      *this = o;
      return Status::OK();
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    const double n = na + nb;
    m2_ = m2_ + o.m2_ + delta * delta * na * nb / n;
    mean_ = mean_ + delta * nb / n;
    n_ += o.n_;
    return Status::OK();
  }
  Value Finalize() const override {
    if (n_ < 2) return Value::Null();
    return Value(std::sqrt(m2_ / static_cast<double>(n_ - 1)));
  }

 private:
  int64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

// A fresh reference state for built-in `name`.
inline std::unique_ptr<AggregateState> NewState(const std::string& name) {
  if (name == "count") return std::make_unique<CountState>();
  if (name == "sum" || name == "avg") {
    return std::make_unique<SumState>(name == "avg");
  }
  if (name == "min" || name == "max") {
    return std::make_unique<MinMaxState>(name == "min");
  }
  SCIDB_CHECK(name == "stddev") << "no reference for " << name;
  return std::make_unique<StddevState>();
}

inline const char* const kBuiltins[] = {"count", "sum", "avg",
                                        "min",   "max", "stddev"};

// Registers "<name>_boxed" for every built-in, a UDF running the
// reference state above.
inline Status RegisterBoxedClones(AggregateRegistry* aggs) {
  for (const char* name : kBuiltins) {
    const std::string n = name;
    RETURN_NOT_OK(aggs->Register(
        AggregateFunction(n + "_boxed", [n] { return NewState(n); })));
  }
  return Status::OK();
}

}  // namespace reference
}  // namespace scidb

#endif  // SCIDB_TESTS_REFERENCE_AGGREGATES_H_
