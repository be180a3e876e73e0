#include "udf/aggregate.h"

#include <cmath>

#include "common/macros.h"
#include "types/uncertain.h"

namespace scidb {
namespace {

// Nulls are skipped by every built-in (SQL semantics); count counts
// non-null values only.

// sum, count, avg and stddev: the FoldState of each non-NULL value as a
// double (count takes a value of any type).
class FoldedState : public AggregateState {
 public:
  explicit FoldedState(BuiltinAgg kind) : kind_(kind) {}
  Status Accumulate(const Value& v) override {
    if (v.is_null()) return Status::OK();
    if (kind_ == BuiltinAgg::kCount) {
      Fold<BuiltinAgg::kCount>(&s_, 0);
      return Status::OK();
    }
    ASSIGN_OR_RETURN(double d, v.AsDouble());
    if (kind_ == BuiltinAgg::kStddev) {
      Fold<BuiltinAgg::kStddev>(&s_, d);
    } else {
      Fold<BuiltinAgg::kSum>(&s_, d);  // avg folds as sum does
    }
    return Status::OK();
  }
  Status Merge(const AggregateState& other) override {
    MergeFold(kind_, DataType::kDouble,
              static_cast<const FoldedState&>(other).s_, &s_);
    return Status::OK();
  }
  Value Finalize() const override {
    return FinalizeFold(kind_, DataType::kDouble, s_).ToValue();
  }

 private:
  BuiltinAgg kind_;
  FoldState s_;
};

class MinMaxState : public AggregateState {
 public:
  explicit MinMaxState(bool is_min) : is_min_(is_min) {}
  Status Accumulate(const Value& v) override {
    if (v.is_null()) return Status::OK();
    if (best_.is_null() || (is_min_ ? v.LessThan(best_) : best_.LessThan(v))) {
      best_ = v;
    }
    return Status::OK();
  }
  Status Merge(const AggregateState& other) override {
    return Accumulate(static_cast<const MinMaxState&>(other).best_);
  }
  Value Finalize() const override { return best_; }

 private:
  bool is_min_;
  Value best_;
};

// Uncertain sum/avg: means add, errors add in quadrature (paper §2.13).
class UncertainSumState : public AggregateState {
 public:
  explicit UncertainSumState(bool avg) : avg_(avg) {}
  Status Accumulate(const Value& v) override {
    if (v.is_null()) return Status::OK();
    ASSIGN_OR_RETURN(Uncertain u, v.AsUncertain());
    acc_.Add(u);
    return Status::OK();
  }
  Status Merge(const AggregateState& other) override {
    const auto& o = static_cast<const UncertainSumState&>(other);
    acc_.mean += o.acc_.mean;
    acc_.var += o.acc_.var;
    acc_.count += o.acc_.count;
    return Status::OK();
  }
  Value Finalize() const override {
    if (acc_.count == 0) return Value::Null();
    return Value(avg_ ? acc_.Avg() : acc_.Sum());
  }

 private:
  bool avg_;
  UncertainSum acc_;
};

}  // namespace

void MergeFold(BuiltinAgg kind, DataType in, const FoldState& from,
               FoldState* into) {
  switch (kind) {
    case BuiltinAgg::kCount:
      into->n += from.n;
      return;
    case BuiltinAgg::kSum:
    case BuiltinAgg::kAvg:
      into->x += from.x;
      into->n += from.n;
      return;
    case BuiltinAgg::kMin:
    case BuiltinAgg::kMax:
      // Fold the other side's best value in.
      if (from.n == 0) return;
      if (in == DataType::kInt64) {
        if (kind == BuiltinAgg::kMin) {
          Fold<BuiltinAgg::kMin>(into, from.i);
        } else {
          Fold<BuiltinAgg::kMax>(into, from.i);
        }
      } else if (kind == BuiltinAgg::kMin) {
        Fold<BuiltinAgg::kMin>(into, from.x);
      } else {
        Fold<BuiltinAgg::kMax>(into, from.x);
      }
      return;
    case BuiltinAgg::kStddev: {
      // The parallel-variance formula.
      if (from.n == 0) return;
      if (into->n == 0) {
        *into = from;
        return;
      }
      const double na = static_cast<double>(into->n);
      const double nb = static_cast<double>(from.n);
      const double delta = from.x - into->x;
      const double n = na + nb;
      into->m2 = into->m2 + from.m2 + delta * delta * na * nb / n;
      into->x = into->x + delta * nb / n;
      into->n += from.n;
      return;
    }
    case BuiltinAgg::kNone:
      return;
  }
}

AggregateRegistry::AggregateRegistry() { RegisterBuiltins(); }

Status AggregateRegistry::Register(AggregateFunction fn) {
  if (fn.name().empty()) return Status::Invalid("aggregate name is empty");
  auto [it, inserted] = fns_.emplace(fn.name(), std::move(fn));
  if (!inserted) {
    return Status::AlreadyExists("aggregate '" + it->first +
                                 "' already registered");
  }
  return Status::OK();
}

Result<const AggregateFunction*> AggregateRegistry::Find(
    const std::string& name) const {
  auto it = fns_.find(name);
  if (it == fns_.end()) {
    return Status::NotFound("no aggregate named '" + name + "'");
  }
  return &it->second;
}

bool AggregateRegistry::Contains(const std::string& name) const {
  return fns_.count(name) > 0;
}

void AggregateRegistry::RegisterBuiltins() {
  // A builtin failing to register (duplicate name) is a programming
  // error, not a runtime condition; crash rather than drop the Status.
  auto must = [this](AggregateFunction fn,
                     BuiltinAgg kind = BuiltinAgg::kNone) {
    fn.builtin_ = kind;
    Status st = Register(std::move(fn));
    SCIDB_CHECK(st.ok()) << "builtin aggregate: " << st.ToString();
  };
  auto folded = [&](const char* name, BuiltinAgg kind) {
    must(AggregateFunction(
             name, [kind] { return std::make_unique<FoldedState>(kind); }),
         kind);
  };
  folded("sum", BuiltinAgg::kSum);
  folded("count", BuiltinAgg::kCount);
  folded("avg", BuiltinAgg::kAvg);
  folded("stddev", BuiltinAgg::kStddev);
  must(AggregateFunction(
           "min", [] { return std::make_unique<MinMaxState>(true); }),
       BuiltinAgg::kMin);
  must(AggregateFunction(
           "max", [] { return std::make_unique<MinMaxState>(false); }),
       BuiltinAgg::kMax);
  must(AggregateFunction(
      "usum", [] { return std::make_unique<UncertainSumState>(false); }));
  must(AggregateFunction(
      "uavg", [] { return std::make_unique<UncertainSumState>(true); }));
}

}  // namespace scidb
