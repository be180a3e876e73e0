#ifndef SCIDB_TYPES_VALUE_H_
#define SCIDB_TYPES_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "types/data_type.h"
#include "types/uncertain.h"

namespace scidb {

class Value;

// `d` truncated toward zero, with INT64_MIN for NaN, +-inf and anything
// outside [-2^63, 2^63): what x86-64's conversion instruction gives,
// without the undefined behaviour of a static_cast out of range.
inline int64_t DoubleToInt64(double d) {
  return d >= -0x1p63 && d < 0x1p63 ? static_cast<int64_t>(d) : INT64_MIN;
}

// A nested array stored inside a cell (paper §2.1: "array cells containing
// records, which in turn can contain components that are multi-dimensional
// arrays"). Used e.g. by the eBay clickstream model where each time step
// embeds the array of surfaced search results.
struct NestedArray {
  std::vector<int64_t> shape;   // per-dimension lengths
  std::vector<Value> values;    // row-major, product(shape) entries

  int64_t cell_count() const {
    int64_t n = 1;
    for (int64_t s : shape) n *= s;
    return n;
  }
};

// Dynamically-typed scalar used at API boundaries, in expressions, and in
// sparse/mixed contexts. Hot loops inside operators use the typed columnar
// accessors on AttributeBlock instead; Value is the lingua franca, not the
// storage format.
class Value {
 public:
  Value() : v_(std::monostate{}) {}  // NULL
  explicit Value(bool b) : v_(b) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(const Uncertain& u) : v_(u) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(std::shared_ptr<NestedArray> a) : v_(std::move(a)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_uncertain() const { return std::holds_alternative<Uncertain>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<NestedArray>>(v_);
  }
  bool is_numeric() const {
    return is_int64() || is_double() || is_uncertain();
  }

  bool bool_value() const { return std::get<bool>(v_); }
  int64_t int64_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const Uncertain& uncertain_value() const { return std::get<Uncertain>(v_); }
  const std::string& string_value() const { return std::get<std::string>(v_); }
  const std::shared_ptr<NestedArray>& array_value() const {
    return std::get<std::shared_ptr<NestedArray>>(v_);
  }

  // Numeric coercions used by the expression evaluator. Return an error for
  // non-numeric payloads; NULL coerces to an error as well (callers handle
  // NULL before coercing, mirroring SQL's three-valued evaluation).
  Result<double> AsDouble() const;
  Result<int64_t> AsInt64() const;
  // An exact number becomes (x, 0); an Uncertain passes through.
  Result<Uncertain> AsUncertain() const;

  // Equality is exact (NULL != NULL, mirroring the executor's join
  // semantics where NULL never matches).
  [[nodiscard]] bool EqualsForJoin(const Value& other) const;

  // Total ordering over non-null values of the same family; used by tests
  // and min/max aggregates. Null sorts first.
  [[nodiscard]] bool LessThan(const Value& other) const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, Uncertain, std::string,
               std::shared_ptr<NestedArray>>
      v_;
};

}  // namespace scidb

#endif  // SCIDB_TYPES_VALUE_H_
