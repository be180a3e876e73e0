#include "types/value.h"

#include <sstream>

namespace scidb {

Result<double> Value::AsDouble() const {
  if (is_double()) return double_value();
  if (is_int64()) return static_cast<double>(int64_value());
  if (is_uncertain()) return uncertain_value().mean;
  if (is_bool()) return bool_value() ? 1.0 : 0.0;
  return Status::TypeMismatch("value is not numeric: " + ToString());
}

Result<int64_t> Value::AsInt64() const {
  if (is_int64()) return int64_value();
  if (is_double()) return DoubleToInt64(double_value());
  if (is_uncertain()) return DoubleToInt64(uncertain_value().mean);
  if (is_bool()) return static_cast<int64_t>(bool_value() ? 1 : 0);
  return Status::TypeMismatch("value is not numeric: " + ToString());
}

Result<Uncertain> Value::AsUncertain() const {
  if (is_uncertain()) return uncertain_value();
  if (is_double()) return Uncertain(double_value());
  if (is_int64()) return Uncertain(static_cast<double>(int64_value()));
  return Status::TypeMismatch("value is not numeric: " + ToString());
}

bool Value::EqualsForJoin(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  if (is_string() && other.is_string()) {
    return string_value() == other.string_value();
  }
  if (is_bool() && other.is_bool()) return bool_value() == other.bool_value();
  if (is_numeric() && other.is_numeric()) {
    // Uncertain values match when their 1-sigma intervals overlap
    // (paper §2.13: interval arithmetic for uncertain elements).
    if (is_uncertain() || other.is_uncertain()) {
      auto a = AsUncertain();
      auto b = other.AsUncertain();
      return a.ok() && b.ok() && a.value().Overlaps(b.value());
    }
    auto a = AsDouble();
    auto b = other.AsDouble();
    return a.ok() && b.ok() && a.value() == b.value();
  }
  return false;
}

bool Value::LessThan(const Value& other) const {
  if (is_null()) return !other.is_null();
  if (other.is_null()) return false;
  if (is_string() && other.is_string()) {
    return string_value() < other.string_value();
  }
  // Two int64s compare exactly (they may differ above 2^53, where their
  // doubles agree); mixed numeric pairs compare as doubles.
  if (is_int64() && other.is_int64()) {
    return int64_value() < other.int64_value();
  }
  if (is_numeric() && other.is_numeric()) {
    return AsDouble().value() < other.AsDouble().value();
  }
  if (is_bool() && other.is_bool()) {
    return bool_value() < other.bool_value();
  }
  return false;
}

std::string Value::ToString() const {
  std::ostringstream os;
  if (is_null()) {
    os << "NULL";
  } else if (is_bool()) {
    os << (bool_value() ? "true" : "false");
  } else if (is_int64()) {
    os << int64_value();
  } else if (is_double()) {
    os << double_value();
  } else if (is_uncertain()) {
    os << uncertain_value().mean << "±" << uncertain_value().stderr_;
  } else if (is_string()) {
    os << '"' << string_value() << '"';
  } else if (is_array()) {
    const auto& a = array_value();
    os << "array[";
    for (size_t i = 0; i < a->shape.size(); ++i) {
      if (i) os << "x";
      os << a->shape[i];
    }
    os << "]{";
    for (size_t i = 0; i < a->values.size() && i < 8; ++i) {
      if (i) os << ",";
      os << a->values[i].ToString();
    }
    if (a->values.size() > 8) os << ",...";
    os << "}";
  }
  return os.str();
}

}  // namespace scidb
