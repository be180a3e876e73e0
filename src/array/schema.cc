#include "array/schema.h"

#include <set>
#include <sstream>

namespace scidb {

std::optional<size_t> ArraySchema::FindDim(const std::string& name) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i].name == name) return i;
  }
  return std::nullopt;
}

std::optional<size_t> ArraySchema::FindAttr(const std::string& name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return std::nullopt;
}

Result<size_t> ArraySchema::DimIndex(const std::string& name) const {
  if (auto i = FindDim(name)) return *i;
  return Status::NotFound("no dimension named '" + name + "' in array '" +
                          name_ + "'");
}

Result<size_t> ArraySchema::AttrIndex(const std::string& name) const {
  if (auto i = FindAttr(name)) return *i;
  return Status::NotFound("no attribute named '" + name + "' in array '" +
                          name_ + "'");
}

Box ArraySchema::DeclaredBox() const {
  Box b;
  for (const auto& d : dims_) {
    b.low.push_back(d.low);
    b.high.push_back(d.high);  // kUnboundedDim when unbounded
  }
  return b;
}

Result<Box> ArraySchema::Bounds() const {
  Box b;
  b.low.reserve(dims_.size());
  b.high.reserve(dims_.size());
  for (const auto& d : dims_) {
    if (d.unbounded()) {
      return Status::Invalid("array '" + name_ +
                             "' has an unbounded dimension ('" + d.name +
                             "'); use the storage high-water mark");
    }
    b.low.push_back(d.low);
    b.high.push_back(d.high);
  }
  return b;
}

bool ArraySchema::HasUnboundedDim() const {
  for (const auto& d : dims_) {
    if (d.unbounded()) return true;
  }
  return false;
}

Status ArraySchema::Validate() const {
  if (dims_.empty()) return Status::Invalid("array must have >= 1 dimension");
  if (attrs_.empty()) return Status::Invalid("array must have >= 1 attribute");
  std::set<std::string> names;
  for (const auto& d : dims_) {
    if (d.name.empty()) return Status::Invalid("empty dimension name");
    if (!names.insert(d.name).second) {
      return Status::Invalid("duplicate dimension name: " + d.name);
    }
    if (!d.unbounded() && d.high < d.low) {
      return Status::Invalid("dimension '" + d.name + "' has high < low");
    }
    if (d.chunk_interval <= 0) {
      return Status::Invalid("dimension '" + d.name +
                             "' has non-positive chunk interval");
    }
  }
  for (const auto& a : attrs_) {
    if (a.name.empty()) return Status::Invalid("empty attribute name");
    if (!names.insert(a.name).second) {
      return Status::Invalid("duplicate attribute/dimension name: " + a.name);
    }
    if (a.uncertain && !IsNumeric(a.type)) {
      return Status::Invalid("attribute '" + a.name +
                             "': only numeric types can be uncertain");
    }
  }
  return Status::OK();
}

bool ArraySchema::ContainsCoords(const Coordinates& c) const {
  if (c.size() != dims_.size()) return false;
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (c[d] < dims_[d].low) return false;
    if (!dims_[d].unbounded() && c[d] > dims_[d].high) return false;
  }
  return true;
}

std::string ArraySchema::ToString() const {
  std::ostringstream os;
  os << "define ";
  if (updatable_) os << "updatable ";
  os << name_ << " (";
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (i) os << ", ";
    os << attrs_[i].name << " = ";
    if (attrs_[i].uncertain) os << "uncertain ";
    os << DataTypeName(attrs_[i].type);
  }
  os << ") (";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ", ";
    os << dims_[i].name;
    if (dims_[i].low != 1 || !dims_[i].unbounded()) {
      os << "=" << dims_[i].low << ":";
      if (dims_[i].unbounded()) {
        os << "*";
      } else {
        os << dims_[i].high;
      }
    }
  }
  os << ")";
  return os.str();
}

}  // namespace scidb
