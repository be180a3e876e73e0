#ifndef SCIDB_ARRAY_SCHEMA_H_
#define SCIDB_ARRAY_SCHEMA_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "array/coordinates.h"
#include "common/result.h"
#include "types/data_type.h"

namespace scidb {

// Paper §2.1: "create My_remote_2 as Remote [*, *]" — unbounded dims grow
// without restriction; the high-water mark is tracked by the storage layer.
inline constexpr int64_t kUnboundedDim = std::numeric_limits<int64_t>::max();

// One named integer dimension of a basic array.
struct DimensionDesc {
  std::string name;
  int64_t low = 1;               // paper dimensions start at 1
  int64_t high = kUnboundedDim;  // inclusive; kUnboundedDim == '*'
  int64_t chunk_interval = 64;   // storage stride along this dimension

  bool unbounded() const { return high == kUnboundedDim; }
  int64_t extent() const { return unbounded() ? kUnboundedDim : high - low + 1; }

  bool operator==(const DimensionDesc& o) const {
    return name == o.name && low == o.low && high == o.high;
  }
};

// One named value component of a cell ("s1 = float").
struct AttributeDesc {
  std::string name;
  DataType type = DataType::kDouble;
  bool nullable = true;
  // Paper §2.13: `uncertain x` — the attribute stores (mean, stderr).
  bool uncertain = false;

  bool operator==(const AttributeDesc& o) const {
    return name == o.name && type == o.type && nullable == o.nullable &&
           uncertain == o.uncertain;
  }
};

// The logical definition of an array type / instance. Covers the paper's
// two-step "define ArrayType (...)(...)" + "create X as ArrayType [..]"
// protocol: ArrayDef catalog entries hold a schema with unresolved bounds,
// Create() stamps out a schema with concrete high-water marks.
class ArraySchema {
 public:
  ArraySchema() = default;
  ArraySchema(std::string name, std::vector<DimensionDesc> dims,
              std::vector<AttributeDesc> attrs, bool updatable = false)
      : name_(std::move(name)),
        dims_(std::move(dims)),
        attrs_(std::move(attrs)),
        updatable_(updatable) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  size_t ndims() const { return dims_.size(); }
  size_t nattrs() const { return attrs_.size(); }
  const std::vector<DimensionDesc>& dims() const { return dims_; }
  const std::vector<AttributeDesc>& attrs() const { return attrs_; }
  const DimensionDesc& dim(size_t i) const { return dims_[i]; }
  const AttributeDesc& attr(size_t i) const { return attrs_[i]; }
  std::vector<DimensionDesc>* mutable_dims() { return &dims_; }

  // Paper §2.5: updatable arrays get a history dimension; our storage
  // keeps history as layered deltas (see version/), flagged here.
  bool updatable() const { return updatable_; }
  void set_updatable(bool u) { updatable_ = u; }

  Result<size_t> DimIndex(const std::string& name) const;
  Result<size_t> AttrIndex(const std::string& name) const;
  // Non-allocating lookups for per-cell and bind-time resolution: no
  // NotFound message is built for a miss.
  std::optional<size_t> FindDim(const std::string& name) const;
  std::optional<size_t> FindAttr(const std::string& name) const;

  // The full logical box [low, high] per dimension. Invalid for schemas
  // with unbounded dimensions (callers use the storage high-water mark).
  Result<Box> Bounds() const;
  // The declared box: Bounds(), with an unbounded dimension open up to
  // kUnboundedDim. Every cell the schema admits lies inside it.
  Box DeclaredBox() const;
  [[nodiscard]] bool HasUnboundedDim() const;

  // Validates shape invariants: nonempty dims/attrs, unique names,
  // positive chunk intervals, low <= high.
  Status Validate() const;

  // True when `c` lies inside the declared bounds (unbounded dims accept
  // any coordinate >= low).
  [[nodiscard]] bool ContainsCoords(const Coordinates& c) const;

  // "define Remote (s1=float,s2=float) (I,J)" style rendering.
  std::string ToString() const;

  bool operator==(const ArraySchema& o) const {
    return dims_ == o.dims_ && attrs_ == o.attrs_;
  }

 private:
  std::string name_;
  std::vector<DimensionDesc> dims_;
  std::vector<AttributeDesc> attrs_;
  bool updatable_ = false;
};

}  // namespace scidb

#endif  // SCIDB_ARRAY_SCHEMA_H_
