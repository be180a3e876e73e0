// Aggregation harness: decodes the input into a small 1-d or 2-d array of
// one int64, float or double attribute, a built-in aggregate and one of
// Aggregate (grand or grouped), Regrid or Window, then checks that the
// typed fold (DESIGN.md §8) gives what the boxed AggregateState fold
// gives. The boxed side runs a UDF clone of the built-in, "<name>_boxed",
// whose states are the references of tests/reference_aggregates.h,
// written apart from the typed fold. Same cells, same NULLs, same values
// (any NaN matching any NaN), or the same failing Status.
//
// Input layout: five bytes of shape, chunking, operator and parameters,
// then per cell one presence byte and one value byte. Exhausted input
// reads as zero bytes, so every byte string decodes to something.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/macros.h"
#include "exec/grouped_aggregate.h"
#include "exec/operators.h"
#include "tests/reference_aggregates.h"

namespace {

using scidb::AggCall;
using scidb::DataType;
using scidb::MemArray;
using scidb::Result;
using scidb::Value;

class Bytes {
 public:
  Bytes(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

[[noreturn]] void Fail(const std::string& property) {
  std::fprintf(stderr, "fuzz_aggregate: %s\n", property.c_str());
  std::fflush(stderr);
  std::abort();
}

// The built-ins, each with its boxed clone.
const scidb::AggregateRegistry& Aggregates() {
  static scidb::AggregateRegistry aggs;
  static const bool registered = [] {
    if (!scidb::reference::RegisterBoxedClones(&aggs).ok()) {
      Fail("cannot register the boxed clones");
    }
    return true;
  }();
  (void)registered;
  return aggs;
}

// NULL, specials (NaN, ±0.0, ±inf, int64 extremes, 2^53 + 1) and small
// values.
Value ValueFrom(uint8_t b, DataType type) {
  if (b % 4 == 0) return Value::Null();
  const int k = (b / 4) % 16;
  if (type == DataType::kInt64) {
    constexpr int64_t kBig = (int64_t{1} << 53) + 1;
    switch (k) {
      case 0: return Value(std::numeric_limits<int64_t>::min());
      case 1: return Value(std::numeric_limits<int64_t>::max());
      case 2: return Value(kBig);
      case 3: return Value(kBig - 1);
      case 4: return Value(-kBig);
      default: return Value(static_cast<int64_t>(k) - 9);
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  double x = 0;
  switch (k) {
    case 0: x = std::numeric_limits<double>::quiet_NaN(); break;
    case 1: x = inf; break;
    case 2: x = -inf; break;
    case 3: x = -0.0; break;
    case 4: x = 0.0; break;
    case 5: x = 1e300; break;
    case 6: x = 0.1; break;
    default: x = (k - 10) * 1.25; break;
  }
  if (type == DataType::kFloat) x = static_cast<float>(x);
  return Value(x);
}

struct Case {
  MemArray array;
  int op = 0;  // 0 grand, 1 grouped, 2 Regrid, 3 Window
  const char* agg = "count";
  std::vector<std::string> group;
  std::vector<int64_t> factors;
  std::vector<int64_t> radii;
};

// Up to 8 x 8 cells in chunks of 1 to 4; the last dimension may be
// unbounded.
Case Decode(Bytes* in) {
  const uint8_t shape = in->Next();
  const uint8_t sizes = in->Next();
  const uint8_t chunks = in->Next();
  const uint8_t op = in->Next();
  const uint8_t param = in->Next();
  const size_t nd = 1 + shape % 2;
  const DataType type = shape / 2 % 3 == 0   ? DataType::kInt64
                        : shape / 2 % 3 == 1 ? DataType::kFloat
                                             : DataType::kDouble;
  const bool unbounded = shape / 6 % 2 == 1;
  std::vector<scidb::DimensionDesc> dims;
  const int64_t n[2] = {1 + sizes % 8, 1 + sizes / 8 % 8};
  const int64_t c[2] = {1 + chunks % 4, 1 + chunks / 4 % 4};
  for (size_t d = 0; d < nd; ++d) {
    const bool open = unbounded && d + 1 == nd;
    dims.push_back({d == 0 ? "I" : "J", 1, open ? scidb::kUnboundedDim : n[d],
                    c[d]});
  }
  Case out;
  out.array = MemArray(
      scidb::ArraySchema("f", dims, {{"v", type, true, false}}));
  out.op = op / 6 % 4;
  out.agg = scidb::reference::kBuiltins[op % 6];
  if (out.op == 1) out.group.push_back(dims[param % nd].name);
  for (size_t d = 0; d < nd; ++d) {
    out.factors.push_back(1 + (param >> (2 * d)) % 4);
    out.radii.push_back((param >> (2 * d + 4)) % 4);
  }
  scidb::Box cells(scidb::Coordinates(nd, 1),
                   scidb::Coordinates(n, n + nd));
  scidb::Coordinates at = cells.low;
  do {
    const uint8_t present = in->Next();
    const uint8_t v = in->Next();
    if (present % 5 == 0) continue;
    if (!out.array.SetCell(at, ValueFrom(v, type)).ok()) {
      Fail("SetCell rejected a cell");
    }
  } while (scidb::NextInBox(cells, &at));
  return out;
}

// Runs the case with aggregate `agg`. Aggregate and Regrid go through
// GroupedAggregate with the built-in's output attribute on both sides,
// so count and int64 min/max compare exactly.
Result<MemArray> Run(const Case& c, const std::string& agg) {
  scidb::ExecContext ctx;
  ctx.aggregates = &Aggregates();
  if (c.op == 3) return scidb::WindowAggregate(ctx, c.array, c.radii, agg, "v");
  const std::vector<AggCall> calls = {{agg, "v"}};
  ASSIGN_OR_RETURN(
      scidb::GroupedAggregate core,
      c.op == 2 ? scidb::GroupedAggregate::ByBlocks(ctx, c.array.schema(),
                                                    c.factors, calls)
                : scidb::GroupedAggregate::ByDims(ctx, c.array.schema(),
                                                  c.group, calls));
  return core.Run(ctx, c.array, "out",
                  {scidb::AggOutputAttr(c.agg, core.input(0))});
}

uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// An operation on two NaNs returns either one, as the compiler orders a
// commutative add, so NaNs match whatever their sign and payload. A
// Window clone writes count and min/max as double: an int64 typed value
// matches the double it converts to.
bool SameValue(const Value& typed, const Value& boxed) {
  if (typed.is_null() || boxed.is_null()) {
    return typed.is_null() && boxed.is_null();
  }
  if (typed.is_int64() && boxed.is_int64()) {
    return typed.int64_value() == boxed.int64_value();
  }
  if (!boxed.is_double() || !(typed.is_double() || typed.is_int64())) {
    return false;
  }
  const double t = typed.AsDouble().ValueOrDie();
  const double b = boxed.double_value();
  return (std::isnan(t) && std::isnan(b)) || DoubleBits(t) == DoubleBits(b);
}

void Compare(const Result<MemArray>& typed, const Result<MemArray>& boxed,
             const std::string& tag) {
  if (typed.ok() != boxed.ok()) Fail(tag + ": ok-ness differs");
  if (!typed.ok()) {
    if (typed.status().code() != boxed.status().code() ||
        typed.status().message() != boxed.status().message()) {
      Fail(tag + ": status differs: " + typed.status().ToString() + " vs " +
           boxed.status().ToString());
    }
    return;
  }
  const MemArray& t = typed.value();
  const MemArray& b = boxed.value();
  if (t.ChunkCount() != b.ChunkCount()) Fail(tag + ": chunk count differs");
  auto ti = t.chunks().begin();
  for (auto bi = b.chunks().begin(); bi != b.chunks().end(); ++bi, ++ti) {
    if (ti->first != bi->first) Fail(tag + ": chunk keys differ");
    const scidb::Chunk& ct = *ti->second;
    const scidb::Chunk& cb = *bi->second;
    for (int64_t rank = 0; rank < ct.cell_capacity(); ++rank) {
      if (ct.IsPresent(rank) != cb.IsPresent(rank)) {
        Fail(tag + ": presence differs");
      }
      if (!ct.IsPresent(rank)) continue;
      const Value tv = ct.block(0).Get(rank);
      const Value bv = cb.block(0).Get(rank);
      if (!SameValue(tv, bv)) {
        Fail(tag + ": cell differs: " + tv.ToString() + " vs " +
             bv.ToString());
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  Bytes in(data, size);
  const Case c = Decode(&in);
  static const char* const kOps[] = {"grand", "grouped", "Regrid", "Window"};
  Compare(Run(c, c.agg), Run(c, std::string(c.agg) + "_boxed"),
          std::string(kOps[c.op]) + " " + c.agg);
  return 0;
}
