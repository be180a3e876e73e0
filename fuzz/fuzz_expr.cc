// Expression harness: decodes the input into a small array and a random
// expression, then checks that Filter and Apply — bound once, run as
// column kernels or through the Value path (DESIGN.md §8) — agree with
// the cell-at-a-time reference: Expr::Eval on every present cell, written
// with AttributeBlock::Set. Same cells, same NULLs, same values, or the
// same failing Status code and message.
//
// Input layout: two bytes of array shape, one byte per cell (absent or
// present), one byte per attribute value (NULL or a value), then the
// expression in prefix form. Exhausted input reads as zero bytes, so
// every byte string decodes to something.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/macros.h"
#include "exec/operators.h"

namespace {

using scidb::BinaryOp;
using scidb::DataType;
using scidb::ExprPtr;
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
  std::fprintf(stderr, "fuzz_expr: %s\n", property.c_str());
  std::fflush(stderr);
  std::abort();
}

// Finite doubles only: no NaN payloads.
const double kDoubles[] = {0.0, -0.0, 1.0, -2.5, 3.25, 0.1, 1e10, -7.0};

// Small integers (-1 among them) and the int64 extremes, whose sums
// overflow and whose quotient and remainder by -1 trap unless computed
// with the shared wrapping rules.
Value IntFrom(uint8_t b) {
  switch (b % 32) {
    case 30: return Value(std::numeric_limits<int64_t>::min());
    case 31: return Value(std::numeric_limits<int64_t>::max());
    default: return Value(static_cast<int64_t>(b % 16) - 8);
  }
}

// Up to 6 x 6 cells in chunks of 1 to 4, with int64, double, float,
// bool, string and uncertain double attributes.
MemArray DecodeArray(Bytes* in) {
  const uint8_t shape = in->Next();
  const uint8_t chunks = in->Next();
  const int64_t n1 = 1 + shape % 6;
  const int64_t n2 = 1 + (shape / 6) % 6;
  scidb::ArraySchema schema(
      "f", {{"I", 1, n1, 1 + chunks % 4}, {"J", 1, n2, 1 + (chunks / 4) % 4}},
      {{"i", DataType::kInt64, true, false},
       {"d", DataType::kDouble, true, false},
       {"g", DataType::kFloat, true, false},
       {"b", DataType::kBool, true, false},
       {"s", DataType::kString, true, false},
       {"u", DataType::kDouble, true, true}});
  MemArray a(schema);
  for (int64_t i = 1; i <= n1; ++i) {
    for (int64_t j = 1; j <= n2; ++j) {
      if (in->Next() % 5 == 0) continue;  // absent cell
      std::vector<Value> cell;
      for (int at = 0; at < 6; ++at) {
        const uint8_t b = in->Next();
        if (b % 4 == 0) {
          cell.push_back(Value::Null());
          continue;
        }
        const double x = kDoubles[(b / 4) % 8];
        switch (at) {
          case 0: cell.push_back(IntFrom(b / 4)); break;
          case 1: cell.emplace_back(x); break;
          case 2: cell.emplace_back(x / 4); break;  // stored as float
          case 3: cell.emplace_back(b % 8 < 4); break;
          case 4: cell.emplace_back(std::string(1, "xyz"[b % 3])); break;
          default:
            cell.emplace_back(scidb::Uncertain(x, b % 8 < 4 ? 0.5 : 0.25));
            break;
        }
      }
      if (!a.SetCell({i, j}, cell).ok()) Fail("SetCell rejected a cell");
    }
  }
  return a;
}

ExprPtr DecodeExpr(Bytes* in, int depth) {
  static const char* const kNames[] = {"I", "J", "i", "d", "g",
                                       "b", "s", "u", "nope"};
  const uint8_t b = in->Next();
  const int kind = depth >= 3 ? b % 4 : b % 11;
  const uint8_t arg = in->Next();
  switch (kind) {
    case 0: return scidb::Lit(IntFrom(arg));
    case 1: return scidb::Lit(kDoubles[arg % 8]);
    case 2:
      switch (arg % 4) {
        case 0: return scidb::Lit(Value(arg % 8 < 4));
        case 1: return scidb::Lit(Value::Null());
        case 2: return scidb::Lit(Value(std::string("x")));
        default: return scidb::Lit(Value(true));
      }
    case 3: return scidb::Ref(kNames[arg % 9], arg % 16 == 15 ? 1 : -1);
    case 9: return scidb::Not(DecodeExpr(in, depth + 1));
    case 10: return scidb::Call("halve", {DecodeExpr(in, depth + 1)});
    default: {
      ExprPtr l = DecodeExpr(in, depth + 1);
      ExprPtr r = DecodeExpr(in, depth + 1);
      return scidb::Bin(static_cast<BinaryOp>(arg % 13), l, r);
    }
  }
}

// x / 2, failing on values above 5 so the lowest-chunk error rule runs.
const scidb::FunctionRegistry& Functions() {
  static const scidb::FunctionRegistry fns = [] {
    scidb::FunctionRegistry r;
    scidb::Status st = r.Register(scidb::UserFunction(
        "halve",
        scidb::FunctionSignature{{DataType::kDouble}, {DataType::kDouble}},
        [](const std::vector<Value>& args) -> Result<std::vector<Value>> {
          auto x = args[0].AsDouble();
          if (!x.ok()) return x.status();
          if (x.value() > 5) return scidb::Status::Invalid("halve: too big");
          return std::vector<Value>{Value(x.value() / 2)};
        }));
    if (!st.ok()) Fail("cannot register halve");
    return r;
  }();
  return fns;
}

// The cell-at-a-time engine: Filter when `apply` is false.
Result<MemArray> Reference(const MemArray& a, const ExprPtr& e, bool apply) {
  const scidb::ArraySchema& schema = a.schema();
  std::vector<scidb::AttributeDesc> attrs = schema.attrs();
  if (apply) attrs.push_back({"out", DataType::kDouble, true, false});
  MemArray out(scidb::ArraySchema(
      schema.name() + (apply ? "_apply" : "_filter"), schema.dims(), attrs));
  scidb::EvalContext ectx;
  ectx.functions = &Functions();
  scidb::Coordinates coords;
  std::vector<Value> vals;
  ectx.sides.push_back({&schema, &coords, &vals});
  scidb::Status st;
  a.ForEachCell([&](const scidb::Coordinates& c, const scidb::Chunk& chunk,
                    int64_t rank) {
    coords = c;
    vals.clear();
    for (size_t at = 0; at < chunk.nattrs(); ++at) {
      vals.push_back(chunk.block(at).Get(rank));
    }
    Result<Value> v = e->Eval(ectx);
    if (!v.ok()) {
      st = v.status();
      return false;
    }
    scidb::Chunk* oc = out.GetOrCreateChunk(out.ChunkOriginFor(c));
    const bool keep = apply || (v.value().is_bool() && v.value().bool_value());
    for (size_t at = 0; at < vals.size(); ++at) {
      oc->block(at).Set(rank, keep ? vals[at] : Value::Null());
    }
    if (apply) oc->block(vals.size()).Set(rank, v.value());
    oc->MarkPresent(rank);
    return true;
  });
  RETURN_NOT_OK(st);
  return out;
}

// Doubles compare by bit pattern, so -0.0 differs from 0.0 and a NaN
// must keep its payload: the kernels promise bit-identical results.
uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_bool() && b.is_bool()) return a.bool_value() == b.bool_value();
  if (a.is_int64() && b.is_int64()) return a.int64_value() == b.int64_value();
  if (a.is_string() && b.is_string()) {
    return a.string_value() == b.string_value();
  }
  if (a.is_uncertain() && b.is_uncertain()) {
    return DoubleBits(a.uncertain_value().mean) ==
               DoubleBits(b.uncertain_value().mean) &&
           DoubleBits(a.uncertain_value().stderr_) ==
               DoubleBits(b.uncertain_value().stderr_);
  }
  return a.is_double() && b.is_double() &&
         DoubleBits(a.double_value()) == DoubleBits(b.double_value());
}

void Compare(const Result<MemArray>& want, const Result<MemArray>& got,
             const char* op) {
  const std::string tag = std::string(op) + ": ";
  if (want.ok() != got.ok()) Fail(tag + "ok-ness differs");
  if (!want.ok()) {
    if (want.status().code() != got.status().code() ||
        want.status().message() != got.status().message()) {
      Fail(tag + "status differs: " + want.status().ToString() + " vs " +
           got.status().ToString());
    }
    return;
  }
  const MemArray& w = want.value();
  const MemArray& g = got.value();
  if (w.ChunkCount() != g.ChunkCount()) Fail(tag + "chunk count differs");
  auto wi = w.chunks().begin();
  for (auto gi = g.chunks().begin(); gi != g.chunks().end(); ++gi, ++wi) {
    if (wi->first != gi->first) Fail(tag + "chunk keys differ");
    const scidb::Chunk& cw = *wi->second;
    const scidb::Chunk& cg = *gi->second;
    for (int64_t rank = 0; rank < cw.cell_capacity(); ++rank) {
      if (cw.IsPresent(rank) != cg.IsPresent(rank)) {
        Fail(tag + "presence differs");
      }
      if (!cw.IsPresent(rank)) continue;
      for (size_t at = 0; at < cw.nattrs(); ++at) {
        if (!SameValue(cw.block(at).Get(rank), cg.block(at).Get(rank))) {
          Fail(tag + "cell differs: " + cw.block(at).Get(rank).ToString() +
               " vs " + cg.block(at).Get(rank).ToString());
        }
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  Bytes in(data, size);
  const MemArray a = DecodeArray(&in);
  const ExprPtr e = DecodeExpr(&in, 0);
  scidb::ExecContext ctx;
  ctx.functions = &Functions();
  Compare(Reference(a, e, false), scidb::Filter(ctx, a, e), "Filter");
  Compare(Reference(a, e, true),
          scidb::Apply(ctx, a, "out", DataType::kDouble, e), "Apply");
  return 0;
}
