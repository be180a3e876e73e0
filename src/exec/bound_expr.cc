#include "exec/bound_expr.h"

#include <cmath>
#include <optional>

#include "common/macros.h"

namespace scidb {

// A typed node; trees with any untyped node are never built.
struct BoundExpr::Node {
  enum class Kind { kLiteral, kDim, kAttr, kBinary, kNot };
  Kind kind = Kind::kLiteral;
  DataType type = DataType::kBool;  // kInt64, kDouble or kBool
  size_t index = 0;                 // kDim / kAttr slot
  Value literal;                    // kLiteral
  BinaryOp op = BinaryOp::kAdd;     // kBinary
  std::vector<Node> children;
};

namespace {

using Node = BoundExpr::Node;

// One expression result per cell rank of a chunk. A column kernel fills
// `nulls` and the buffer matching `type` (kInt64: i64, kDouble: f64,
// kBool: bools); an untyped tree leaves `type` empty and fills `values`.
// Entries of absent cells are unspecified.
struct CellColumn {
  std::optional<DataType> type;
  std::vector<uint8_t> nulls;  // 1 == NULL
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> bools;
  std::vector<Value> values;

  Value Get(int64_t rank) const;
  // Filter's keep rule: the result is a non-null boolean true.
  [[nodiscard]] bool IsTrue(int64_t rank) const;
  // Same as out->Set(rank, Get(rank)), with typed stores into
  // non-uncertain double and int64 blocks.
  void StoreInto(int64_t rank, AttributeBlock* out) const;
  // A typed non-null entry converted as Value::AsDouble / AsInt64 do.
  double AsDouble(size_t i) const;
  int64_t AsInt64(size_t i) const;
};

bool IsArith(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub ||
         op == BinaryOp::kMul || op == BinaryOp::kDiv ||
         op == BinaryOp::kMod;
}

bool IsNumber(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

// The static types mirror Expr::Eval: int64 op int64 stays int64, any
// other numeric pair computes in double, comparisons and logic yield
// booleans. Anything the kernels do not cover is untyped.
std::optional<DataType> BinaryType(BinaryOp op, DataType l, DataType r) {
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    if (l == DataType::kBool && r == DataType::kBool) return DataType::kBool;
    return std::nullopt;
  }
  if (!IsNumber(l) || !IsNumber(r)) return std::nullopt;
  if (!IsArith(op)) return DataType::kBool;
  if (l == DataType::kInt64 && r == DataType::kInt64) return DataType::kInt64;
  return DataType::kDouble;
}

std::optional<DataType> LiteralType(const Value& v) {
  if (v.is_int64()) return DataType::kInt64;
  if (v.is_double()) return DataType::kDouble;
  if (v.is_bool()) return DataType::kBool;
  return std::nullopt;
}

// Attribute blocks the kernels read directly; booleans, strings, nested
// arrays and uncertain values leave the tree untyped.
std::optional<DataType> AttrType(const AttributeDesc& a) {
  if (a.uncertain) return std::nullopt;
  if (a.type == DataType::kInt64) return DataType::kInt64;
  if (a.type == DataType::kDouble || a.type == DataType::kFloat) {
    return DataType::kDouble;
  }
  return std::nullopt;
}

// The typed tree for `e`, or nullopt when any node is untyped.
std::optional<Node> BindNode(const Expr& e, const ArraySchema& schema) {
  Node n;
  std::optional<DataType> type;
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      n.literal = static_cast<const LiteralExpr&>(e).value();
      type = LiteralType(n.literal);
      break;
    case Expr::Kind::kRef: {
      const auto& ref = static_cast<const RefExpr&>(e);
      // The one operand is side 0; any other side never resolves.
      if (ref.side() > 0) return std::nullopt;
      if (auto d = schema.FindDim(ref.name())) {
        n.kind = Node::Kind::kDim;
        n.index = *d;
        type = DataType::kInt64;
      } else if (auto a = schema.FindAttr(ref.name())) {
        n.kind = Node::Kind::kAttr;
        n.index = *a;
        type = AttrType(schema.attr(*a));
      }
      break;
    }
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      auto l = BindNode(*b.lhs(), schema);
      auto r = BindNode(*b.rhs(), schema);
      if (!l || !r) return std::nullopt;
      n.kind = Node::Kind::kBinary;
      n.op = b.op();
      type = BinaryType(n.op, l->type, r->type);
      n.children.push_back(std::move(*l));
      n.children.push_back(std::move(*r));
      break;
    }
    case Expr::Kind::kNot: {
      auto c = BindNode(*static_cast<const NotExpr&>(e).operand(), schema);
      if (!c || c->type != DataType::kBool) return std::nullopt;
      n.kind = Node::Kind::kNot;
      type = DataType::kBool;
      n.children.push_back(std::move(*c));
      break;
    }
    case Expr::Kind::kCall:
      break;
  }
  if (!type) return std::nullopt;
  n.type = *type;
  return n;
}

// --------------------------------------------------- column kernels
//
// Every kernel runs over all ranks of the chunk, absent and NULL cells
// included; their entries are never read. Each present cell sees the
// same IEEE operation, on the same operands, as Expr::Eval.

template <typename T, typename U, typename F>
void Map2(const std::vector<T>& a, const std::vector<T>& b,
          std::vector<U>* out, F f) {
  out->resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) (*out)[i] = f(a[i], b[i]);
}

// An int64 column widened as Value::AsDouble does.
const std::vector<double>& Doubles(CellColumn* c) {
  if (c->type == DataType::kInt64) {
    c->f64.assign(c->i64.begin(), c->i64.end());
  }
  return c->f64;
}

// Division and modulo by zero are NULL.
template <typename T>
void NullWhereZero(const std::vector<T>& divisor,
                   std::vector<uint8_t>* nulls) {
  for (size_t i = 0; i < divisor.size(); ++i) {
    if (divisor[i] == 0) (*nulls)[i] = 1;
  }
}

// Wrapping int64 arithmetic: identical to Expr::Eval wherever that
// path is defined, and free of overflow and INT64_MIN / -1 traps on the
// NULL and absent cells the kernels also visit.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }

void IntArith(BinaryOp op, const std::vector<int64_t>& a,
              const std::vector<int64_t>& b, CellColumn* out) {
  using U = uint64_t;
  auto map = [&](auto f) { Map2(a, b, &out->i64, f); };
  switch (op) {
    case BinaryOp::kAdd:
      map([](int64_t x, int64_t y) { return Wrap(U(x) + U(y)); });
      break;
    case BinaryOp::kSub:
      map([](int64_t x, int64_t y) { return Wrap(U(x) - U(y)); });
      break;
    case BinaryOp::kMul:
      map([](int64_t x, int64_t y) { return Wrap(U(x) * U(y)); });
      break;
    case BinaryOp::kDiv:
      map([](int64_t x, int64_t y) {
        return y == 0 ? 0 : y == -1 ? Wrap(U(0) - U(x)) : x / y;
      });
      NullWhereZero(b, &out->nulls);
      break;
    default:  // kMod
      map([](int64_t x, int64_t y) -> int64_t {
        return y == 0 || y == -1 ? 0 : x % y;
      });
      NullWhereZero(b, &out->nulls);
      break;
  }
}

void DoubleArith(BinaryOp op, const std::vector<double>& a,
                 const std::vector<double>& b, CellColumn* out) {
  auto map = [&](auto f) { Map2(a, b, &out->f64, f); };
  switch (op) {
    case BinaryOp::kAdd:
      map([](double x, double y) { return x + y; });
      break;
    case BinaryOp::kSub:
      map([](double x, double y) { return x - y; });
      break;
    case BinaryOp::kMul:
      map([](double x, double y) { return x * y; });
      break;
    case BinaryOp::kDiv:
      map([](double x, double y) { return x / y; });
      NullWhereZero(b, &out->nulls);
      break;
    default:  // kMod
      map([](double x, double y) { return std::fmod(x, y); });
      NullWhereZero(b, &out->nulls);
      break;
  }
}

// Numeric comparisons compare as doubles, as EvalCompare does.
void Compare(BinaryOp op, const std::vector<double>& a,
             const std::vector<double>& b, CellColumn* out) {
  using B = uint8_t;
  auto map = [&](auto f) { Map2(a, b, &out->bools, f); };
  switch (op) {
    case BinaryOp::kEq:
      map([](double x, double y) { return B(x == y); });
      break;
    case BinaryOp::kNe:
      map([](double x, double y) { return B(x != y); });
      break;
    case BinaryOp::kLt:
      map([](double x, double y) { return B(x < y); });
      break;
    case BinaryOp::kLe:
      map([](double x, double y) { return B(x <= y); });
      break;
    case BinaryOp::kGt:
      map([](double x, double y) { return B(x > y); });
      break;
    default:  // kGe
      map([](double x, double y) { return B(x >= y); });
      break;
  }
}

// Three-valued and/or: a non-null false (and) or true (or) operand
// decides; otherwise any NULL operand makes the result NULL.
void Logic(BinaryOp op, const CellColumn& l, const CellColumn& r,
           CellColumn* out) {
  const uint8_t decider = op == BinaryOp::kOr ? 1 : 0;
  const size_t n = l.bools.size();
  out->bools.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool decided = (!l.nulls[i] && (l.bools[i] != 0) == decider) ||
                         (!r.nulls[i] && (r.bools[i] != 0) == decider);
    out->bools[i] = decided ? decider : static_cast<uint8_t>(1 - decider);
    out->nulls[i] = !decided && (l.nulls[i] || r.nulls[i]);
  }
}

// The coordinate along dimension `d` of every rank of `box`.
void FillCoordinates(const Box& box, size_t d, std::vector<int64_t>* out) {
  int64_t stride = 1;
  for (size_t k = d + 1; k < box.ndims(); ++k) {
    stride *= box.high[k] - box.low[k] + 1;
  }
  out->resize(static_cast<size_t>(box.CellCount()));
  size_t i = 0;
  while (i < out->size()) {
    for (int64_t c = box.low[d]; c <= box.high[d]; ++c) {
      for (int64_t s = 0; s < stride; ++s) (*out)[i++] = c;
    }
  }
}

void EvalColumn(const Node& n, const Chunk& chunk, CellColumn* out) {
  const size_t cells = static_cast<size_t>(chunk.cell_capacity());
  out->type = n.type;
  switch (n.kind) {
    case Node::Kind::kLiteral:
      out->nulls.assign(cells, 0);
      if (n.type == DataType::kInt64) {
        out->i64.assign(cells, n.literal.int64_value());
      } else if (n.type == DataType::kDouble) {
        out->f64.assign(cells, n.literal.double_value());
      } else {
        out->bools.assign(cells, n.literal.bool_value() ? 1 : 0);
      }
      return;
    case Node::Kind::kDim:
      out->nulls.assign(cells, 0);
      FillCoordinates(chunk.box(), n.index, &out->i64);
      return;
    case Node::Kind::kAttr: {
      const AttributeBlock& b = chunk.block(n.index);
      out->nulls = b.nulls();
      if (b.type() == DataType::kInt64) {
        out->i64 = b.int64s();
      } else if (b.type() == DataType::kDouble) {
        out->f64 = b.doubles();
      } else {
        out->f64.assign(b.floats().begin(), b.floats().end());
      }
      return;
    }
    case Node::Kind::kNot:
      EvalColumn(n.children[0], chunk, out);
      out->type = DataType::kBool;
      for (uint8_t& v : out->bools) v = v ? 0 : 1;
      return;
    case Node::Kind::kBinary: {
      CellColumn l;
      CellColumn r;
      EvalColumn(n.children[0], chunk, &l);
      EvalColumn(n.children[1], chunk, &r);
      Map2(l.nulls, r.nulls, &out->nulls,
           [](uint8_t x, uint8_t y) -> uint8_t { return x | y; });
      if (n.op == BinaryOp::kAnd || n.op == BinaryOp::kOr) {
        Logic(n.op, l, r, out);
      } else if (!IsArith(n.op)) {
        Compare(n.op, Doubles(&l), Doubles(&r), out);
      } else if (n.type == DataType::kInt64) {
        IntArith(n.op, l.i64, r.i64, out);
      } else {
        DoubleArith(n.op, Doubles(&l), Doubles(&r), out);
      }
      return;
    }
  }
}

// An untyped tree: Expr::Eval over every present cell of `chunk`, in
// rank order, through one EvalContext for the whole chunk.
Status EvalCells(const Expr& e, const ArraySchema& schema,
                 const FunctionRegistry* functions, const Chunk& chunk,
                 CellColumn* out) {
  EvalContext ectx;
  ectx.functions = functions;
  Coordinates coords;
  std::vector<Value> attrs;
  ectx.sides.push_back({&schema, &coords, &attrs});
  out->type.reset();
  out->values.assign(static_cast<size_t>(chunk.cell_capacity()), Value());
  for (Chunk::CellIterator it(chunk); it.valid(); it.Next()) {
    coords = it.coords();
    attrs.clear();
    for (size_t at = 0; at < chunk.nattrs(); ++at) {
      attrs.push_back(chunk.block(at).Get(it.rank()));
    }
    ASSIGN_OR_RETURN(out->values[static_cast<size_t>(it.rank())],
                     e.Eval(ectx));
  }
  return Status::OK();
}

Value CellColumn::Get(int64_t rank) const {
  const size_t i = static_cast<size_t>(rank);
  if (!type) return values[i];
  if (nulls[i]) return Value::Null();
  if (type == DataType::kInt64) return Value(i64[i]);
  if (type == DataType::kDouble) return Value(f64[i]);
  return Value(bools[i] != 0);
}

bool CellColumn::IsTrue(int64_t rank) const {
  const size_t i = static_cast<size_t>(rank);
  if (!type) return values[i].is_bool() && values[i].bool_value();
  return type == DataType::kBool && !nulls[i] && bools[i];
}

double CellColumn::AsDouble(size_t i) const {
  if (type == DataType::kDouble) return f64[i];
  if (type == DataType::kInt64) return static_cast<double>(i64[i]);
  return bools[i] ? 1.0 : 0.0;
}

int64_t CellColumn::AsInt64(size_t i) const {
  if (type == DataType::kInt64) return i64[i];
  if (type == DataType::kDouble) return static_cast<int64_t>(f64[i]);
  return bools[i] ? 1 : 0;
}

void CellColumn::StoreInto(int64_t rank, AttributeBlock* out) const {
  const size_t i = static_cast<size_t>(rank);
  if (type && !nulls[i] && !out->uncertain()) {
    if (out->type() == DataType::kDouble) {
      out->SetDouble(rank, AsDouble(i));
      return;
    }
    if (out->type() == DataType::kInt64) {
      out->SetInt64(rank, AsInt64(i));
      return;
    }
  }
  out->Set(rank, Get(rank));
}

}  // namespace

BoundExpr BoundExpr::Bind(ExprPtr e, const ArraySchema& schema,
                          const FunctionRegistry* functions) {
  std::shared_ptr<const Node> root;
  if (auto n = BindNode(*e, schema)) {
    root = std::make_shared<const Node>(std::move(*n));
  }
  return BoundExpr(std::move(e), &schema, functions, std::move(root));
}

Result<std::shared_ptr<Chunk>> BoundExpr::MapChunk(
    CellMap kind, const Chunk& in,
    const std::vector<AttributeDesc>& out_attrs) const {
  CellColumn col;
  if (root_ != nullptr) {
    EvalColumn(*root_, in, &col);
  } else {
    RETURN_NOT_OK(EvalCells(*expr_, *schema_, functions_, in, &col));
  }
  const int64_t cap = in.cell_capacity();
  const bool filter = kind == CellMap::kFilter;
  std::vector<uint8_t> keep(static_cast<size_t>(cap), 1);
  if (filter) {
    for (int64_t rank = 0; rank < cap; ++rank) {
      keep[static_cast<size_t>(rank)] =
          in.IsPresent(rank) && col.IsTrue(rank);
    }
  }

  auto oc = std::make_shared<Chunk>(in.box(), out_attrs);
  const bool dense = in.present_count() == cap;
  for (size_t at = 0; at < in.nattrs(); ++at) {
    const AttributeBlock& src = in.block(at);
    AttributeBlock& dst = oc->block(at);
    if (dense && !src.uncertain() && DataTypeFixedWidth(src.type()) > 0) {
      // Whole column; a dropped cell's stale payload is never read.
      dst = src;
      for (int64_t rank = 0; rank < cap; ++rank) {
        if (!keep[static_cast<size_t>(rank)]) dst.Set(rank, Value::Null());
      }
      continue;
    }
    // Cell by cell in rank order, so an uncertain block's constant
    // error bar is derived from the kept cells exactly as Set() would.
    for (int64_t rank = 0; rank < cap; ++rank) {
      if (in.IsPresent(rank) && keep[static_cast<size_t>(rank)]) {
        dst.CopyCell(src, rank, rank);
      }
    }
  }
  for (int64_t rank = 0; rank < cap; ++rank) {
    if (!in.IsPresent(rank)) continue;
    if (!filter) col.StoreInto(rank, &oc->block(in.nattrs()));
    oc->MarkPresent(rank);
  }
  return oc;
}

}  // namespace scidb
