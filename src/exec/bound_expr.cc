#include "exec/bound_expr.h"

#include <algorithm>
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
using Sides = std::vector<const ArraySchema*>;

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

// Binds `ref` to its slot in the side-by-side layout, searching the
// sides as EvalContext::Resolve does: in order (only the hinted one when
// the reference is qualified), dimension before attribute. nullopt when
// it resolves nowhere or to an attribute the kernels do not read.
std::optional<DataType> BindRef(const RefExpr& ref, const Sides& sides,
                                Node* n) {
  size_t dims = 0;
  size_t attrs = 0;
  for (size_t s = 0; s < sides.size(); ++s) {
    const ArraySchema& schema = *sides[s];
    if (ref.side() < 0 || static_cast<size_t>(ref.side()) == s) {
      if (auto d = schema.FindDim(ref.name())) {
        n->kind = Node::Kind::kDim;
        n->index = dims + *d;
        return DataType::kInt64;
      }
      if (auto a = schema.FindAttr(ref.name())) {
        n->kind = Node::Kind::kAttr;
        n->index = attrs + *a;
        return AttrType(schema.attr(*a));
      }
    }
    dims += schema.ndims();
    attrs += schema.nattrs();
  }
  return std::nullopt;
}

// The typed tree for `e`, or nullopt when any node is untyped.
std::optional<Node> BindNode(const Expr& e, const Sides& sides) {
  Node n;
  std::optional<DataType> type;
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      n.literal = static_cast<const LiteralExpr&>(e).value();
      type = LiteralType(n.literal);
      break;
    case Expr::Kind::kRef:
      type = BindRef(static_cast<const RefExpr&>(e), sides, &n);
      break;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      auto l = BindNode(*b.lhs(), sides);
      auto r = BindNode(*b.rhs(), sides);
      if (!l || !r) return std::nullopt;
      n.kind = Node::Kind::kBinary;
      n.op = b.op();
      type = BinaryType(n.op, l->type, r->type);
      n.children.push_back(std::move(*l));
      n.children.push_back(std::move(*r));
      break;
    }
    case Expr::Kind::kNot: {
      auto c = BindNode(*static_cast<const NotExpr&>(e).operand(), sides);
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

// The shared int64 rules over whole columns. They never trap, which
// matters here: the kernels also visit NULL and absent cells.
template <BinaryOp op>
void IntMap(const std::vector<int64_t>& a, const std::vector<int64_t>& b,
            CellColumn* out) {
  Map2(a, b, &out->i64,
       [](int64_t x, int64_t y) { return Int64Arith(op, x, y); });
}

void IntArith(BinaryOp op, const std::vector<int64_t>& a,
              const std::vector<int64_t>& b, CellColumn* out) {
  switch (op) {
    case BinaryOp::kAdd: return IntMap<BinaryOp::kAdd>(a, b, out);
    case BinaryOp::kSub: return IntMap<BinaryOp::kSub>(a, b, out);
    case BinaryOp::kMul: return IntMap<BinaryOp::kMul>(a, b, out);
    case BinaryOp::kDiv: IntMap<BinaryOp::kDiv>(a, b, out); break;
    default: IntMap<BinaryOp::kMod>(a, b, out); break;
  }
  NullWhereZero(b, &out->nulls);  // kDiv and kMod
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

// An untyped tree: Expr::Eval over every present cell of `chunk` inside
// `within`, in rank order, through one EvalContext for the whole chunk;
// each cell's coordinates and attributes are split into its sides. Only
// the attributes the tree names are boxed; the others stay NULL, unread.
Status EvalCells(const Expr& e, const Sides& sides,
                 const FunctionRegistry* functions, const Chunk& chunk,
                 const Box& within, CellColumn* out) {
  EvalContext ectx;
  ectx.functions = functions;
  std::vector<Coordinates> coords(sides.size());
  std::vector<std::vector<Value>> attrs(sides.size());
  std::vector<std::string> names;
  e.CollectRefs(&names);
  std::vector<uint8_t> named;  // per attribute of `chunk`
  for (size_t s = 0; s < sides.size(); ++s) {
    coords[s].resize(sides[s]->ndims());
    attrs[s].resize(sides[s]->nattrs());
    ectx.sides.push_back({sides[s], &coords[s], &attrs[s]});
    for (const AttributeDesc& a : sides[s]->attrs()) {
      named.push_back(std::count(names.begin(), names.end(), a.name) > 0);
    }
  }
  out->type.reset();
  out->values.assign(static_cast<size_t>(chunk.cell_capacity()), Value());
  Coordinates c = within.low;
  do {
    const int64_t rank = RankInBox(chunk.box(), c);
    if (!chunk.IsPresent(rank)) continue;
    size_t d = 0;
    size_t at = 0;
    for (size_t s = 0; s < sides.size(); ++s) {
      for (int64_t& x : coords[s]) x = c[d++];
      for (Value& v : attrs[s]) {
        if (named[at]) v = chunk.block(at).Get(rank);
        ++at;
      }
    }
    ASSIGN_OR_RETURN(out->values[static_cast<size_t>(rank)], e.Eval(ectx));
  } while (NextInBox(within, &c));
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

// The expression's value at the ranks of `in` that BoundExpr::Keep
// describes: column kernels for a typed tree `root`, else EvalCells.
Status Evaluate(const Node* root, const Expr& e, const Sides& sides,
                const FunctionRegistry* functions, const Chunk& in,
                const Box& within, CellColumn* out) {
  if (root == nullptr) return EvalCells(e, sides, functions, in, within, out);
  EvalColumn(*root, in, out);
  return Status::OK();
}

}  // namespace

BoundExpr BoundExpr::Bind(ExprPtr e, std::vector<const ArraySchema*> sides,
                          const FunctionRegistry* functions) {
  BoundExpr b;
  if (auto n = BindNode(*e, sides)) {
    b.root_ = std::make_shared<const Node>(std::move(*n));
  }
  b.expr_ = std::move(e);
  b.sides_ = std::move(sides);
  b.functions_ = functions;
  return b;
}

Result<std::vector<uint8_t>> BoundExpr::Keep(const Chunk& in,
                                             const Box& within) const {
  CellColumn col;
  RETURN_NOT_OK(Evaluate(root_.get(), *expr_, sides_, functions_, in, within,
                         &col));
  std::vector<uint8_t> keep(static_cast<size_t>(in.cell_capacity()));
  for (size_t i = 0; i < keep.size(); ++i) {
    const auto rank = static_cast<int64_t>(i);
    keep[i] = in.IsPresent(rank) && col.IsTrue(rank);
  }
  return keep;
}

Result<std::shared_ptr<Chunk>> BoundExpr::MapChunk(
    CellMap kind, const Chunk& in,
    const std::vector<AttributeDesc>& out_attrs) const {
  const int64_t cap = in.cell_capacity();
  const bool filter = kind == CellMap::kFilter;
  CellColumn col;
  std::vector<uint8_t> keep;
  if (filter) {
    ASSIGN_OR_RETURN(keep, Keep(in, in.box()));
  } else {
    RETURN_NOT_OK(Evaluate(root_.get(), *expr_, sides_, functions_, in,
                           in.box(), &col));
    keep.assign(static_cast<size_t>(cap), 1);
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
