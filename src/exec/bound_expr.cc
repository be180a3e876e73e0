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

// The entries of one column over the ranks of a chunk: read where they
// already sit (`p` into a block, or into `own` when computed here), or
// one scalar `s` broadcast to every rank (`p` null).
template <typename T>
struct Operand {
  const T* p = nullptr;
  T s{};
  std::vector<T> own;

  T operator[](size_t i) const { return p ? p[i] : s; }
  // `n` fresh entries for a kernel to fill.
  T* Fill(size_t n) { own.resize(n); p = own.data(); return own.data(); }
  // The entries as a column; a scalar is spread over `n` ranks first.
  const T* Dense(size_t n) {
    if (p == nullptr) std::fill_n(Fill(n), n, s);
    return p;
  }
};

// One expression result per cell rank of a chunk. A column kernel fills
// `nulls` and the operand matching `type` (kInt64: i64, kDouble: f64,
// kBool: bools); an untyped tree leaves `type` empty and fills `values`.
// Entries of absent cells are unspecified.
struct CellColumn {
  std::optional<DataType> type;
  Operand<uint8_t> nulls;  // 1 == NULL; a scalar is never NULL
  Operand<int64_t> i64;
  Operand<double> f64;
  Operand<uint8_t> bools;
  std::vector<Value> values;

  Value Get(size_t i) const {
    if (!type) return values[i];
    if (nulls[i]) return Value::Null();
    if (type == DataType::kInt64) return Value(i64[i]);
    if (type == DataType::kDouble) return Value(f64[i]);
    return Value(bools[i] != 0);
  }
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

// out := f(a, b) entry by entry over `n` ranks, a scalar broadcast.
template <typename T, typename V, typename U, typename F>
void Map2(const Operand<T>& a, const Operand<V>& b, size_t n, Operand<U>* out,
          F f) {
  U* o = out->Fill(n);
  const T* x = a.p;
  const V* y = b.p;
  const T xs = a.s;
  const V ys = b.s;
  if (x && y) {
    for (size_t i = 0; i < n; ++i) o[i] = f(x[i], y[i]);
  } else if (x) {
    for (size_t i = 0; i < n; ++i) o[i] = f(x[i], ys);
  } else {  // a scalar on the left, or on both sides
    for (size_t i = 0; i < n; ++i) o[i] = f(xs, b[i]);
  }
}

// An int64 operand widened as Value::AsDouble does.
Operand<double>& Doubles(CellColumn* c, size_t n) {
  if (c->type == DataType::kInt64) {
    c->f64.s = static_cast<double>(c->i64.s);
    if (c->i64.p) std::copy_n(c->i64.p, n, c->f64.Fill(n));
  }
  return c->f64;
}

// Division and modulo by zero are NULL: a scalar zero divisor nulls the
// whole column.
template <typename T>
void NullWhereZero(const Operand<T>& divisor, size_t n, CellColumn* out) {
  if (divisor.p == nullptr && divisor.s != 0) return;
  const Operand<uint8_t> nulls = std::move(out->nulls);
  Map2(nulls, divisor, n, &out->nulls,
       [](uint8_t null, T d) -> uint8_t { return d == 0 ? 1 : null; });
}

// The shared int64 rules over whole columns. They never trap, which
// matters here: the kernels also visit NULL and absent cells.
template <BinaryOp op>
void IntMap(const Operand<int64_t>& a, const Operand<int64_t>& b, size_t n,
            CellColumn* out) {
  Map2(a, b, n, &out->i64,
       [](int64_t x, int64_t y) { return Int64Arith(op, x, y); });
}

void IntArith(BinaryOp op, const Operand<int64_t>& a,
              const Operand<int64_t>& b, size_t n, CellColumn* out) {
  switch (op) {
    case BinaryOp::kAdd: return IntMap<BinaryOp::kAdd>(a, b, n, out);
    case BinaryOp::kSub: return IntMap<BinaryOp::kSub>(a, b, n, out);
    case BinaryOp::kMul: return IntMap<BinaryOp::kMul>(a, b, n, out);
    case BinaryOp::kDiv: IntMap<BinaryOp::kDiv>(a, b, n, out); break;
    default: IntMap<BinaryOp::kMod>(a, b, n, out); break;
  }
  NullWhereZero(b, n, out);  // kDiv and kMod
}

void DoubleArith(BinaryOp op, const Operand<double>& a,
                 const Operand<double>& b, size_t n, CellColumn* out) {
  auto map = [&](auto f) { Map2(a, b, n, &out->f64, f); };
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
      NullWhereZero(b, n, out);
      break;
    default:  // kMod
      map([](double x, double y) { return std::fmod(x, y); });
      NullWhereZero(b, n, out);
      break;
  }
}

// Numeric comparisons compare as doubles, as EvalCompare does.
void Compare(BinaryOp op, const Operand<double>& a, const Operand<double>& b,
             size_t n, CellColumn* out) {
  using B = uint8_t;
  auto map = [&](auto f) { Map2(a, b, n, &out->bools, f); };
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
void Logic(BinaryOp op, const CellColumn& l, const CellColumn& r, size_t n,
           CellColumn* out) {
  const uint8_t decider = op == BinaryOp::kOr ? 1 : 0;
  uint8_t* bools = out->bools.Fill(n);
  uint8_t* nulls = out->nulls.Fill(n);
  for (size_t i = 0; i < n; ++i) {
    const bool decided = (!l.nulls[i] && (l.bools[i] != 0) == decider) ||
                         (!r.nulls[i] && (r.bools[i] != 0) == decider);
    bools[i] = decided ? decider : static_cast<uint8_t>(1 - decider);
    nulls[i] = !decided && (l.nulls[i] || r.nulls[i]);
  }
}

// The coordinate along dimension `d` of every rank of `box`.
void FillCoordinates(const Box& box, size_t d, int64_t* out) {
  int64_t stride = 1;
  for (size_t k = d + 1; k < box.ndims(); ++k) {
    stride *= box.high[k] - box.low[k] + 1;
  }
  const size_t cells = static_cast<size_t>(box.CellCount());
  size_t i = 0;
  while (i < cells) {
    for (int64_t c = box.low[d]; c <= box.high[d]; ++c) {
      for (int64_t s = 0; s < stride; ++s) out[i++] = c;
    }
  }
}

// Attribute operands are read in place, except that a float column
// widens into an owned one; literals stay scalars.
void EvalColumn(const Node& n, const Chunk& chunk, CellColumn* out) {
  const size_t cells = static_cast<size_t>(chunk.cell_capacity());
  out->type = n.type;
  switch (n.kind) {
    case Node::Kind::kLiteral:
      if (n.type == DataType::kInt64) {
        out->i64.s = n.literal.int64_value();
      } else if (n.type == DataType::kDouble) {
        out->f64.s = n.literal.double_value();
      } else {
        out->bools.s = n.literal.bool_value() ? 1 : 0;
      }
      return;
    case Node::Kind::kDim:
      FillCoordinates(chunk.box(), n.index, out->i64.Fill(cells));
      return;
    case Node::Kind::kAttr: {
      const AttributeBlock& b = chunk.block(n.index);
      out->nulls.p = b.nulls().data();
      if (b.type() == DataType::kInt64) {
        out->i64.p = b.int64s().data();
      } else if (b.type() == DataType::kDouble) {
        out->f64.p = b.doubles().data();
      } else {
        std::copy_n(b.floats().data(), cells, out->f64.Fill(cells));
      }
      return;
    }
    case Node::Kind::kNot:
      // A bool column is always computed here, so it sits in `own`.
      EvalColumn(n.children[0], chunk, out);
      out->type = DataType::kBool;
      out->bools.s = out->bools.s ? 0 : 1;
      for (uint8_t& v : out->bools.own) v = v ? 0 : 1;
      return;
    case Node::Kind::kBinary: {
      CellColumn l;
      CellColumn r;
      EvalColumn(n.children[0], chunk, &l);
      EvalColumn(n.children[1], chunk, &r);
      if (n.op == BinaryOp::kAnd || n.op == BinaryOp::kOr) {
        Logic(n.op, l, r, cells, out);
        return;
      }
      // A scalar is never NULL: the other side's flags carry over.
      if (l.nulls.p && r.nulls.p) {
        Map2(l.nulls, r.nulls, cells, &out->nulls,
             [](uint8_t x, uint8_t y) -> uint8_t { return x | y; });
      } else {
        out->nulls = std::move(l.nulls.p ? l.nulls : r.nulls);
      }
      if (!IsArith(n.op)) {
        Compare(n.op, Doubles(&l, cells), Doubles(&r, cells), cells, out);
      } else if (n.type == DataType::kInt64) {
        IntArith(n.op, l.i64, r.i64, cells, out);
      } else {
        DoubleArith(n.op, Doubles(&l, cells), Doubles(&r, cells), cells, out);
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

// Apply's result into its block. A numeric result goes in whole when the
// block is a non-uncertain double or int64: each present, non-NULL cell
// takes the value Set() would store, and the others are NULL and 0, as
// in a fresh block. Anything else goes cell by cell through Set().
void StoreResult(CellColumn* col, const uint8_t* present, AttributeBlock* out) {
  const size_t n = static_cast<size_t>(out->size());
  const AttributeBlock::Columns c = out->mutable_columns();
  auto store = [&](const auto* v, auto* vals, auto conv) {
    const uint8_t* nulls = col->nulls.Dense(n);
    for (size_t i = 0; i < n; ++i) {
      const bool set = present[i] != 0 && nulls[i] == 0;
      c.nulls[i] = set ? 0 : 1;
      vals[i] = set ? conv(v[i]) : 0;
    }
  };
  const bool numeric =
      col->type && col->type != DataType::kBool && !out->uncertain();
  if (numeric && out->type() == DataType::kDouble) {
    store(Doubles(col, n).Dense(n), c.f64, [](double x) { return x; });
  } else if (numeric && out->type() == DataType::kInt64 &&
             col->type == DataType::kInt64) {
    store(col->i64.Dense(n), c.i64, [](int64_t x) { return x; });
  } else if (numeric && out->type() == DataType::kInt64) {
    store(col->f64.Dense(n), c.i64, DoubleToInt64);
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (present[i]) out->Set(static_cast<int64_t>(i), col->Get(i));
    }
  }
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
  const size_t n = static_cast<size_t>(in.cell_capacity());
  const uint8_t* present = in.presence().data();
  std::vector<uint8_t> keep(n);
  if (!col.type) {
    for (size_t i = 0; i < n; ++i) {
      const Value& v = col.values[i];
      keep[i] = present[i] && v.is_bool() && v.bool_value();
    }
  } else if (col.type == DataType::kBool) {
    const uint8_t* nulls = col.nulls.Dense(n);
    const uint8_t* bools = col.bools.Dense(n);
    for (size_t i = 0; i < n; ++i) {
      keep[i] = (present[i] != 0) & (nulls[i] == 0) & (bools[i] != 0);
    }
  }
  return keep;
}

Result<std::shared_ptr<Chunk>> BoundExpr::MapChunk(
    CellMap kind, const Chunk& in,
    const std::vector<AttributeDesc>& out_attrs) const {
  const size_t cap = static_cast<size_t>(in.cell_capacity());
  const bool filter = kind == CellMap::kFilter;
  CellColumn col;
  std::vector<uint8_t> keep;
  if (filter) {
    ASSIGN_OR_RETURN(keep, Keep(in, in.box()));
  } else {
    RETURN_NOT_OK(Evaluate(root_.get(), *expr_, sides_, functions_, in,
                           in.box(), &col));
  }

  // The cells whose attributes carry over: Keep's mask already excludes
  // absent cells.
  const uint8_t* kept = filter ? keep.data() : in.presence().data();
  auto oc = std::make_shared<Chunk>(in.box(), out_attrs);
  oc->AssignPresence(in.presence().data());
  for (size_t at = 0; at < in.nattrs(); ++at) {
    const AttributeBlock& src = in.block(at);
    AttributeBlock& dst = oc->block(at);
    if (!src.uncertain() && DataTypeFixedWidth(src.type()) > 0) {
      // Whole column, then every dropped cell NULL; the payloads of
      // absent and NULL cells are never read.
      dst = src;
      uint8_t* nulls = dst.mutable_columns().nulls;
      for (size_t i = 0; filter && i < cap; ++i) nulls[i] |= keep[i] ^ 1;
      continue;
    }
    // Cell by cell in rank order, so an uncertain block's constant
    // error bar is derived from the kept cells exactly as Set() would.
    for (size_t i = 0; i < cap; ++i) {
      const auto rank = static_cast<int64_t>(i);
      if (kept[i]) dst.CopyCell(src, rank, rank);
    }
  }
  if (!filter) {
    StoreResult(&col, in.presence().data(), &oc->block(in.nattrs()));
  }
  return oc;
}

}  // namespace scidb
