#include "exec/expression.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/macros.h"
#include "types/uncertain.h"

namespace scidb {

Result<Value> EvalContext::Resolve(const std::string& name,
                                   int side_hint) const {
  size_t first = side_hint >= 0 ? static_cast<size_t>(side_hint) : 0;
  size_t last = side_hint >= 0 ? static_cast<size_t>(side_hint) + 1
                               : sides.size();
  for (size_t s = first; s < last && s < sides.size(); ++s) {
    const EvalSide& side = sides[s];
    if (side.schema == nullptr) continue;
    if (auto di = side.schema->FindDim(name)) {
      if (side.coords == nullptr) {
        return Status::Internal("no coordinates bound for side " +
                                std::to_string(s));
      }
      return Value((*side.coords)[*di]);
    }
    if (auto ai = side.schema->FindAttr(name)) {
      if (side.attrs == nullptr) {
        return Status::Internal("no attributes bound for side " +
                                std::to_string(s));
      }
      return (*side.attrs)[*ai];
    }
  }
  return Status::NotFound("unknown dimension or attribute '" + name + "'");
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "and";
    case BinaryOp::kOr: return "or";
  }
  return "?";
}

std::string RefExpr::ToString() const {
  if (side_ < 0) return name_;
  return (side_ == 0 ? "A." : "B.") + name_;
}

namespace {

Result<Value> EvalArith(BinaryOp op, const Value& l, const Value& r) {
  // NULL propagates (three-valued arithmetic).
  if (l.is_null() || r.is_null()) return Value::Null();
  // Uncertain operands propagate error bars (paper §2.13).
  if (l.is_uncertain() || r.is_uncertain()) {
    ASSIGN_OR_RETURN(Uncertain a, l.AsUncertain());
    ASSIGN_OR_RETURN(Uncertain b, r.AsUncertain());
    switch (op) {
      case BinaryOp::kAdd: return Value(a + b);
      case BinaryOp::kSub: return Value(a - b);
      case BinaryOp::kMul: return Value(a * b);
      case BinaryOp::kDiv:
        if (b.mean == 0) return Value::Null();
        return Value(a / b);
      default:
        return Status::Invalid("modulo undefined for uncertain values");
    }
  }
  if (l.is_int64() && r.is_int64()) {
    const int64_t b = r.int64_value();
    if ((op == BinaryOp::kDiv || op == BinaryOp::kMod) && b == 0) {
      return Value::Null();
    }
    return Value(Int64Arith(op, l.int64_value(), b));
  }
  ASSIGN_OR_RETURN(double a, l.AsDouble());
  ASSIGN_OR_RETURN(double b, r.AsDouble());
  switch (op) {
    case BinaryOp::kAdd: return Value(a + b);
    case BinaryOp::kSub: return Value(a - b);
    case BinaryOp::kMul: return Value(a * b);
    case BinaryOp::kDiv:
      if (b == 0) return Value::Null();
      return Value(a / b);
    case BinaryOp::kMod:
      if (b == 0) return Value::Null();
      return Value(std::fmod(a, b));
    default: break;
  }
  return Status::Internal("EvalArith on non-arithmetic op");
}

Result<Value> EvalCompare(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  // String comparison.
  if (l.is_string() && r.is_string()) {
    int c = l.string_value().compare(r.string_value());
    switch (op) {
      case BinaryOp::kEq: return Value(c == 0);
      case BinaryOp::kNe: return Value(c != 0);
      case BinaryOp::kLt: return Value(c < 0);
      case BinaryOp::kLe: return Value(c <= 0);
      case BinaryOp::kGt: return Value(c > 0);
      case BinaryOp::kGe: return Value(c >= 0);
      default: break;
    }
  }
  if (l.is_bool() && r.is_bool()) {
    bool a = l.bool_value(), b = r.bool_value();
    switch (op) {
      case BinaryOp::kEq: return Value(a == b);
      case BinaryOp::kNe: return Value(a != b);
      default: break;
    }
  }
  // Uncertain equality = 1-sigma interval overlap.
  if ((l.is_uncertain() || r.is_uncertain()) &&
      (op == BinaryOp::kEq || op == BinaryOp::kNe)) {
    ASSIGN_OR_RETURN(Uncertain a, l.AsUncertain());
    ASSIGN_OR_RETURN(Uncertain b, r.AsUncertain());
    bool eq = a.Overlaps(b);
    return Value(op == BinaryOp::kEq ? eq : !eq);
  }
  ASSIGN_OR_RETURN(double a, l.AsDouble());
  ASSIGN_OR_RETURN(double b, r.AsDouble());
  switch (op) {
    case BinaryOp::kEq: return Value(a == b);
    case BinaryOp::kNe: return Value(a != b);
    case BinaryOp::kLt: return Value(a < b);
    case BinaryOp::kLe: return Value(a <= b);
    case BinaryOp::kGt: return Value(a > b);
    case BinaryOp::kGe: return Value(a >= b);
    default: break;
  }
  return Status::Internal("EvalCompare on non-comparison op");
}

}  // namespace

Result<Value> BinaryExpr::Eval(const EvalContext& ctx) const {
  switch (op_) {
    case BinaryOp::kAnd: {
      // Short-circuit with SQL three-valued logic.
      ASSIGN_OR_RETURN(Value l, lhs_->Eval(ctx));
      if (l.is_bool() && !l.bool_value()) return Value(false);
      ASSIGN_OR_RETURN(Value r, rhs_->Eval(ctx));
      if (r.is_bool() && !r.bool_value()) return Value(false);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value(true);
    }
    case BinaryOp::kOr: {
      ASSIGN_OR_RETURN(Value l, lhs_->Eval(ctx));
      if (l.is_bool() && l.bool_value()) return Value(true);
      ASSIGN_OR_RETURN(Value r, rhs_->Eval(ctx));
      if (r.is_bool() && r.bool_value()) return Value(true);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value(false);
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      ASSIGN_OR_RETURN(Value l, lhs_->Eval(ctx));
      ASSIGN_OR_RETURN(Value r, rhs_->Eval(ctx));
      return EvalArith(op_, l, r);
    }
    default: {
      ASSIGN_OR_RETURN(Value l, lhs_->Eval(ctx));
      ASSIGN_OR_RETURN(Value r, rhs_->Eval(ctx));
      return EvalCompare(op_, l, r);
    }
  }
}

std::string BinaryExpr::ToString() const {
  std::string s = "(";
  s.append(lhs_->ToString()).append(" ").append(BinaryOpName(op_));
  s.append(" ").append(rhs_->ToString()).append(")");
  return s;
}

Result<Value> NotExpr::Eval(const EvalContext& ctx) const {
  ASSIGN_OR_RETURN(Value v, operand_->Eval(ctx));
  if (v.is_null()) return Value::Null();
  if (!v.is_bool()) {
    return Status::TypeMismatch("not() requires a boolean operand");
  }
  return Value(!v.bool_value());
}

Result<Value> CallExpr::Eval(const EvalContext& ctx) const {
  if (ctx.functions == nullptr) {
    return Status::Internal("no function registry bound");
  }
  ASSIGN_OR_RETURN(const UserFunction* fn, ctx.functions->Find(fn_));
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const auto& a : args_) {
    ASSIGN_OR_RETURN(Value v, a->Eval(ctx));
    args.push_back(std::move(v));
  }
  ASSIGN_OR_RETURN(std::vector<Value> out, fn->Call(args));
  if (out.empty()) return Value::Null();
  return out[0];
}

std::string CallExpr::ToString() const {
  std::string s = fn_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i) s += ", ";
    s += args_[i]->ToString();
  }
  return s + ")";
}

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Lit(int64_t v) { return Lit(Value(v)); }
ExprPtr Lit(double v) { return Lit(Value(v)); }
ExprPtr Ref(std::string name, int side) {
  return std::make_shared<RefExpr>(std::move(name), side);
}
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<BinaryExpr>(op, std::move(l), std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kEq, l, r); }
ExprPtr Ne(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kNe, l, r); }
ExprPtr Lt(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kLt, l, r); }
ExprPtr Le(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kLe, l, r); }
ExprPtr Gt(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kGt, l, r); }
ExprPtr Ge(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kGe, l, r); }
ExprPtr And(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kAnd, l, r); }
ExprPtr Or(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kOr, l, r); }
ExprPtr Not(ExprPtr e) { return std::make_shared<NotExpr>(std::move(e)); }
ExprPtr Add(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kAdd, l, r); }
ExprPtr Sub(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kSub, l, r); }
ExprPtr Mul(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kMul, l, r); }
ExprPtr Div(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kDiv, l, r); }
ExprPtr Mod(ExprPtr l, ExprPtr r) { return Bin(BinaryOp::kMod, l, r); }
ExprPtr Call(std::string fn, std::vector<ExprPtr> args) {
  return std::make_shared<CallExpr>(std::move(fn), std::move(args));
}

namespace {

// Splits an AND-tree into conjuncts.
void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind() == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op() == BinaryOp::kAnd) {
      SplitConjuncts(*b.lhs(), out);
      SplitConjuncts(*b.rhs(), out);
      return;
    }
  }
  out->push_back(&e);
}

}  // namespace

bool IsPerDimensionConjunction(const Expr& pred, const ArraySchema& schema) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(pred, &conjuncts);
  for (const Expr* c : conjuncts) {
    std::vector<std::string> refs;
    c->CollectRefs(&refs);
    std::set<std::string> distinct_dims;
    for (const auto& r : refs) {
      if (!schema.FindDim(r)) return false;  // attr or unknown name
      distinct_dims.insert(r);
    }
    if (distinct_dims.size() > 1) return false;  // e.g. "X = Y"
  }
  return true;
}

namespace {

// Tries to interpret a conjunct as <dim> <cmp> <int literal> (either
// orientation) and tighten `bounds` accordingly. Returns true when the
// conjunct was fully captured by the bounds.
bool TightenFromComparison(const Expr& e, const ArraySchema& schema,
                           std::vector<DimBounds>* bounds) {
  if (e.kind() != Expr::Kind::kBinary) return false;
  const auto& b = static_cast<const BinaryExpr&>(e);
  BinaryOp op = b.op();
  const Expr* l = b.lhs().get();
  const Expr* r = b.rhs().get();
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  // Normalize to ref-on-left.
  if (l->kind() == Expr::Kind::kLiteral && r->kind() == Expr::Kind::kRef) {
    std::swap(l, r);
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
  }
  if (l->kind() != Expr::Kind::kRef || r->kind() != Expr::Kind::kLiteral) {
    return false;
  }
  auto di = schema.FindDim(static_cast<const RefExpr*>(l)->name());
  if (!di) return false;
  const Value& lit = static_cast<const LiteralExpr*>(r)->value();
  auto vi = lit.AsInt64();
  if (!vi.ok()) return false;
  int64_t v = vi.value();
  DimBounds& db = (*bounds)[di.value()];
  switch (op) {
    case BinaryOp::kEq:
      db.low = std::max(db.low, v);
      db.high = std::min(db.high, v);
      break;
    case BinaryOp::kLt:
      db.high = std::min(db.high, v - 1);
      break;
    case BinaryOp::kLe:
      db.high = std::min(db.high, v);
      break;
    case BinaryOp::kGt:
      db.low = std::max(db.low, v + 1);
      break;
    case BinaryOp::kGe:
      db.low = std::max(db.low, v);
      break;
    default:
      return false;
  }
  return true;
}

}  // namespace

std::vector<DimBounds> ExtractDimBounds(const Expr& pred,
                                        const ArraySchema& schema,
                                        const Box& domain, bool* exact) {
  std::vector<DimBounds> bounds;
  bounds.reserve(domain.ndims());
  for (size_t d = 0; d < domain.ndims(); ++d) {
    bounds.push_back({domain.low[d], domain.high[d]});
  }
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(pred, &conjuncts);
  bool all_captured = true;
  for (const Expr* c : conjuncts) {
    if (!TightenFromComparison(*c, schema, &bounds)) all_captured = false;
  }
  if (exact != nullptr) *exact = all_captured;
  return bounds;
}

}  // namespace scidb
