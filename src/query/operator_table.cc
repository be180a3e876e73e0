#include "query/operator_table.h"

#include <cstdint>
#include <utility>

#include "common/macros.h"

namespace scidb {

namespace {

using Inputs = std::vector<MemArray>;

// Converts an Sjoin predicate expression into dimension pairs: a
// conjunction of A.dim = B.dim equalities.
Status ExtractDimPairs(
    const Expr& e,
    std::vector<std::pair<std::string, std::string>>* pairs) {
  if (e.kind() == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op() == BinaryOp::kAnd) {
      RETURN_NOT_OK(ExtractDimPairs(*b.lhs(), pairs));
      return ExtractDimPairs(*b.rhs(), pairs);
    }
    if (b.op() == BinaryOp::kEq &&
        b.lhs()->kind() == Expr::Kind::kRef &&
        b.rhs()->kind() == Expr::Kind::kRef) {
      const auto* l = static_cast<const RefExpr*>(b.lhs().get());
      const auto* r = static_cast<const RefExpr*>(b.rhs().get());
      if (l->side() == 0 && r->side() == 1) {
        pairs->push_back({l->name(), r->name()});
        return Status::OK();
      }
      if (l->side() == 1 && r->side() == 0) {
        pairs->push_back({r->name(), l->name()});
        return Status::OK();
      }
    }
  }
  return Status::Invalid(
      "Sjoin predicate must be a conjunction of A.dim = B.dim equalities: " +
      e.ToString());
}

Result<MemArray> ExecSjoin(const ExecContext& ctx, const OpNode& n,
                           const Inputs& in) {
  std::vector<std::pair<std::string, std::string>> pairs;
  RETURN_NOT_OK(ExtractDimPairs(*n.exprs[0], &pairs));
  return Sjoin(ctx, in[0], in[1], pairs);
}

Result<MemArray> ExecAggregate(const ExecContext& ctx, const OpNode& n,
                               const Inputs& in) {
  // One call keeps its bare output attribute name ("sum"); several run
  // in one pass and name theirs "<agg>_<attr>".
  if (n.aggs.size() == 1) {
    return Aggregate(ctx, in[0], n.names, n.aggs[0].agg, n.aggs[0].attr);
  }
  return AggregateMulti(ctx, in[0], n.names, n.aggs);
}

const std::vector<OperatorRow>& Rows() {
  using K = ArgKind;
  using C = const ExecContext&;
  using N = const OpNode&;
  using I = const Inputs&;
  static const auto* const kRows = new std::vector<OperatorRow>{
      {"subsample", {K::kInput, K::kExpr},
       [](C c, N n, I in) { return Subsample(c, in[0], n.exprs[0]); }},
      {"exists", {K::kInput, K::kTrailingNumbers}, nullptr,
       [](N n, const MemArray& in) { return in.Exists(n.numbers); }},
      {"reshape", {K::kInput, K::kNames, K::kDims},
       [](C c, N n, I in) { return Reshape(c, in[0], n.names, n.dims); }},
      {"sjoin", {K::kInput, K::kInput, K::kExpr}, ExecSjoin},
      {"adddimension", {K::kInput, K::kName},
       [](C c, N n, I in) { return AddDimension(c, in[0], n.names[0]); }},
      {"removedimension", {K::kInput, K::kName},
       [](C c, N n, I in) { return RemoveDimension(c, in[0], n.names[0]); }},
      {"concat", {K::kInput, K::kInput, K::kName},
       [](C c, N n, I in) { return Concat(c, in[0], in[1], n.names[0]); }},
      {"crossproduct", {K::kInput, K::kInput},
       [](C c, N, I in) { return CrossProduct(c, in[0], in[1]); }},
      {"filter", {K::kInput, K::kExpr},
       [](C c, N n, I in) { return Filter(c, in[0], n.exprs[0]); }},
      {"aggregate", {K::kInput, K::kGroupNames, K::kAggs}, ExecAggregate},
      {"cjoin", {K::kInput, K::kInput, K::kExpr},
       [](C c, N n, I in) { return Cjoin(c, in[0], in[1], n.exprs[0]); }},
      {"apply", {K::kInput, K::kName, K::kExpr},
       [](C c, N n, I in) {
         return Apply(c, in[0], n.names[0], DataType::kDouble, n.exprs[0]);
       }},
      {"project", {K::kInput, K::kTrailingNames},
       [](C c, N n, I in) { return Project(c, in[0], n.names); }},
      {"regrid", {K::kInput, K::kNumbers, K::kAgg},
       [](C c, N n, I in) {
         return Regrid(c, in[0], n.numbers, n.aggs[0].agg, n.aggs[0].attr);
       }},
      {"window", {K::kInput, K::kNumbers, K::kAgg},
       [](C c, N n, I in) {
         return WindowAggregate(c, in[0], n.numbers, n.aggs[0].agg,
                                n.aggs[0].attr);
       }},
  };
  return *kRows;
}

// The OpNode field a kind fills, as an index into CheckArgs' counts, and
// how many items it takes: exactly one, or `min` or more.
struct KindShape {
  int field;
  size_t min;
  bool many;
};

KindShape ShapeOf(ArgKind kind) {
  switch (kind) {
    case ArgKind::kInput: return {0, 1, false};
    case ArgKind::kExpr: return {1, 1, false};
    case ArgKind::kName: return {2, 1, false};
    case ArgKind::kNames: return {2, 1, true};
    case ArgKind::kGroupNames:
    case ArgKind::kTrailingNames: return {2, 0, true};
    case ArgKind::kNumbers: return {3, 1, true};
    case ArgKind::kTrailingNumbers: return {3, 0, true};
    case ArgKind::kDims: return {4, 1, true};
    case ArgKind::kAgg: return {5, 1, false};
    case ArgKind::kAggs: return {5, 1, true};
  }
  return {0, 0, false};
}

Status CheckNoNulls(const OpNode& node) {
  for (const OpNodePtr& in : node.inputs) {
    if (in == nullptr) return Status::Invalid(node.op + " has a null input");
  }
  for (const ExprPtr& e : node.exprs) {
    if (e == nullptr) {
      return Status::Invalid(node.op + " has a null expression");
    }
  }
  return Status::OK();
}

}  // namespace

const OperatorRow* FindOperator(std::string_view lower_name) {
  for (const OperatorRow& row : Rows()) {
    if (lower_name == row.name) return &row;
  }
  return nullptr;
}

Status CheckArgs(const OperatorRow& row, const OpNode& node) {
  struct Count {
    const char* what;
    size_t have;
    size_t min = 0;     // items the row's kinds require
    bool many = false;  // and whether more may follow
  };
  Count counts[] = {
      {"array input", node.inputs.size()}, {"expression", node.exprs.size()},
      {"name", node.names.size()},         {"number", node.numbers.size()},
      {"dimension", node.dims.size()},     {"aggregate call", node.aggs.size()},
  };
  for (ArgKind kind : row.args) {
    const KindShape shape = ShapeOf(kind);
    counts[shape.field].min += shape.min;
    counts[shape.field].many |= shape.many;
  }
  for (const Count& c : counts) {
    if (c.have == c.min || (c.many && c.have > c.min)) continue;
    return Status::Invalid(node.op + " takes " + (c.many ? "at least " : "") +
                           std::to_string(c.min) + " " + c.what +
                           "(s), got " + std::to_string(c.have));
  }
  return CheckNoNulls(node);
}

std::string ListText(ArgKind kind, const OpNode& node) {
  switch (kind) {
    case ArgKind::kInput:
    case ArgKind::kExpr:
      return "";
    case ArgKind::kName:
    case ArgKind::kNames:
    case ArgKind::kGroupNames:
    case ArgKind::kTrailingNames:
      return JoinArgs(node.names);
    case ArgKind::kNumbers:
    case ArgKind::kTrailingNumbers:
      return JoinArgs(node.numbers);
    case ArgKind::kDims:
      return JoinArgs(node.dims);
    case ArgKind::kAgg:
    case ArgKind::kAggs:
      return JoinArgs(node.aggs);
  }
  return "";
}

Status ValidateOpTree(const OpNodePtr& root,
                      const std::set<std::string>* user_ops) {
  if (root == nullptr) return Status::Invalid("null query node");
  if (root->is_array_ref()) return Status::OK();
  if (const OperatorRow* row = FindOperator(root->op)) {
    RETURN_NOT_OK(CheckArgs(*row, *root));
  } else if (user_ops == nullptr || user_ops->count(root->op) == 0) {
    return Status::NotImplemented("unknown operator '" + root->op + "'");
  } else {
    RETURN_NOT_OK(CheckNoNulls(*root));
  }
  for (const OpNodePtr& in : root->inputs) {
    RETURN_NOT_OK(ValidateOpTree(in, user_ops));
  }
  return Status::OK();
}

}  // namespace scidb
