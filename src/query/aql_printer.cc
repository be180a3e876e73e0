#include "query/aql_printer.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "exec/expression.h"
#include "query/operator_table.h"

namespace scidb {

namespace {

// Doubles print in fixed notation because the lexer has no exponent
// syntax. std::to_chars emits the shortest digit string that reparses to
// the same double; when that string has no '.' (integral values — "42",
// or 1e300's 301 digits, which would re-lex as an out-of-range integer),
// ".0" is appended so the token stays a float. The buffer covers the
// widest fixed renderings (~1080 chars for subnormals).
Result<std::string> FormatDouble(double v) {
  if (!std::isfinite(v)) {
    return Status::Invalid("non-finite float has no AQL literal form");
  }
  char buf[1600];
  auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
  if (ec != std::errc()) {
    return Status::Invalid("float literal too wide to print");
  }
  std::string s(buf, end);
  if (s.find('.') == std::string::npos) s += ".0";
  return s;
}

// Literal Values as they appear in `insert ... values (...)`, enhance /
// shape arguments, and `{...}` pseudo-coordinates.
Result<std::string> ValueToAqlLiteral(const Value& v) {
  if (v.is_null()) return std::string("null");
  if (v.is_bool()) return std::string(v.bool_value() ? "true" : "false");
  if (v.is_int64()) return std::to_string(v.int64_value());
  if (v.is_double()) return FormatDouble(v.double_value());
  if (v.is_string()) {
    const std::string& s = v.string_value();
    // The lexer has no escape syntax, so a quote inside the string is
    // unprintable (and unparseable to begin with).
    if (s.find('\'') != std::string::npos) {
      return Status::Invalid("string literal containing ' is not printable");
    }
    return "'" + s + "'";
  }
  return Status::Invalid("value kind has no AQL literal form");
}

// Expressions print fully parenthesized — "(a + (b * c))" — so no
// precedence reasoning is needed and the re-parse is unambiguous. `node`
// supplies input array names for qualified references ("A.x" stores only
// the side index; the name lives on the operator's input).
Result<std::string> ExprToAql(const Expr& e, const OpNode* node) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral: {
      return ValueToAqlLiteral(static_cast<const LiteralExpr&>(e).value());
    }
    case Expr::Kind::kRef: {
      const auto& ref = static_cast<const RefExpr&>(e);
      if (ref.side() < 0) return ref.name();
      size_t side = static_cast<size_t>(ref.side());
      if (node == nullptr || side >= node->inputs.size() ||
          !node->inputs[side]->is_array_ref()) {
        return Status::Invalid("qualified reference to unnamed input");
      }
      return node->inputs[side]->array + "." + ref.name();
    }
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      ASSIGN_OR_RETURN(std::string lhs, ExprToAql(*bin.lhs(), node));
      ASSIGN_OR_RETURN(std::string rhs, ExprToAql(*bin.rhs(), node));
      return "(" + lhs + " " + BinaryOpName(bin.op()) + " " + rhs + ")";
    }
    case Expr::Kind::kNot: {
      const auto& n = static_cast<const NotExpr&>(e);
      ASSIGN_OR_RETURN(std::string inner, ExprToAql(*n.operand(), node));
      return "not (" + inner + ")";
    }
    case Expr::Kind::kCall: {
      const auto& call = static_cast<const CallExpr&>(e);
      std::string out = call.fn() + "(";
      for (size_t i = 0; i < call.args().size(); ++i) {
        if (i > 0) out += ", ";
        ASSIGN_OR_RETURN(std::string a, ExprToAql(*call.args()[i], node));
        out += a;
      }
      return out + ")";
    }
  }
  return Status::Invalid("unknown expression kind");
}

// A built-in call prints by walking its operator-table row; a
// user-registered operation prints as "op(inputs..., exprs...)".
// Arguments that print empty (a trailing run with no items) are dropped.
Result<std::string> OpToAql(const OpNode& node) {
  if (node.is_array_ref()) return node.array;
  std::vector<ArgKind> kinds(node.inputs.size(), ArgKind::kInput);
  kinds.insert(kinds.end(), node.exprs.size(), ArgKind::kExpr);
  if (const OperatorRow* row = FindOperator(node.op)) {
    RETURN_NOT_OK(CheckArgs(*row, node));
    kinds = row->args;
  }
  std::vector<std::string> args;
  size_t input = 0;
  size_t expr = 0;
  for (ArgKind kind : kinds) {
    std::string arg = ListText(kind, node);
    if (kind == ArgKind::kInput) {
      ASSIGN_OR_RETURN(arg, OpToAql(*node.inputs[input++]));
    } else if (kind == ArgKind::kExpr) {
      ASSIGN_OR_RETURN(arg, ExprToAql(*node.exprs[expr++], &node));
    } else if (kind == ArgKind::kGroupNames) {
      arg = "{" + arg + "}";
    } else if (kind == ArgKind::kNames || kind == ArgKind::kNumbers ||
               kind == ArgKind::kDims) {
      arg = "[" + arg + "]";
    }
    if (!arg.empty()) args.push_back(std::move(arg));
  }
  return node.op + "(" + JoinArgs(args) + ")";
}

Result<std::string> ValuesToAql(const std::vector<Value>& vals) {
  std::string out;
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i > 0) out += ", ";
    ASSIGN_OR_RETURN(std::string v, ValueToAqlLiteral(vals[i]));
    out += v;
  }
  return out;
}

Result<std::string> DefineToAql(const Statement& stmt) {
  const ArraySchema& s = stmt.define_schema;
  std::string out = "define ";
  if (s.updatable()) out += "updatable ";
  out += s.name() + " (";
  for (size_t i = 0; i < s.attrs().size(); ++i) {
    if (i > 0) out += ", ";
    const AttributeDesc& a = s.attrs()[i];
    out += a.name + " = ";
    if (a.uncertain) out += "uncertain ";
    out += DataTypeName(a.type);
  }
  out += ") (";
  for (size_t i = 0; i < s.dims().size(); ++i) {
    if (i > 0) out += ", ";
    const DimensionDesc& d = s.dims()[i];
    out += d.name + " = " + std::to_string(d.low) + " : ";
    out += d.high == kUnboundedDim ? "*" : std::to_string(d.high);
  }
  return out + ")";
}

}  // namespace

Result<std::string> OpNodeToAql(const OpNode& node) { return OpToAql(node); }

Result<std::string> StatementToAql(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kDefine:
      return DefineToAql(stmt);
    case Statement::Kind::kCreate: {
      std::string out =
          "create " + stmt.create_name + " as " + stmt.create_type + " [";
      for (size_t i = 0; i < stmt.create_highs.size(); ++i) {
        if (i > 0) out += ", ";
        out += stmt.create_highs[i] == kUnboundedDim
                   ? "*"
                   : std::to_string(stmt.create_highs[i]);
      }
      return out + "]";
    }
    case Statement::Kind::kQuery: {
      if (stmt.query == nullptr) return Status::Invalid("query without tree");
      ASSIGN_OR_RETURN(std::string q, OpToAql(*stmt.query));
      return "select " + q;
    }
    case Statement::Kind::kStore: {
      if (stmt.query == nullptr) return Status::Invalid("store without tree");
      ASSIGN_OR_RETURN(std::string q, OpToAql(*stmt.query));
      return "store " + q + " into " + stmt.store_into;
    }
    case Statement::Kind::kInsert: {
      ASSIGN_OR_RETURN(std::string vals, ValuesToAql(stmt.insert_values));
      return "insert " + stmt.insert_array + " [" +
             JoinArgs(stmt.insert_coords) + "] values (" + vals + ")";
    }
    case Statement::Kind::kTrace: {
      return "trace " + std::string(stmt.trace_back ? "back " : "forward ") +
             stmt.trace_array + " [" + JoinArgs(stmt.trace_coords) + "]";
    }
    case Statement::Kind::kEnhance:
    case Statement::Kind::kShape: {
      std::string out = stmt.kind == Statement::Kind::kShape ? "shape "
                                                             : "enhance ";
      out += stmt.target_array + " with " + stmt.func_name;
      // A no-argument builder prints bare ("with transpose"); the parser
      // accepts both the bare and the "()" spelling, and bare is the
      // fixed point.
      if (!stmt.func_args.empty()) {
        ASSIGN_OR_RETURN(std::string args, ValuesToAql(stmt.func_args));
        out += "(" + args + ")";
      }
      return out;
    }
    case Statement::Kind::kEnhancedRead: {
      ASSIGN_OR_RETURN(std::string vals, ValuesToAql(stmt.read_pseudo));
      return "select " + stmt.read_array + " {" + vals + "}";
    }
    case Statement::Kind::kExplain: {
      if (stmt.query == nullptr) {
        return Status::Invalid("explain without tree");
      }
      ASSIGN_OR_RETURN(std::string q, OpToAql(*stmt.query));
      return "explain " + std::string(stmt.explain_analyze ? "analyze " : "") +
             q;
    }
    case Statement::Kind::kSet:
      return "set " + stmt.set_option + " = " + std::to_string(stmt.set_value);
  }
  return Status::Invalid("unknown statement kind");
}

}  // namespace scidb
