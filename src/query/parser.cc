#include "query/parser.h"

#include <algorithm>
#include <set>

#include "common/macros.h"
#include "query/lexer.h"
#include "query/operator_table.h"

namespace scidb {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> toks, const std::set<std::string>* user_ops)
      : toks_(std::move(toks)), user_ops_(user_ops) {}

  Result<Statement> Parse() {
    Statement stmt;
    if (Peek().IsKeyword("define")) {
      RETURN_NOT_OK(ParseDefine(&stmt));
    } else if (Peek().IsKeyword("create")) {
      RETURN_NOT_OK(ParseCreate(&stmt));
    } else if (Peek().IsKeyword("insert")) {
      RETURN_NOT_OK(ParseInsert(&stmt));
    } else if (Peek().IsKeyword("trace")) {
      RETURN_NOT_OK(ParseTrace(&stmt));
    } else if (Peek().IsKeyword("enhance") || Peek().IsKeyword("shape")) {
      RETURN_NOT_OK(ParseEnhanceOrShape(&stmt));
    } else if (Peek().IsKeyword("set")) {
      Advance();
      stmt.kind = Statement::Kind::kSet;
      ASSIGN_OR_RETURN(stmt.set_option, ExpectIdentifier());
      RETURN_NOT_OK(ExpectSymbol("="));
      ASSIGN_OR_RETURN(stmt.set_value, ExpectInteger());
    } else if (Peek().IsKeyword("explain")) {
      Advance();
      stmt.kind = Statement::Kind::kExplain;
      stmt.explain_analyze = AcceptKeyword("analyze");
      if (Peek().IsKeyword("select")) Advance();
      ASSIGN_OR_RETURN(stmt.query, ParseOpOrArray());
    } else if (Peek().IsKeyword("store")) {
      Advance();
      stmt.kind = Statement::Kind::kStore;
      ASSIGN_OR_RETURN(stmt.query, ParseOpOrArray());
      RETURN_NOT_OK(ExpectKeyword("into"));
      ASSIGN_OR_RETURN(stmt.store_into, ExpectIdentifier());
    } else {
      if (Peek().IsKeyword("select")) Advance();
      stmt.kind = Statement::Kind::kQuery;
      ASSIGN_OR_RETURN(stmt.query, ParseOpOrArray());
      // Enhanced addressing: "select A {16.3, 48.2}" (paper §2.1's
      // {..} coordinate system).
      if (stmt.query->is_array_ref() && Peek().IsSymbol("{")) {
        stmt.kind = Statement::Kind::kEnhancedRead;
        stmt.read_array = stmt.query->array;
        RETURN_NOT_OK(ParseList("{", "}", false, [&] {
          return AppendValue(&stmt.read_pseudo);
        }));
      }
    }
    if (!Peek().Is(TokenType::kEnd)) {
      return Err("trailing input after statement");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t k = 0) const {
    size_t i = std::min(pos_ + k, toks_.size() - 1);
    return toks_[i];
  }
  const Token& Advance() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool AcceptSymbol(const std::string& s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptKeyword(const std::string& s) {
    if (Peek().IsKeyword(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Err(const std::string& msg) const {
    return Status::Invalid(msg + " (near offset " +
                           std::to_string(Peek().offset) + ", got '" +
                           Peek().text + "')");
  }
  Status ExpectSymbol(const std::string& s) {
    if (!AcceptSymbol(s)) return Err("expected '" + s + "'");
    return Status::OK();
  }
  Status ExpectKeyword(const std::string& s) {
    if (!AcceptKeyword(s)) return Err("expected '" + s + "'");
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (!Peek().Is(TokenType::kIdentifier)) {
      Status s = Err("expected identifier");
      return s;
    }
    return Advance().text;
  }
  Result<int64_t> ExpectInteger() {
    bool neg = Peek().IsSymbol("-");
    if (neg) Advance();
    if (!Peek().Is(TokenType::kInteger)) {
      Status s = Err("expected integer");
      return s;
    }
    int64_t v = Advance().int_value;
    return neg ? -v : v;
  }
  Status AppendInteger(std::vector<int64_t>* out) {
    ASSIGN_OR_RETURN(int64_t v, ExpectInteger());
    out->push_back(v);
    return Status::OK();
  }
  Status AppendValue(std::vector<Value>* out) {
    ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
    out->push_back(std::move(v));
    return Status::OK();
  }

  // open item {, item} close; `empty_ok` also accepts "open close".
  template <typename ParseItem>
  Status ParseList(const char* open, const char* close, bool empty_ok,
                   ParseItem item) {
    RETURN_NOT_OK(ExpectSymbol(open));
    if (!empty_ok || !Peek().IsSymbol(close)) {
      do {
        RETURN_NOT_OK(item());
      } while (AcceptSymbol(","));
    }
    return ExpectSymbol(close);
  }

  // ---- define ----
  Status ParseDefine(Statement* stmt) {
    Advance();  // define
    stmt->kind = Statement::Kind::kDefine;
    bool updatable = AcceptKeyword("updatable");
    ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());

    std::vector<AttributeDesc> attrs;
    RETURN_NOT_OK(ParseList("(", ")", false, [&]() -> Status {
      AttributeDesc a;
      ASSIGN_OR_RETURN(a.name, ExpectIdentifier());
      RETURN_NOT_OK(ExpectSymbol("="));
      a.uncertain = AcceptKeyword("uncertain");
      ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
      ASSIGN_OR_RETURN(a.type, DataTypeFromName(ToLower(type_name)));
      attrs.push_back(std::move(a));
      return Status::OK();
    }));

    std::vector<DimensionDesc> dims;
    RETURN_NOT_OK(ParseList("(", ")", false, [&]() -> Status {
      DimensionDesc d;  // 1 : *, chunk interval 64
      ASSIGN_OR_RETURN(d.name, ExpectIdentifier());
      if (AcceptSymbol("=")) {
        ASSIGN_OR_RETURN(d.low, ExpectInteger());
        RETURN_NOT_OK(ExpectSymbol(":"));
        if (!AcceptSymbol("*")) {
          ASSIGN_OR_RETURN(d.high, ExpectInteger());
        }
      }
      dims.push_back(std::move(d));
      return Status::OK();
    }));

    // Paper §2.5: the history dimension of an updatable array is implicit
    // (layered deltas); an explicitly listed trailing "history" dim is
    // absorbed.
    if (updatable && !dims.empty() && ToLower(dims.back().name) == "history") {
      dims.pop_back();
    }
    stmt->define_schema =
        ArraySchema(name, std::move(dims), std::move(attrs), updatable);
    return stmt->define_schema.Validate();
  }

  // ---- create ----
  Status ParseCreate(Statement* stmt) {
    Advance();  // create
    stmt->kind = Statement::Kind::kCreate;
    ASSIGN_OR_RETURN(stmt->create_name, ExpectIdentifier());
    RETURN_NOT_OK(ExpectKeyword("as"));
    ASSIGN_OR_RETURN(stmt->create_type, ExpectIdentifier());
    return ParseList("[", "]", false, [&] {
      if (!AcceptSymbol("*")) return AppendInteger(&stmt->create_highs);
      stmt->create_highs.push_back(kUnboundedDim);
      return Status::OK();
    });
  }

  // ---- insert ----
  Status ParseInsert(Statement* stmt) {
    Advance();  // insert
    stmt->kind = Statement::Kind::kInsert;
    ASSIGN_OR_RETURN(stmt->insert_array, ExpectIdentifier());
    RETURN_NOT_OK(ParseList("[", "]", false, [&] {
      return AppendInteger(&stmt->insert_coords);
    }));
    RETURN_NOT_OK(ExpectKeyword("values"));
    return ParseList("(", ")", false,
                     [&] { return AppendValue(&stmt->insert_values); });
  }

  // ---- enhance / shape (paper §2.1) ----
  // "Enhance My_remote with Scale10" generalizes here to
  //   enhance <array> with <builder>(<literal args>)
  //   shape   <array> with <builder>(<literal args>)
  Status ParseEnhanceOrShape(Statement* stmt) {
    bool is_shape = Peek().IsKeyword("shape");
    Advance();
    stmt->kind = is_shape ? Statement::Kind::kShape
                          : Statement::Kind::kEnhance;
    ASSIGN_OR_RETURN(stmt->target_array, ExpectIdentifier());
    RETURN_NOT_OK(ExpectKeyword("with"));
    ASSIGN_OR_RETURN(stmt->func_name, ExpectIdentifier());
    stmt->func_name = ToLower(stmt->func_name);
    if (!Peek().IsSymbol("(")) return Status::OK();
    return ParseList("(", ")", true,
                     [&] { return AppendValue(&stmt->func_args); });
  }

  // ---- trace (provenance query language, §2.12) ----
  Status ParseTrace(Statement* stmt) {
    Advance();  // trace
    stmt->kind = Statement::Kind::kTrace;
    if (AcceptKeyword("back")) {
      stmt->trace_back = true;
    } else if (AcceptKeyword("forward")) {
      stmt->trace_back = false;
    } else {
      return Err("expected 'back' or 'forward' after 'trace'");
    }
    ASSIGN_OR_RETURN(stmt->trace_array, ExpectIdentifier());
    return ParseList("[", "]", false,
                     [&] { return AppendInteger(&stmt->trace_coords); });
  }

  Result<Value> ParseLiteralValue() {
    bool neg = Peek().IsSymbol("-");
    if (neg) Advance();
    const Token& t = Peek();
    if (t.Is(TokenType::kInteger)) {
      Advance();
      return Value(neg ? -t.int_value : t.int_value);
    }
    if (t.Is(TokenType::kFloat)) {
      Advance();
      return Value(neg ? -t.float_value : t.float_value);
    }
    if (neg) {
      Status s = Err("expected number after '-'");
      return s;
    }
    if (t.Is(TokenType::kString)) {
      Advance();
      return Value(t.text);
    }
    if (t.IsKeyword("true")) {
      Advance();
      return Value(true);
    }
    if (t.IsKeyword("false")) {
      Advance();
      return Value(false);
    }
    if (t.IsKeyword("null")) {
      Advance();
      return Value::Null();
    }
    Status s = Err("expected literal value");
    return s;
  }

  bool IsUserOp(const std::string& lower) const {
    return user_ops_ != nullptr && user_ops_->count(lower) > 0;
  }

  // Generic argument parsing for user-registered array operations:
  // leading bare-identifier / operator-call arguments are array inputs,
  // the rest are expressions.
  Status ParseUserOpArgs(OpNode* node) {
    bool exprs_started = false;
    if (Peek().IsSymbol(")")) return Status::OK();
    do {
      bool looks_like_input = false;
      if (!exprs_started && Peek().Is(TokenType::kIdentifier)) {
        const Token& next = Peek(1);
        if (next.IsSymbol(",") || next.IsSymbol(")")) {
          looks_like_input = true;  // bare identifier -> array ref
        } else if (next.IsSymbol("(")) {
          std::string lower = ToLower(Peek().text);
          looks_like_input =
              FindOperator(lower) != nullptr || IsUserOp(lower);
        }
      }
      if (looks_like_input) {
        ASSIGN_OR_RETURN(OpNodePtr in, ParseOpOrArray());
        node->inputs.push_back(std::move(in));
      } else {
        exprs_started = true;
        RETURN_NOT_OK(BindInputNames(*node));
        ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        node->exprs.push_back(std::move(e));
      }
    } while (AcceptSymbol(","));
    return Status::OK();
  }

  // ---- operator calls / array refs ----
  // A built-in call parses by walking its operator-table row.
  Result<OpNodePtr> ParseOpOrArray() {
    DepthGuard depth(&depth_);
    if (depth_ > kMaxDepth) return Err("statement nesting too deep");
    ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    std::string lower = ToLower(name);
    const OperatorRow* row = FindOperator(lower);
    auto node = std::make_shared<OpNode>();
    if (!Peek().IsSymbol("(") || (row == nullptr && !IsUserOp(lower))) {
      node->array = name;
      return OpNodePtr(node);
    }
    RETURN_NOT_OK(ExpectSymbol("("));
    node->op = lower;
    if (row == nullptr) RETURN_NOT_OK(ParseUserOpArgs(node.get()));
    for (size_t i = 0; row != nullptr && i < row->args.size(); ++i) {
      const ArgKind kind = row->args[i];
      if (!IsTrailing(kind)) {
        if (i > 0) RETURN_NOT_OK(ExpectSymbol(","));
        RETURN_NOT_OK(ParseArg(kind, node.get()));
      }
      if (IsTrailing(kind) || kind == ArgKind::kAggs) {
        while (AcceptSymbol(",")) RETURN_NOT_OK(ParseArg(kind, node.get()));
      }
    }
    RETURN_NOT_OK(ExpectSymbol(")"));
    return OpNodePtr(node);
  }

  // One argument of `kind`; one item of the trailing kinds and kAggs.
  Status ParseArg(ArgKind kind, OpNode* node) {
    switch (kind) {
      case ArgKind::kInput: {
        ASSIGN_OR_RETURN(OpNodePtr in, ParseOpOrArray());
        node->inputs.push_back(std::move(in));
        return Status::OK();
      }
      case ArgKind::kExpr: {
        RETURN_NOT_OK(BindInputNames(*node));
        ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        node->exprs.push_back(std::move(e));
        return Status::OK();
      }
      case ArgKind::kName:
      case ArgKind::kTrailingNames: {
        ASSIGN_OR_RETURN(std::string n, ExpectIdentifier());
        node->names.push_back(std::move(n));
        return Status::OK();
      }
      case ArgKind::kNames:
      case ArgKind::kGroupNames: {
        bool braces = kind == ArgKind::kGroupNames;
        return ParseList(braces ? "{" : "[", braces ? "}" : "]", braces,
                         [&] { return ParseArg(ArgKind::kName, node); });
      }
      case ArgKind::kNumbers:
        return ParseList("[", "]", false,
                         [&] { return AppendInteger(&node->numbers); });
      case ArgKind::kTrailingNumbers:
        return AppendInteger(&node->numbers);
      case ArgKind::kDims:
        return ParseList("[", "]", false, [&] { return ParseDimSpec(node); });
      case ArgKind::kAgg:
      case ArgKind::kAggs: {
        AggCall call;
        ASSIGN_OR_RETURN(call.agg, ExpectIdentifier());
        call.agg = ToLower(call.agg);
        RETURN_NOT_OK(ExpectSymbol("("));
        if (AcceptSymbol("*")) {
          call.attr = "*";
        } else {
          ASSIGN_OR_RETURN(call.attr, ExpectIdentifier());
        }
        node->aggs.push_back(std::move(call));
        return ExpectSymbol(")");
      }
    }
    return Err("unknown argument kind");
  }

  // Remembers the (plain) input array names so qualified references
  // ("A.x") inside the following expression resolve to sides.
  Status BindInputNames(const OpNode& node) {
    input_names_.clear();
    for (const auto& in : node.inputs) {
      input_names_.push_back(in->is_array_ref() ? in->array : "");
    }
    return Status::OK();
  }

  Status ParseDimSpec(OpNode* node) {
    DimensionDesc d;
    ASSIGN_OR_RETURN(d.name, ExpectIdentifier());
    RETURN_NOT_OK(ExpectSymbol("="));
    ASSIGN_OR_RETURN(d.low, ExpectInteger());
    RETURN_NOT_OK(ExpectSymbol(":"));
    ASSIGN_OR_RETURN(d.high, ExpectInteger());
    d.chunk_interval = std::max<int64_t>(1, d.high - d.low + 1);
    node->dims.push_back(std::move(d));
    return Status::OK();
  }

  // ---- expressions (precedence climbing) ----
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AcceptKeyword("or")) {
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (AcceptKeyword("and")) {
      ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("not")) {
      DepthGuard depth(&depth_);
      if (depth_ > kMaxDepth) return Err("expression nesting too deep");
      ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Not(std::move(e));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    struct CmpOp {
      const char* sym;
      BinaryOp op;
    };
    static constexpr CmpOp kOps[] = {
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"!=", BinaryOp::kNe},
        {"=", BinaryOp::kEq},  {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const auto& c : kOps) {
      if (Peek().IsSymbol(c.sym)) {
        Advance();
        ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Bin(c.op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      if (AcceptSymbol("+")) {
        ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = Add(std::move(lhs), std::move(rhs));
      } else if (AcceptSymbol("-")) {
        ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = Sub(std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      if (AcceptSymbol("*")) {
        ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
        lhs = Mul(std::move(lhs), std::move(rhs));
      } else if (AcceptSymbol("/")) {
        ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
        lhs = Div(std::move(lhs), std::move(rhs));
      } else if (AcceptSymbol("%")) {
        ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
        lhs = Mod(std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      DepthGuard depth(&depth_);
      if (depth_ > kMaxDepth) return Err("expression nesting too deep");
      ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
      return Sub(Lit(int64_t{0}), std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    DepthGuard depth(&depth_);
    if (depth_ > kMaxDepth) return Err("expression nesting too deep");
    const Token& t = Peek();
    if (t.Is(TokenType::kInteger)) {
      Advance();
      return Lit(t.int_value);
    }
    if (t.Is(TokenType::kFloat)) {
      Advance();
      return Lit(t.float_value);
    }
    if (t.Is(TokenType::kString)) {
      Advance();
      return Lit(Value(t.text));
    }
    if (t.IsKeyword("true")) {
      Advance();
      return Lit(Value(true));
    }
    if (t.IsKeyword("false")) {
      Advance();
      return Lit(Value(false));
    }
    if (t.IsKeyword("null")) {
      Advance();
      return Lit(Value::Null());
    }
    if (AcceptSymbol("(")) {
      ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }
    if (t.Is(TokenType::kIdentifier)) {
      std::string name = Advance().text;
      if (AcceptSymbol(".")) {
        // Qualified reference "A.x": resolve the qualifier to a side.
        ASSIGN_OR_RETURN(std::string member, ExpectIdentifier());
        int side = -1;
        for (size_t i = 0; i < input_names_.size(); ++i) {
          if (input_names_[i] == name) {
            side = static_cast<int>(i);
            break;
          }
        }
        if (side < 0) {
          Status s = Status::Invalid(
              "qualifier '" + name +
              "' does not name an input array of this operator");
          return s;
        }
        return Ref(std::move(member), side);
      }
      if (AcceptSymbol("(")) {
        std::vector<ExprPtr> args;
        if (!Peek().IsSymbol(")")) {
          do {
            ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
            args.push_back(std::move(a));
          } while (AcceptSymbol(","));
        }
        RETURN_NOT_OK(ExpectSymbol(")"));
        return Call(std::move(name), std::move(args));
      }
      return Ref(std::move(name));
    }
    Status s = Err("expected expression");
    return s;
  }

  // The grammar recurses through nested operator calls ("filter(filter(…")
  // and expressions ("((((…", "not not …"); without a ceiling a short
  // hostile input overflows the stack (found by fuzz_parser). 200 frames
  // is far beyond any legitimate statement yet safely inside the default
  // 8 MB stack even with ASan's larger frames.
  static constexpr int kMaxDepth = 200;
  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    int* depth_;
  };

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::vector<std::string> input_names_;
  const std::set<std::string>* user_ops_;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& input,
                                 const std::set<std::string>* user_ops) {
  ASSIGN_OR_RETURN(std::vector<Token> toks, Tokenize(input));
  Parser parser(std::move(toks), user_ops);
  return parser.Parse();
}

}  // namespace scidb
