#include <functional>

#include <gtest/gtest.h>

#include "query/lexer.h"
#include "query/parser.h"
#include "query/session.h"

namespace scidb {
namespace {

// ------------------------------ lexer ------------------------------

TEST(LexerTest, TokenizesPaperDefine) {
  auto toks =
      Tokenize("define Remote (s1 = float, s2 = float) (I, J)").ValueOrDie();
  EXPECT_TRUE(toks[0].IsKeyword("define"));
  EXPECT_TRUE(toks[1].Is(TokenType::kIdentifier));
  EXPECT_EQ(toks[1].text, "Remote");
  EXPECT_TRUE(toks[2].IsSymbol("("));
  EXPECT_TRUE(toks.back().Is(TokenType::kEnd));
}

TEST(LexerTest, NumbersAndStrings) {
  auto toks = Tokenize("42 16.3 'hello world' 7.0").ValueOrDie();
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 16.3);
  EXPECT_EQ(toks[2].text, "hello world");
  EXPECT_TRUE(toks[2].Is(TokenType::kString));
  EXPECT_DOUBLE_EQ(toks[3].float_value, 7.0);
}

TEST(LexerTest, TwoCharOperators) {
  auto toks = Tokenize("a <= b >= c != d <> e").ValueOrDie();
  EXPECT_TRUE(toks[1].IsSymbol("<="));
  EXPECT_TRUE(toks[3].IsSymbol(">="));
  EXPECT_TRUE(toks[5].IsSymbol("!="));
  EXPECT_TRUE(toks[7].IsSymbol("!="));  // <> normalizes
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("'unterminated").status().IsInvalid());
  EXPECT_TRUE(Tokenize("a ~ b").status().IsInvalid());
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto toks = Tokenize("DEFINE Updatable Remote").ValueOrDie();
  EXPECT_TRUE(toks[0].IsKeyword("define"));
  EXPECT_TRUE(toks[1].IsKeyword("updatable"));
  EXPECT_EQ(toks[2].text, "Remote");  // identifiers keep case
}

// ------------------------------ parser ------------------------------

TEST(ParserTest, DefineMatchesPaperSyntax) {
  // "define Remote (s1 = float, s2 = float, s3 = float) (I, J)"
  Statement s = ParseStatement(
                    "define Remote (s1 = float, s2 = float, s3 = float) "
                    "(I, J)")
                    .ValueOrDie();
  EXPECT_EQ(s.kind, Statement::Kind::kDefine);
  EXPECT_EQ(s.define_schema.name(), "Remote");
  EXPECT_EQ(s.define_schema.nattrs(), 3u);
  EXPECT_EQ(s.define_schema.attr(0).type, DataType::kFloat);
  EXPECT_EQ(s.define_schema.ndims(), 2u);
  EXPECT_TRUE(s.define_schema.dim(0).unbounded());
}

TEST(ParserTest, DefineUpdatableAbsorbsHistoryDim) {
  // "define updatable Remote_2 (s1=float,...) (I, J, history)"
  Statement s =
      ParseStatement(
          "define updatable Remote_2 (s1 = float) (I, J, history)")
          .ValueOrDie();
  EXPECT_TRUE(s.define_schema.updatable());
  EXPECT_EQ(s.define_schema.ndims(), 2u);  // history is implicit
}

TEST(ParserTest, DefineUncertainAttr) {
  Statement s =
      ParseStatement("define U (v = uncertain double) (I)").ValueOrDie();
  EXPECT_TRUE(s.define_schema.attr(0).uncertain);
}

TEST(ParserTest, CreateWithBoundsAndStars) {
  Statement s =
      ParseStatement("create My_remote as Remote [1024, 1024]").ValueOrDie();
  EXPECT_EQ(s.kind, Statement::Kind::kCreate);
  EXPECT_EQ(s.create_name, "My_remote");
  EXPECT_EQ(s.create_type, "Remote");
  EXPECT_EQ(s.create_highs, (std::vector<int64_t>{1024, 1024}));

  Statement u =
      ParseStatement("create My_remote_2 as Remote [*, *]").ValueOrDie();
  EXPECT_EQ(u.create_highs,
            (std::vector<int64_t>{kUnboundedDim, kUnboundedDim}));
}

TEST(ParserTest, QueryOperatorTrees) {
  Statement s =
      ParseStatement("select Subsample(F, even(X))").ValueOrDie();
  EXPECT_EQ(s.kind, Statement::Kind::kQuery);
  EXPECT_EQ(s.query->op, "subsample");
  EXPECT_EQ(s.query->inputs[0]->array, "F");
  EXPECT_EQ(s.query->exprs[0]->ToString(), "even(X)");

  // Nested composition.
  Statement n = ParseStatement(
                    "Aggregate(Subsample(F, X < 10), {Y}, sum(v))")
                    .ValueOrDie();
  EXPECT_EQ(n.query->op, "aggregate");
  EXPECT_EQ(n.query->inputs[0]->op, "subsample");
  EXPECT_EQ(n.query->names, (std::vector<std::string>{"Y"}));
  EXPECT_EQ(n.query->aggs[0].agg, "sum");
  EXPECT_EQ(n.query->aggs[0].attr, "v");
}

TEST(ParserTest, SjoinQualifiedRefs) {
  Statement s =
      ParseStatement("select Sjoin(A, B, A.x = B.x)").ValueOrDie();
  EXPECT_EQ(s.query->op, "sjoin");
  EXPECT_EQ(s.query->exprs[0]->ToString(), "(A.x = B.x)");
  // An unknown qualifier fails at parse time.
  EXPECT_TRUE(
      ParseStatement("select Sjoin(A, B, C.x = B.x)").status().IsInvalid());
}

TEST(ParserTest, ReshapePaperSyntax) {
  Statement s = ParseStatement(
                    "select Reshape(G, [X, Z, Y], [U = 1:8, V = 1:3])")
                    .ValueOrDie();
  EXPECT_EQ(s.query->names, (std::vector<std::string>{"X", "Z", "Y"}));
  ASSERT_EQ(s.query->dims.size(), 2u);
  EXPECT_EQ(s.query->dims[0].name, "U");
  EXPECT_EQ(s.query->dims[0].high, 8);
  EXPECT_EQ(s.query->dims[1].name, "V");
}

TEST(ParserTest, InsertAndStore) {
  Statement i = ParseStatement(
                    "insert My_remote [7, 8] values (1.5, 2.5, 3.5)")
                    .ValueOrDie();
  EXPECT_EQ(i.kind, Statement::Kind::kInsert);
  EXPECT_EQ(i.insert_coords, (Coordinates{7, 8}));
  EXPECT_EQ(i.insert_values.size(), 3u);
  EXPECT_DOUBLE_EQ(i.insert_values[0].double_value(), 1.5);

  Statement st =
      ParseStatement("store Filter(A, v > 10) into Hot").ValueOrDie();
  EXPECT_EQ(st.kind, Statement::Kind::kStore);
  EXPECT_EQ(st.store_into, "Hot");
}

TEST(ParserTest, ExpressionPrecedence) {
  Statement s =
      ParseStatement("select Filter(A, v + 2 * 3 > 10 and not even(X))")
          .ValueOrDie();
  EXPECT_EQ(s.query->exprs[0]->ToString(),
            "(((v + (2 * 3)) > 10) and not(even(X)))");
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_TRUE(ParseStatement("define (x=float) (I)").status().IsInvalid());
  EXPECT_TRUE(ParseStatement("create X as").status().IsInvalid());
  EXPECT_TRUE(ParseStatement("select Subsample(F)").status().IsInvalid());
  EXPECT_TRUE(ParseStatement("select Filter(A, v >)").status().IsInvalid());
  EXPECT_TRUE(
      ParseStatement("select Filter(A, v > 1) trailing").status()
          .IsInvalid());
}

// ------------------------------ session ------------------------------

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() {
    SCIDB_CHECK(
        session_
            .Execute("define Remote (s1 = double, s2 = double) (I, J)")
            .ok());
    SCIDB_CHECK(
        session_.Execute("create My_remote as Remote [8, 8]").ok());
    for (int64_t i = 1; i <= 8; ++i) {
      for (int64_t j = 1; j <= 8; ++j) {
        SCIDB_CHECK(session_
                        .Execute("insert My_remote [" + std::to_string(i) +
                                 ", " + std::to_string(j) + "] values (" +
                                 std::to_string(i * j) + ".0, " +
                                 std::to_string(i + j) + ".0)")
                        .ok());
      }
    }
  }

  Session session_;
};

TEST_F(SessionTest, DefineCreateInsertSelect) {
  auto r = session_.Execute("select Filter(My_remote, s1 > 40)").ValueOrDie();
  ASSERT_EQ(r.kind, QueryResult::Kind::kArray);
  // s1 = i*j > 40: present cells keep values, others are NULL.
  EXPECT_EQ(r.array->CellCount(), 64);
  EXPECT_FALSE((*r.array->GetCell({7, 8}))[0].is_null());
  EXPECT_TRUE((*r.array->GetCell({1, 1}))[0].is_null());
}

TEST_F(SessionTest, ExistsIsBoolean) {
  auto yes = session_.Execute("select Exists(My_remote, 7, 7)").ValueOrDie();
  EXPECT_EQ(yes.kind, QueryResult::Kind::kBool);
  EXPECT_TRUE(yes.boolean);
  auto no = session_.Execute("select Exists(My_remote, 9, 1)").ValueOrDie();
  EXPECT_FALSE(no.boolean);
}

TEST_F(SessionTest, AggregateViaText) {
  auto r = session_.Execute("select Aggregate(My_remote, {I}, sum(s1))")
               .ValueOrDie();
  // sum over j of i*j = i * 36.
  EXPECT_EQ((*r.array->GetCell({3}))[0].double_value(), 108.0);
}

TEST_F(SessionTest, StoreThenQueryStored) {
  ASSERT_TRUE(session_
                  .Execute("store Subsample(My_remote, I <= 2 and J <= 2) "
                           "into Corner")
                  .ok());
  EXPECT_TRUE(session_.HasArray("Corner"));
  auto r = session_.Execute("select Aggregate(Corner, {}, count(s1))")
               .ValueOrDie();
  EXPECT_EQ((*r.array->GetCell({1}))[0].int64_value(), 4);
  // Store refuses to clobber.
  EXPECT_TRUE(session_
                  .Execute("store Filter(My_remote, s1 > 1) into Corner")
                  .status()
                  .IsAlreadyExists());
}

TEST_F(SessionTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(session_.Execute("select Filter(Nope, v > 1)").status()
                  .IsNotFound());
  EXPECT_TRUE(
      session_.Execute("create X as Nothing [4]").status().IsNotFound());
  EXPECT_TRUE(session_.Execute("create My_remote as Remote [8, 8]")
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(
      session_.Execute("define Remote (x = double) (I)").status()
          .IsAlreadyExists());
  // Arity mismatch in create.
  EXPECT_TRUE(
      session_.Execute("create Y as Remote [8]").status().IsInvalid());
}

TEST_F(SessionTest, CppBindingProducesSameResults) {
  // The fluent binding builds the same parse tree as the text parser
  // (paper §2.4: multiple bindings map to one representation).
  using namespace binding;
  auto via_binding = session_
                         .Eval(Aggregate(Subsample(Array("My_remote"),
                                                   Le(Ref("I"), Lit(int64_t{2}))),
                                         {"I"}, "sum", "s1"))
                         .ValueOrDie();
  auto via_text =
      session_
          .Execute(
              "select Aggregate(Subsample(My_remote, I <= 2), {I}, sum(s1))")
          .ValueOrDie();
  EXPECT_EQ(via_binding.CellCount(), via_text.array->CellCount());
  EXPECT_EQ((*via_binding.GetCell({2}))[0].double_value(),
            (*via_text.array->GetCell({2}))[0].double_value());
}

TEST_F(SessionTest, SjoinViaTextMatchesFigure1) {
  ASSERT_TRUE(session_.Execute("define Vec (val = double) (x)").ok());
  ASSERT_TRUE(session_.Execute("create A as Vec [4]").ok());
  ASSERT_TRUE(session_.Execute("create B as Vec [4]").ok());
  ASSERT_TRUE(session_.Execute("insert A [1] values (1.0)").ok());
  ASSERT_TRUE(session_.Execute("insert A [2] values (2.0)").ok());
  ASSERT_TRUE(session_.Execute("insert B [1] values (1.0)").ok());
  ASSERT_TRUE(session_.Execute("insert B [2] values (2.0)").ok());
  auto r = session_.Execute("select Sjoin(A, B, A.x = B.x)").ValueOrDie();
  EXPECT_EQ(r.array->CellCount(), 2);
  EXPECT_EQ((*r.array->GetCell({2}))[1].double_value(), 2.0);
}

TEST_F(SessionTest, SetParallelismStatement) {
  EXPECT_EQ(session_.parallelism(), 1);
  auto r = session_.Execute("set parallelism = 4").ValueOrDie();
  ASSERT_EQ(r.kind, QueryResult::Kind::kNone);
  EXPECT_EQ(r.message, "parallelism set to 4");
  EXPECT_EQ(session_.parallelism(), 4);

  // Queries under the pool return the same cells as the serial engine.
  auto par = session_.Execute("select Aggregate(My_remote, {I}, sum(s1))")
                 .ValueOrDie();
  ASSERT_TRUE(session_.Execute("set parallelism = 1").ok());
  EXPECT_EQ(session_.parallelism(), 1);
  auto ser = session_.Execute("select Aggregate(My_remote, {I}, sum(s1))")
                 .ValueOrDie();
  ASSERT_EQ(par.array->CellCount(), ser.array->CellCount());
  for (int64_t i = 1; i <= 8; ++i) {
    EXPECT_EQ((*par.array->GetCell({i}))[0].double_value(),
              (*ser.array->GetCell({i}))[0].double_value());
  }

  // Invalid knob values are rejected with the session unchanged.
  EXPECT_TRUE(session_.Execute("set parallelism = 0").status().IsInvalid());
  EXPECT_TRUE(
      session_.Execute("set parallelism = 1000").status().IsInvalid());
  EXPECT_TRUE(session_.Execute("set no_such_knob = 2").status().IsInvalid());
  // The grid is configured through GridNetOptions, not session knobs.
  EXPECT_TRUE(session_.Execute("set replication = 2").status().IsInvalid());
  EXPECT_TRUE(session_.Execute("set net_faults = 7").status().IsInvalid());
  EXPECT_EQ(session_.parallelism(), 1);

  // The programmatic knob mirrors the AQL statement.
  ASSERT_TRUE(session_.set_parallelism(2).ok());
  EXPECT_EQ(session_.parallelism(), 2);
  ASSERT_TRUE(session_.set_parallelism(1).ok());
}

// A copy of `built` with `edit` applied: trees no AQL text parses to.
OpNodePtr Edited(const OpNodePtr& built,
                 const std::function<void(OpNode*)>& edit) {
  auto node = std::make_shared<OpNode>(*built);
  edit(node.get());
  return node;
}

TEST_F(SessionTest, MalformedTreesAreInvalidNotFatal) {
  // Each tree fails validation against its operator-table row before the
  // optimizer or an executor reads the missing argument.
  using namespace binding;
  const OpNodePtr a = Array("My_remote");
  const ExprPtr pred = Gt(Ref("s1"), Lit(int64_t{1}));
  auto exists = std::make_shared<OpNode>();
  exists->op = "exists";
  exists->inputs = {a, a};
  const std::vector<OpNodePtr> malformed = {
      Edited(Filter(a, pred), [](OpNode* n) { n->exprs.clear(); }),
      Edited(Apply(a, "w", pred), [](OpNode* n) { n->names.clear(); }),
      Edited(Aggregate(a, {"I"}, "sum", "s1"),
             [](OpNode* n) { n->aggs.clear(); }),
      Edited(Filter(a, pred), [&](OpNode* n) { n->inputs.push_back(a); }),
      exists,
  };
  for (const OpNodePtr& tree : malformed) {
    for (bool explain : {false, true}) {
      Statement stmt;
      stmt.kind = explain ? Statement::Kind::kExplain : Statement::Kind::kQuery;
      stmt.explain_analyze = true;
      stmt.query = tree;
      auto r = session_.Execute(stmt);
      EXPECT_TRUE(r.status().IsInvalid())
          << tree->op << ": " << r.status().ToString();
    }
    EXPECT_TRUE(session_.Eval(tree).status().IsInvalid()) << tree->op;
  }
  // The well-formed originals still run.
  EXPECT_TRUE(session_.Eval(Filter(a, pred)).ok());
  EXPECT_TRUE(session_.Execute("select Exists(My_remote, 1, 1)").ok());
}

TEST_F(SessionTest, RegisterExternalArray) {
  ArraySchema s("ext", {{"T", 1, 4, 4}},
                {{"v", DataType::kDouble, true, false}});
  auto arr = std::make_shared<MemArray>(s);
  ASSERT_TRUE(arr->SetCell({1}, Value(9.0)).ok());
  ASSERT_TRUE(session_.RegisterArray(arr).ok());
  auto r = session_.Execute("select Aggregate(ext, {}, max(v))").ValueOrDie();
  EXPECT_EQ((*r.array->GetCell({1}))[0].double_value(), 9.0);
  EXPECT_TRUE(session_.RegisterArray(arr).IsAlreadyExists());
}

}  // namespace
}  // namespace scidb
