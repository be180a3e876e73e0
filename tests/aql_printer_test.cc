// StatementToAql is the inverse the fuzz_parser harness leans on: for
// any statement s that parses, print(parse(s)) must parse again and be a
// string-level fixed point from the second hop on. These tests pin that
// property on representative statements from every grammar production,
// plus the boundary inputs the harness first found (overflowing numeric
// literals, deep nesting).

#include "query/aql_printer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "query/session.h"

namespace scidb {
namespace {

// parse -> print -> parse -> print; the two printed forms must match and
// every parse must succeed.
void ExpectRoundTrip(const std::string& input) {
  auto stmt = ParseStatement(input, nullptr);
  ASSERT_TRUE(stmt.ok()) << input << ": " << stmt.status().ToString();
  auto printed = StatementToAql(stmt.value());
  ASSERT_TRUE(printed.ok()) << input << ": " << printed.status().ToString();
  auto stmt2 = ParseStatement(printed.value(), nullptr);
  ASSERT_TRUE(stmt2.ok()) << "re-parse of '" << printed.value()
                          << "' failed: " << stmt2.status().ToString();
  auto printed2 = StatementToAql(stmt2.value());
  ASSERT_TRUE(printed2.ok());
  EXPECT_EQ(printed.value(), printed2.value()) << "not a fixed point";
}

TEST(AqlPrinterTest, RoundTripsEveryStatementKind) {
  ExpectRoundTrip("define Test2 (v = uncertain float) (I, J = 0 : 99)");
  ExpectRoundTrip("define updatable U (v = int64) (X = 1 : *, history)");
  ExpectRoundTrip("create X as Test2 [99, 1000]");
  ExpectRoundTrip("create Y as Test2 [*, 42]");
  ExpectRoundTrip("select A");
  ExpectRoundTrip("A");
  ExpectRoundTrip("store Filter(A, v > 2) into B");
  ExpectRoundTrip("insert A [1, -2] values (3, 4.5, 'hi', true, null)");
  ExpectRoundTrip("trace back A [3, 4]");
  ExpectRoundTrip("trace forward A [1]");
  ExpectRoundTrip("enhance M with scale(10.0)");
  ExpectRoundTrip("enhance M with transpose");
  ExpectRoundTrip("shape M with circle(3, 4, 5)");
  ExpectRoundTrip("select A {16.3, 48.2}");
  ExpectRoundTrip("explain analyze select Filter(A, v = 1)");
  ExpectRoundTrip("explain Subsample(A, I < 3)");
  ExpectRoundTrip("set parallelism = 4");
}

TEST(AqlPrinterTest, RoundTripsEveryOperator) {
  ExpectRoundTrip("select Subsample(A, I = 3 and J < 4)");
  ExpectRoundTrip("select Filter(A, not (v = 2) or v % 2 = 1)");
  ExpectRoundTrip("select Exists(A, 1, 2)");
  ExpectRoundTrip("select Reshape(A, [I, J], [K = 0 : 9])");
  ExpectRoundTrip("select Sjoin(A, B, A.x = B.y)");
  ExpectRoundTrip("select Cjoin(A, B, A.x < B.y + 1)");
  ExpectRoundTrip("select AddDimension(A, K)");
  ExpectRoundTrip("select RemoveDimension(A, J)");
  ExpectRoundTrip("select Concat(A, B, I)");
  ExpectRoundTrip("select CrossProduct(A, B)");
  ExpectRoundTrip("select Aggregate(A, {Y}, sum(v))");
  ExpectRoundTrip("select Aggregate(A, {}, sum(v), avg(w), count(*))");
  ExpectRoundTrip("select Apply(A, w, v * 2 + 1)");
  ExpectRoundTrip("select Project(A, v, w)");
  ExpectRoundTrip("select Regrid(A, [2, 2], avg(v))");
  ExpectRoundTrip("select Window(A, [3, 3], max(v))");
  ExpectRoundTrip("select Filter(Subsample(A, even(I)), f(v, 2.5) = true)");
}

TEST(AqlPrinterTest, EveryBindingBuilderRoundTrips) {
  // The C++ binding and the parser build the same trees (paper §2.4), so
  // every builder's tree prints to AQL that parses back to the same text.
  using namespace binding;
  const OpNodePtr a = Array("A");
  const OpNodePtr b = Array("B");
  const ExprPtr pred = Lt(Ref("I"), Lit(int64_t{3}));
  const std::vector<OpNodePtr> trees = {
      Subsample(a, pred),
      Filter(a, Gt(Ref("v"), Lit(int64_t{2}))),
      Sjoin(a, b, Eq(Ref("x", 0), Ref("y", 1))),
      Cjoin(a, b, Lt(Ref("x", 0), Ref("y", 1))),
      Aggregate(a, {"Y"}, "sum", "v"),
      Aggregate(a, {}, "count", "*"),
      Apply(a, "w", Mul(Ref("v"), Lit(int64_t{2}))),
      Project(a, {"v", "w"}),
      Reshape(a, {"I", "J"}, {DimensionDesc{"K", 0, 9, 10}}),
      Regrid(a, {2, 2}, "avg", "v"),
      Window(a, {3, 3}, "max", "v"),
      Concat(a, b, "I"),
      CrossProduct(a, b),
      AddDimension(a, "K"),
      RemoveDimension(Subsample(a, pred), "J"),
  };
  for (const OpNodePtr& tree : trees) {
    auto printed = OpNodeToAql(*tree);
    ASSERT_TRUE(printed.ok())
        << tree->op << ": " << printed.status().ToString();
    auto stmt = ParseStatement("select " + printed.value(), nullptr);
    ASSERT_TRUE(stmt.ok()) << printed.value() << ": "
                           << stmt.status().ToString();
    auto reprinted = OpNodeToAql(*stmt.value().query);
    ASSERT_TRUE(reprinted.ok()) << printed.value();
    EXPECT_EQ(reprinted.value(), printed.value());
  }
}

TEST(AqlPrinterTest, NormalizesOnceThenFixed) {
  // Case folding and paren introduction happen on the first print; the
  // second print must reproduce the first exactly.
  ExpectRoundTrip("SELECT FILTER(A, V > 2 AND W < 3 OR NOT (V = W))");
  ExpectRoundTrip("select Filter(A, 1 + 2 * 3 - 4 / 5 % 6 < 7)");
}

TEST(AqlPrinterTest, IntegralFloatsStayFloats) {
  // 42.0 prints as "42.0", not "42": dropping the point would flip the
  // literal to an integer token whose huge cousins ("1e300" written out)
  // no longer lex.
  auto stmt = ParseStatement("insert A [1] values (42.0)", nullptr);
  ASSERT_TRUE(stmt.ok());
  auto printed = StatementToAql(stmt.value());
  ASSERT_TRUE(printed.ok());
  EXPECT_NE(printed.value().find("42.0"), std::string::npos)
      << printed.value();
  ExpectRoundTrip("insert A [1] values (42.0)");
  ExpectRoundTrip(
      "insert A [1] values "
      "(100000000000000000000000000000000000000000000000000000000000.0)");
}

TEST(AqlPrinterBoundaryTest, OverflowingIntegerLiteralIsAnError) {
  // std::stoll used to throw out_of_range here; now a Status.
  auto r = ParseStatement("select Filter(A, v = 9223372036854775808)",
                          nullptr);
  EXPECT_FALSE(r.ok());
  // INT64_MAX itself still lexes.
  ExpectRoundTrip("select Filter(A, v = 9223372036854775807)");
}

TEST(AqlPrinterBoundaryTest, OverflowingFloatLiteralIsAnError) {
  std::string huge = "1" + std::string(400, '0') + ".0";
  auto r = ParseStatement("select Filter(A, v = " + huge + ")", nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(AqlPrinterBoundaryTest, DeeplyNestedExpressionsAreRejectedNotFatal) {
  // 100k parens used to overflow the stack; the parser now refuses past
  // a fixed depth and must do so with a Status, not a crash.
  for (const char* pattern : {"(", "not "}) {
    std::string deep = "select Filter(A, ";
    for (int i = 0; i < 100000; ++i) deep += pattern;
    auto r = ParseStatement(deep, nullptr);
    EXPECT_FALSE(r.ok());
  }
  std::string ops = "select ";
  for (int i = 0; i < 100000; ++i) ops += "Filter(";
  EXPECT_FALSE(ParseStatement(ops, nullptr).ok());
  // Reasonable nesting still parses: 50 parens is a legal statement.
  std::string fine = "select Filter(A, " + std::string(50, '(') + "v" +
                     std::string(50, ')') + " = 1)";
  ExpectRoundTrip(fine);
}

}  // namespace
}  // namespace scidb
