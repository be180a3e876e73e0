// Executor edge cases: mixed attribute types through joins, uncertain
// attributes through every operator, non-divisible regrid extents,
// unbounded-dimension interactions, and operator output schema hygiene.
#include <gtest/gtest.h>

#include "exec/operators.h"

namespace scidb {
namespace {

class ExecEdgeTest : public ::testing::Test {
 protected:
  ExecEdgeTest() {
    ctx_.functions = &fns_;
    ctx_.aggregates = &aggs_;
  }
  FunctionRegistry fns_;
  AggregateRegistry aggs_;
  ExecContext ctx_;
};

TEST_F(ExecEdgeTest, StringAttributesThroughJoins) {
  ArraySchema sa("A", {{"x", 1, 4, 4}},
                 {{"name", DataType::kString, true, false}});
  ArraySchema sb("B", {{"x", 1, 4, 4}},
                 {{"name", DataType::kString, true, false}});
  MemArray a(sa), b(sb);
  ASSERT_TRUE(a.SetCell({1}, Value(std::string("alpha"))).ok());
  ASSERT_TRUE(a.SetCell({2}, Value(std::string("beta"))).ok());
  ASSERT_TRUE(b.SetCell({1}, Value(std::string("alpha"))).ok());
  ASSERT_TRUE(b.SetCell({2}, Value(std::string("gamma"))).ok());

  // Sjoin concatenates and renames the colliding attribute.
  MemArray sj = Sjoin(ctx_, a, b, {{"x", "x"}}).ValueOrDie();
  EXPECT_EQ(sj.schema().attr(1).name, "name_2");
  EXPECT_EQ((*sj.GetCell({2}))[1].string_value(), "gamma");

  // Cjoin on string equality.
  MemArray cj =
      Cjoin(ctx_, a, b, Eq(Ref("name", 0), Ref("name", 1))).ValueOrDie();
  EXPECT_FALSE((*cj.GetCell({1, 1}))[0].is_null());  // alpha == alpha
  EXPECT_TRUE((*cj.GetCell({2, 2}))[0].is_null());   // beta != gamma
}

TEST_F(ExecEdgeTest, UncertainAttributesThroughOperators) {
  ArraySchema s("U", {{"x", 1, 8, 4}},
                {{"m", DataType::kDouble, true, true}});
  MemArray a(s);
  for (int64_t x = 1; x <= 8; ++x) {
    ASSERT_TRUE(
        a.SetCell({x}, Value(Uncertain(static_cast<double>(x), 0.5))).ok());
  }
  // Subsample keeps error bars.
  MemArray sub =
      Subsample(ctx_, a, Le(Ref("x"), Lit(int64_t{4}))).ValueOrDie();
  EXPECT_EQ((*sub.GetCell({3}))[0].uncertain_value().stderr_, 0.5);
  // Apply propagates: m * 2 doubles both mean and stderr.
  MemArray doubled = Apply(ctx_, a, "m2", DataType::kDouble,
                           Mul(Ref("m"), Lit(2.0)), /*uncertain=*/true)
                         .ValueOrDie();
  Uncertain u = (*doubled.GetCell({3}))[0 + 1].uncertain_value();
  EXPECT_EQ(u.mean, 6.0);
  EXPECT_EQ(u.stderr_, 1.0);
  // Regrid with usum adds errors in quadrature.
  MemArray re = Regrid(ctx_, a, {4}, "usum", "m").ValueOrDie();
  EXPECT_DOUBLE_EQ((*re.GetCell({1}))[0].uncertain_value().stderr_, 1.0);
  // Filter on the mean.
  MemArray f = Filter(ctx_, a, Gt(Ref("m"), Lit(6.0))).ValueOrDie();
  EXPECT_TRUE((*f.GetCell({6}))[0].is_null());
  EXPECT_FALSE((*f.GetCell({7}))[0].is_null());
}

TEST_F(ExecEdgeTest, RegridNonDivisibleExtents) {
  // 7 cells regridded by 3: blocks {1-3}, {4-6}, {7} — last is ragged.
  ArraySchema s("R", {{"x", 1, 7, 7}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t x = 1; x <= 7; ++x) {
    ASSERT_TRUE(a.SetCell({x}, Value(1.0)).ok());
  }
  MemArray r = Regrid(ctx_, a, {3}, "count", "*").ValueOrDie();
  EXPECT_EQ(r.schema().dim(0).high, 3);
  EXPECT_EQ((*r.GetCell({1}))[0].int64_value(), 3);
  EXPECT_EQ((*r.GetCell({2}))[0].int64_value(), 3);
  EXPECT_EQ((*r.GetCell({3}))[0].int64_value(), 1);  // ragged tail
}

TEST_F(ExecEdgeTest, OperatorsOnUnboundedArrays) {
  ArraySchema s("S", {{"t", 1, kUnboundedDim, 8}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t t = 1; t <= 20; ++t) {
    ASSERT_TRUE(a.SetCell({t}, Value(static_cast<double>(t))).ok());
  }
  // Subsample and Aggregate work on unbounded arrays.
  MemArray sub = Subsample(ctx_, a, Ge(Ref("t"), Lit(int64_t{15})))
                     .ValueOrDie();
  EXPECT_EQ(sub.CellCount(), 6);
  MemArray agg = Aggregate(ctx_, a, {}, "max", "v").ValueOrDie();
  EXPECT_EQ((*agg.GetCell({1}))[0].double_value(), 20.0);
  // Reshape requires bounded input.
  EXPECT_TRUE(Reshape(ctx_, a, {"t"}, {{"L", 1, 20, 20}}).status()
                  .IsInvalid());
  // Concat requires a bounded left operand.
  MemArray b(s);
  EXPECT_FALSE(Concat(ctx_, a, b, "t").ok());
}

TEST_F(ExecEdgeTest, MultiAttributeArraysKeepAllAttrsThroughOps) {
  ArraySchema s("M", {{"x", 1, 4, 4}},
                {{"p", DataType::kDouble, true, false},
                 {"q", DataType::kInt64, true, false},
                 {"r", DataType::kString, true, false}});
  MemArray a(s);
  ASSERT_TRUE(a.SetCell({2}, {Value(2.5), Value(int64_t{25}),
                              Value(std::string("two"))})
                  .ok());
  MemArray sub =
      Subsample(ctx_, a, Eq(Ref("x"), Lit(int64_t{2}))).ValueOrDie();
  auto cell = *sub.GetCell({2});
  EXPECT_EQ(cell[0].double_value(), 2.5);
  EXPECT_EQ(cell[1].int64_value(), 25);
  EXPECT_EQ(cell[2].string_value(), "two");
  // Aggregate over a named non-first attribute.
  MemArray agg = Aggregate(ctx_, a, {}, "sum", "q").ValueOrDie();
  EXPECT_EQ((*agg.GetCell({1}))[0].double_value(), 25.0);
}

TEST_F(ExecEdgeTest, OutputSchemaNamesAreDistinct) {
  ArraySchema s("N", {{"x", 1, 2, 2}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s), b(s);
  ASSERT_TRUE(a.SetCell({1}, Value(1.0)).ok());
  ASSERT_TRUE(b.SetCell({1}, Value(2.0)).ok());
  // Cross product renames both the dim and the attr of the second input.
  MemArray cp = CrossProduct(ctx_, a, b).ValueOrDie();
  EXPECT_EQ(cp.schema().dim(1).name, "x_2");
  EXPECT_EQ(cp.schema().attr(1).name, "v_2");
  EXPECT_TRUE(cp.schema().Validate().ok());
}

TEST_F(ExecEdgeTest, FilterNullPredicateIsNotAMatch) {
  // Predicate evaluating to NULL (e.g. comparison against a NULL attr)
  // nulls the cell, same as false.
  ArraySchema s("F", {{"x", 1, 3, 3}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  ASSERT_TRUE(a.SetCell({1}, Value(5.0)).ok());
  ASSERT_TRUE(a.SetCell({2}, Value::Null()).ok());
  MemArray f = Filter(ctx_, a, Gt(Ref("v"), Lit(1.0))).ValueOrDie();
  EXPECT_FALSE((*f.GetCell({1}))[0].is_null());
  EXPECT_TRUE((*f.GetCell({2}))[0].is_null());
}

TEST_F(ExecEdgeTest, NegativeAndZeroCoordinatesViaTranslatedSchemas) {
  // Dimensions need not start at 1 — a schema with low = -5 works through
  // the whole stack (enhancements produce such ranges).
  ArraySchema s("Z", {{"x", -5, 5, 4}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t x = -5; x <= 5; ++x) {
    ASSERT_TRUE(a.SetCell({x}, Value(static_cast<double>(x))).ok());
  }
  EXPECT_EQ(a.CellCount(), 11);
  MemArray sub =
      Subsample(ctx_, a, Le(Ref("x"), Lit(int64_t{0}))).ValueOrDie();
  EXPECT_EQ(sub.CellCount(), 6);
  EXPECT_TRUE(sub.Exists({-5}));
  MemArray agg = Aggregate(ctx_, a, {}, "sum", "*").ValueOrDie();
  EXPECT_EQ((*agg.GetCell({1}))[0].double_value(), 0.0);
}

// B's dimensions are renamed against every name already in the output,
// not only A's: A[X] x B[X, X_2] must not emit X_2 twice.
TEST_F(ExecEdgeTest, JoinOutputsHaveDistinctDimensionNames) {
  const AttributeDesc v{"v", DataType::kDouble, true, false};
  const AttributeDesc w{"w", DataType::kDouble, true, false};
  MemArray a(ArraySchema("A", {{"X", 1, 2, 2}}, {v}));
  MemArray b(ArraySchema("B", {{"X", 1, 2, 2}, {"X_2", 1, 2, 2}}, {w}));
  MemArray a2(ArraySchema("A", {{"Y", 1, 2, 2}, {"X", 1, 2, 2}}, {v}));
  MemArray b3(ArraySchema(
      "B", {{"Y", 1, 2, 2}, {"X", 1, 2, 2}, {"X_2", 1, 2, 2}}, {w}));
  ASSERT_TRUE(a.SetCell({1}, Value(1.0)).ok());
  ASSERT_TRUE(b.SetCell({2, 1}, Value(2.0)).ok());
  ASSERT_TRUE(a2.SetCell({1, 2}, Value(3.0)).ok());
  ASSERT_TRUE(b3.SetCell({1, 1, 2}, Value(4.0)).ok());

  MemArray cross = CrossProduct(ctx_, a, b).ValueOrDie();
  MemArray sjoin = Sjoin(ctx_, a2, b3, {{"Y", "Y"}}).ValueOrDie();
  MemArray cjoin =
      Cjoin(ctx_, a, b, Lt(Ref("v", 0), Ref("w", 1))).ValueOrDie();
  for (const MemArray* out : {&cross, &sjoin, &cjoin}) {
    EXPECT_TRUE(out->schema().Validate().ok()) << out->schema().ToString();
  }
  EXPECT_EQ(cross.schema().dim(1).name, "X_2");
  EXPECT_EQ(cross.schema().dim(2).name, "X_2_2");
  EXPECT_EQ(sjoin.schema().dim(2).name, "X_2");
  EXPECT_EQ(sjoin.schema().dim(3).name, "X_2_2");
  EXPECT_EQ((*cross.GetCell({1, 2, 1}))[1].double_value(), 2.0);
  EXPECT_EQ((*sjoin.GetCell({1, 2, 1, 2}))[1].double_value(), 4.0);
  EXPECT_EQ((*cjoin.GetCell({1, 2, 1}))[1].double_value(), 2.0);
}

}  // namespace
}  // namespace scidb
