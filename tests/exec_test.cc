#include <gtest/gtest.h>

#include <limits>

#include "exec/expression.h"
#include "exec/operators.h"

namespace scidb {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() {
    ctx_.functions = &fns_;
    ctx_.aggregates = &aggs_;
  }

  static MemArray Make1D(const std::string& name, const std::string& attr,
                         const std::vector<std::pair<int64_t, double>>& cells,
                         int64_t high = 100, int64_t chunk = 10) {
    ArraySchema s(name, {{"x", 1, high, chunk}},
                  {{attr, DataType::kDouble, true, false}});
    MemArray a(s);
    for (const auto& [i, v] : cells) {
      SCIDB_CHECK(a.SetCell({i}, Value(v)).ok());
    }
    return a;
  }

  static MemArray Make2D(const std::string& name,
                         const std::vector<std::tuple<int64_t, int64_t,
                                                      double>>& cells,
                         int64_t high = 100, int64_t chunk = 10) {
    ArraySchema s(name, {{"X", 1, high, chunk}, {"Y", 1, high, chunk}},
                  {{"v", DataType::kDouble, true, false}});
    MemArray a(s);
    for (const auto& [i, j, v] : cells) {
      SCIDB_CHECK(a.SetCell({i, j}, Value(v)).ok());
    }
    return a;
  }

  FunctionRegistry fns_;
  AggregateRegistry aggs_;
  ExecContext ctx_;
};

// =========================== paper figures ===========================

TEST_F(ExecTest, Figure1_Sjoin) {
  // Figure 1: two 1-D arrays A (x) and B (x), Sjoin(A, B, A.x = B.x).
  // A = [1 -> 1, 2 -> 2], B = [1 -> 1, 2 -> 2]; the result is 1-D with
  // concatenated data values in the matching index positions.
  MemArray a = Make1D("A", "val", {{1, 1.0}, {2, 2.0}});
  MemArray b = Make1D("B", "val", {{1, 1.0}, {2, 2.0}});
  MemArray r = Sjoin(ctx_, a, b, {{"x", "x"}}).ValueOrDie();

  EXPECT_EQ(r.schema().ndims(), 1u);  // m + n - k = 1 + 1 - 1
  EXPECT_EQ(r.schema().nattrs(), 2u);
  EXPECT_EQ(r.CellCount(), 2);
  auto c1 = r.GetCell({1});
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ((*c1)[0].double_value(), 1.0);  // "1,1"
  EXPECT_EQ((*c1)[1].double_value(), 1.0);
  auto c2 = r.GetCell({2});
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ((*c2)[0].double_value(), 2.0);  // "2,2"
  EXPECT_EQ((*c2)[1].double_value(), 2.0);
}

TEST_F(ExecTest, Figure2_Aggregate) {
  // Figure 2: 2-D array H; Aggregate(H, {Y}, Sum(*)) groups on y and sums
  // over the non-grouped dimension, producing y=1 -> 4, y=2 -> 7.
  MemArray h = Make2D("H", {{1, 1, 1.0}, {2, 1, 3.0},
                            {1, 2, 3.0}, {2, 2, 4.0}});
  MemArray r = Aggregate(ctx_, h, {"Y"}, "sum", "*").ValueOrDie();

  EXPECT_EQ(r.schema().ndims(), 1u);
  EXPECT_EQ(r.schema().dim(0).name, "Y");
  EXPECT_EQ(r.CellCount(), 2);
  EXPECT_EQ((*r.GetCell({1}))[0].double_value(), 4.0);
  EXPECT_EQ((*r.GetCell({2}))[0].double_value(), 7.0);
}

TEST_F(ExecTest, Figure3_Cjoin) {
  // Figure 3: Cjoin(A, B, A.val = B.val) on the Figure-1 arrays. Result is
  // 2-D; cell [1,1] holds "1,1", cell [2,2] holds "2,2", and the
  // off-diagonal cells contain NULL.
  MemArray a = Make1D("A", "val", {{1, 1.0}, {2, 2.0}});
  MemArray b = Make1D("B", "val", {{1, 1.0}, {2, 2.0}});
  MemArray r =
      Cjoin(ctx_, a, b, Eq(Ref("val", 0), Ref("val", 1))).ValueOrDie();

  EXPECT_EQ(r.schema().ndims(), 2u);  // m + n
  EXPECT_EQ(r.CellCount(), 4);        // all positions present
  auto diag = r.GetCell({1, 1});
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ((*diag)[0].double_value(), 1.0);
  EXPECT_EQ((*diag)[1].double_value(), 1.0);
  auto diag2 = r.GetCell({2, 2});
  EXPECT_EQ((*diag2)[1].double_value(), 2.0);
  // Off-diagonal: present but NULL.
  auto off = r.GetCell({1, 2});
  ASSERT_TRUE(off.has_value());
  EXPECT_TRUE((*off)[0].is_null());
  EXPECT_TRUE((*off)[1].is_null());
}

// =========================== Subsample ===========================

TEST_F(ExecTest, SubsampleEvenPredicate) {
  // Paper: Subsample(F, even(X)) keeps even-indexed slices, retaining
  // index values.
  MemArray f = Make2D("F", {{1, 1, 11.0}, {2, 1, 21.0}, {3, 1, 31.0},
                            {4, 1, 41.0}});
  MemArray r =
      Subsample(ctx_, f, Call("even", {Ref("X")})).ValueOrDie();
  EXPECT_EQ(r.CellCount(), 2);
  EXPECT_TRUE(r.Exists({2, 1}));
  EXPECT_TRUE(r.Exists({4, 1}));   // original index values retained
  EXPECT_FALSE(r.Exists({1, 1}));
  EXPECT_EQ((*r.GetCell({2, 1}))[0].double_value(), 21.0);
}

TEST_F(ExecTest, SubsampleBoxPredicate) {
  // "X = 3 and Y < 4" is legal.
  MemArray f = Make2D("F", {{3, 1, 1.0}, {3, 3, 2.0}, {3, 5, 3.0},
                            {2, 2, 9.0}});
  ExprPtr pred = And(Eq(Ref("X"), Lit(int64_t{3})),
                     Lt(Ref("Y"), Lit(int64_t{4})));
  MemArray r = Subsample(ctx_, f, pred).ValueOrDie();
  EXPECT_EQ(r.CellCount(), 2);
  EXPECT_TRUE(r.Exists({3, 1}));
  EXPECT_TRUE(r.Exists({3, 3}));
}

TEST_F(ExecTest, SubsampleRejectsCrossDimPredicate) {
  // "X = Y" is not legal (paper).
  MemArray f = Make2D("F", {{1, 1, 1.0}});
  EXPECT_TRUE(
      Subsample(ctx_, f, Eq(Ref("X"), Ref("Y"))).status().IsInvalid());
  // Predicates over attributes are also rejected (that is Filter's job).
  EXPECT_TRUE(
      Subsample(ctx_, f, Gt(Ref("v"), Lit(0.0))).status().IsInvalid());
}

TEST_F(ExecTest, SubsamplePrunesChunks) {
  MemArray f = Make2D("big", {}, 100, 10);
  for (int64_t i = 1; i <= 100; i += 2) {
    for (int64_t j = 1; j <= 100; j += 2) {
      ASSERT_TRUE(f.SetCell({i, j}, Value(1.0)).ok());
    }
  }
  ExprPtr pred = And(Le(Ref("X"), Lit(int64_t{10})),
                     Le(Ref("Y"), Lit(int64_t{10})));
  ExecStats stats;
  ExecContext ctx = ctx_;
  ctx.stats = &stats;
  MemArray r = Subsample(ctx, f, pred).ValueOrDie();
  EXPECT_EQ(r.CellCount(), 25);
  // 100 chunks total; only the (1,1) chunk intersects X<=10, Y<=10.
  EXPECT_EQ(stats.chunks_scanned, 1);
  EXPECT_EQ(stats.chunks_pruned, 99);

  // Ablation: pruning off scans everything but returns the same result.
  ExecStats stats2;
  ctx.enable_chunk_pruning = false;
  ctx.stats = &stats2;
  MemArray r2 = Subsample(ctx, f, pred).ValueOrDie();
  EXPECT_EQ(r2.CellCount(), 25);
  EXPECT_EQ(stats2.chunks_scanned, 100);
  EXPECT_GT(stats2.cells_visited, stats.cells_visited);
}

// =========================== Exists ===========================

TEST_F(ExecTest, ExistsMatchesPaper) {
  // "Exists? [A, 7, 7] returns true if [7,7] is present."
  MemArray a = Make2D("A", {{7, 7, 1.0}});
  EXPECT_TRUE(Exists(a, {7, 7}));
  EXPECT_FALSE(Exists(a, {7, 8}));
}

// =========================== Reshape ===========================

TEST_F(ExecTest, ReshapePaperExample) {
  // "if G is a 2x3x4 array with dimensions X, Y and Z, we can get an 8x3
  //  array as Reshape(G, [X, Z, Y], [U = 1:8, V = 1:3])"
  ArraySchema gs("G", {{"X", 1, 2, 2}, {"Y", 1, 3, 3}, {"Z", 1, 4, 4}},
                 {{"v", DataType::kDouble, true, false}});
  MemArray g(gs);
  // Fill with v = linear index under (X slowest, Z, Y fastest) order.
  int64_t n = 0;
  for (int64_t x = 1; x <= 2; ++x) {
    for (int64_t z = 1; z <= 4; ++z) {
      for (int64_t y = 1; y <= 3; ++y) {
        ASSERT_TRUE(g.SetCell({x, y, z}, Value(static_cast<double>(n++)))
                        .ok());
      }
    }
  }
  MemArray r = Reshape(ctx_, g, {"X", "Z", "Y"},
                       {{"U", 1, 8, 8}, {"V", 1, 3, 3}})
                   .ValueOrDie();
  EXPECT_EQ(r.schema().ndims(), 2u);
  EXPECT_EQ(r.CellCount(), 24);
  // The linearized sequence folds into 8 rows of 3: cell (u, v) holds
  // 3*(u-1) + (v-1).
  for (int64_t u = 1; u <= 8; ++u) {
    for (int64_t v = 1; v <= 3; ++v) {
      auto cell = r.GetCell({u, v});
      ASSERT_TRUE(cell.has_value());
      EXPECT_EQ((*cell)[0].double_value(),
                static_cast<double>(3 * (u - 1) + (v - 1)));
    }
  }
}

TEST_F(ExecTest, ReshapeTo1D) {
  // "or a 1-dimensional array of length 24"
  ArraySchema gs("G", {{"X", 1, 2, 2}, {"Y", 1, 3, 3}, {"Z", 1, 4, 4}},
                 {{"v", DataType::kDouble, true, false}});
  MemArray g(gs);
  for (int64_t x = 1; x <= 2; ++x) {
    for (int64_t y = 1; y <= 3; ++y) {
      for (int64_t z = 1; z <= 4; ++z) {
        ASSERT_TRUE(g.SetCell({x, y, z}, Value(1.0)).ok());
      }
    }
  }
  MemArray r =
      Reshape(ctx_, g, {"X", "Y", "Z"}, {{"L", 1, 24, 24}}).ValueOrDie();
  EXPECT_EQ(r.schema().ndims(), 1u);
  EXPECT_EQ(r.CellCount(), 24);
}

TEST_F(ExecTest, ReshapeRejectsCountMismatch) {
  ArraySchema gs("G", {{"X", 1, 2, 2}, {"Y", 1, 3, 3}},
                 {{"v", DataType::kDouble, true, false}});
  MemArray g(gs);
  EXPECT_TRUE(Reshape(ctx_, g, {"X", "Y"}, {{"U", 1, 5, 5}})
                  .status()
                  .IsInvalid());
  EXPECT_TRUE(Reshape(ctx_, g, {"X", "X"}, {{"U", 1, 6, 6}})
                  .status()
                  .IsInvalid());
  EXPECT_TRUE(Reshape(ctx_, g, {"X"}, {{"U", 1, 6, 6}}).status().IsInvalid());
}

// =========================== Sjoin extras ===========================

TEST_F(ExecTest, SjoinHigherDimensional) {
  // 2-D join 1-D on one dim: result is (2 + 1 - 1) = 2-D.
  MemArray a = Make2D("A", {{1, 1, 10.0}, {2, 2, 20.0}});
  MemArray b = Make1D("B", "w", {{1, 0.5}, {2, 0.25}});
  MemArray r = Sjoin(ctx_, a, b, {{"X", "x"}}).ValueOrDie();
  EXPECT_EQ(r.schema().ndims(), 2u);
  EXPECT_EQ(r.CellCount(), 2);
  auto cell = r.GetCell({2, 2});
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ((*cell)[0].double_value(), 20.0);
  EXPECT_EQ((*cell)[1].double_value(), 0.25);
}

TEST_F(ExecTest, SjoinNoMatches) {
  MemArray a = Make1D("A", "v1", {{1, 1.0}});
  MemArray b = Make1D("B", "v2", {{2, 2.0}});
  MemArray r = Sjoin(ctx_, a, b, {{"x", "x"}}).ValueOrDie();
  EXPECT_EQ(r.CellCount(), 0);
}

TEST_F(ExecTest, SjoinValidation) {
  MemArray a = Make1D("A", "v1", {{1, 1.0}});
  MemArray b = Make1D("B", "v2", {{1, 2.0}});
  EXPECT_TRUE(Sjoin(ctx_, a, b, {}).status().IsInvalid());
  EXPECT_TRUE(Sjoin(ctx_, a, b, {{"nope", "x"}}).status().IsNotFound());
  EXPECT_TRUE(
      Sjoin(ctx_, a, b, {{"x", "x"}, {"x", "x"}}).status().IsInvalid());
}

// ================== add/remove dimension, concat, cross ==================

TEST_F(ExecTest, AddAndRemoveDimensionRoundTrip) {
  MemArray a = Make1D("A", "v", {{3, 3.0}, {5, 5.0}});
  MemArray up = AddDimension(ctx_, a, "k").ValueOrDie();
  EXPECT_EQ(up.schema().ndims(), 2u);
  EXPECT_TRUE(up.Exists({3, 1}));
  MemArray down = RemoveDimension(ctx_, up, "k").ValueOrDie();
  EXPECT_EQ(down.schema().ndims(), 1u);
  EXPECT_EQ((*down.GetCell({5}))[0].double_value(), 5.0);
}

TEST_F(ExecTest, RemoveDimensionDetectsCollisions) {
  MemArray a = Make2D("A", {{1, 1, 1.0}, {1, 2, 2.0}});
  EXPECT_TRUE(RemoveDimension(ctx_, a, "Y").status().IsInvalid());
}

TEST_F(ExecTest, ConcatShiftsSecondArray) {
  ArraySchema s("A", {{"x", 1, 4, 4}}, {{"v", DataType::kDouble, true,
                                         false}});
  MemArray a(s), b(s);
  ASSERT_TRUE(a.SetCell({1}, Value(1.0)).ok());
  ASSERT_TRUE(b.SetCell({1}, Value(10.0)).ok());
  ASSERT_TRUE(b.SetCell({4}, Value(40.0)).ok());
  MemArray r = Concat(ctx_, a, b, "x").ValueOrDie();
  EXPECT_EQ(r.schema().dim(0).high, 8);
  EXPECT_EQ((*r.GetCell({1}))[0].double_value(), 1.0);
  EXPECT_EQ((*r.GetCell({5}))[0].double_value(), 10.0);  // shifted by 4
  EXPECT_EQ((*r.GetCell({8}))[0].double_value(), 40.0);
}

TEST_F(ExecTest, ConcatRequiresMatchingSchemas) {
  MemArray a = Make1D("A", "v", {{1, 1.0}});
  MemArray b = Make1D("B", "w", {{1, 1.0}});  // different attr name
  EXPECT_TRUE(Concat(ctx_, a, b, "x").status().IsInvalid());
}

TEST_F(ExecTest, CrossProduct) {
  MemArray a = Make1D("A", "u", {{1, 1.0}, {2, 2.0}});
  MemArray b = Make1D("B", "w", {{1, 10.0}, {3, 30.0}});
  MemArray r = CrossProduct(ctx_, a, b).ValueOrDie();
  EXPECT_EQ(r.schema().ndims(), 2u);
  EXPECT_EQ(r.CellCount(), 4);
  auto cell = r.GetCell({2, 3});
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ((*cell)[0].double_value(), 2.0);
  EXPECT_EQ((*cell)[1].double_value(), 30.0);
}

// =========================== Filter ===========================

TEST_F(ExecTest, FilterKeepsDimensionsNullsNonMatching) {
  MemArray a = Make1D("A", "v", {{1, 5.0}, {2, 15.0}, {3, 25.0}});
  MemArray r = Filter(ctx_, a, Gt(Ref("v"), Lit(10.0))).ValueOrDie();
  // Same dimensions, all cells still present.
  EXPECT_EQ(r.CellCount(), 3);
  EXPECT_TRUE((*r.GetCell({1}))[0].is_null());
  EXPECT_EQ((*r.GetCell({2}))[0].double_value(), 15.0);
  EXPECT_EQ((*r.GetCell({3}))[0].double_value(), 25.0);
}

TEST_F(ExecTest, FilterWithUdfPredicate) {
  MemArray a = Make2D("A", {{1, 2, 1.0}, {2, 2, 2.0}, {4, 2, 4.0}});
  // Filter may mix dims and attrs in its predicate.
  MemArray r = Filter(ctx_, a, And(Call("even", {Ref("X")}),
                                   Gt(Ref("v"), Lit(1.5))))
                   .ValueOrDie();
  EXPECT_FALSE((*r.GetCell({2, 2}))[0].is_null());
  EXPECT_TRUE((*r.GetCell({1, 2}))[0].is_null());
  EXPECT_FALSE((*r.GetCell({4, 2}))[0].is_null());
}

// =========================== Aggregate extras ===========================

TEST_F(ExecTest, GrandAggregate) {
  MemArray a = Make2D("A", {{1, 1, 1.0}, {2, 2, 2.0}, {3, 3, 3.0}});
  MemArray r = Aggregate(ctx_, a, {}, "sum", "*").ValueOrDie();
  EXPECT_EQ(r.CellCount(), 1);
  EXPECT_EQ((*r.GetCell({1}))[0].double_value(), 6.0);
}

TEST_F(ExecTest, AggregateCountAndAvg) {
  MemArray a = Make2D("A", {{1, 1, 2.0}, {1, 2, 4.0}, {2, 1, 6.0}});
  MemArray cnt = Aggregate(ctx_, a, {"X"}, "count", "*").ValueOrDie();
  EXPECT_EQ((*cnt.GetCell({1}))[0].int64_value(), 2);
  EXPECT_EQ((*cnt.GetCell({2}))[0].int64_value(), 1);
  MemArray avg = Aggregate(ctx_, a, {"X"}, "avg", "*").ValueOrDie();
  EXPECT_EQ((*avg.GetCell({1}))[0].double_value(), 3.0);
}

TEST_F(ExecTest, AggregateRejectsAttrGrouping) {
  // "data attributes cannot be used for grouping" (paper).
  MemArray a = Make2D("A", {{1, 1, 1.0}});
  EXPECT_TRUE(
      Aggregate(ctx_, a, {"v"}, "sum", "*").status().IsNotFound());
}

TEST_F(ExecTest, AggregateUnknownAggregate) {
  MemArray a = Make2D("A", {{1, 1, 1.0}});
  EXPECT_TRUE(
      Aggregate(ctx_, a, {"X"}, "median99", "*").status().IsNotFound());
}

// =========================== Apply / Project ===========================

TEST_F(ExecTest, ApplyComputesNewAttribute) {
  MemArray a = Make1D("A", "v", {{1, 3.0}, {2, 4.0}});
  MemArray r = Apply(ctx_, a, "v2", DataType::kDouble,
                     Mul(Ref("v"), Ref("v")))
                   .ValueOrDie();
  EXPECT_EQ(r.schema().nattrs(), 2u);
  EXPECT_EQ((*r.GetCell({2}))[1].double_value(), 16.0);
}

TEST_F(ExecTest, ApplyCanUseDimensions) {
  MemArray a = Make2D("A", {{2, 3, 0.0}});
  MemArray r = Apply(ctx_, a, "xy", DataType::kInt64,
                     Mul(Ref("X"), Ref("Y")))
                   .ValueOrDie();
  EXPECT_EQ((*r.GetCell({2, 3}))[1].int64_value(), 6);
}

TEST_F(ExecTest, ProjectSelectsAndReorders) {
  ArraySchema s("A", {{"x", 1, 4, 4}},
                {{"p", DataType::kDouble, true, false},
                 {"q", DataType::kDouble, true, false},
                 {"r", DataType::kDouble, true, false}});
  MemArray a(s);
  ASSERT_TRUE(a.SetCell({1}, {Value(1.0), Value(2.0), Value(3.0)}).ok());
  MemArray out = Project(ctx_, a, {"r", "p"}).ValueOrDie();
  EXPECT_EQ(out.schema().nattrs(), 2u);
  EXPECT_EQ(out.schema().attr(0).name, "r");
  EXPECT_EQ((*out.GetCell({1}))[0].double_value(), 3.0);
  EXPECT_EQ((*out.GetCell({1}))[1].double_value(), 1.0);
  EXPECT_TRUE(Project(ctx_, a, {}).status().IsInvalid());
  EXPECT_TRUE(Project(ctx_, a, {"zz"}).status().IsNotFound());
}

// =========================== Regrid ===========================

TEST_F(ExecTest, RegridCoarsensByFactors) {
  // 4x4 -> 2x2 with sum: each output cell is the sum of a 2x2 block.
  MemArray a = Make2D("A", {}, 4, 4);
  for (int64_t i = 1; i <= 4; ++i) {
    for (int64_t j = 1; j <= 4; ++j) {
      ASSERT_TRUE(a.SetCell({i, j}, Value(1.0)).ok());
    }
  }
  MemArray r = Regrid(ctx_, a, {2, 2}, "sum", "*").ValueOrDie();
  EXPECT_EQ(r.CellCount(), 4);
  EXPECT_EQ(r.schema().dim(0).high, 2);
  for (int64_t i = 1; i <= 2; ++i) {
    for (int64_t j = 1; j <= 2; ++j) {
      EXPECT_EQ((*r.GetCell({i, j}))[0].double_value(), 4.0);
    }
  }
}

TEST_F(ExecTest, RegridValidation) {
  MemArray a = Make2D("A", {{1, 1, 1.0}});
  EXPECT_TRUE(Regrid(ctx_, a, {2}, "sum", "*").status().IsInvalid());
  EXPECT_TRUE(Regrid(ctx_, a, {0, 2}, "sum", "*").status().IsInvalid());
}

// =========================== expressions ===========================

TEST_F(ExecTest, ExpressionArithmeticAndNulls) {
  EvalContext ectx;
  ectx.functions = &fns_;
  EXPECT_EQ(Add(Lit(int64_t{2}), Lit(int64_t{3}))->Eval(ectx)
                .ValueOrDie()
                .int64_value(),
            5);
  EXPECT_EQ(Div(Lit(7.0), Lit(2.0))->Eval(ectx).ValueOrDie().double_value(),
            3.5);
  // Integer division truncates; div by zero -> NULL.
  EXPECT_EQ(Div(Lit(int64_t{7}), Lit(int64_t{2}))->Eval(ectx)
                .ValueOrDie()
                .int64_value(),
            3);
  EXPECT_TRUE(
      Div(Lit(1.0), Lit(0.0))->Eval(ectx).ValueOrDie().is_null());
  // NULL propagates through arithmetic and comparisons.
  EXPECT_TRUE(Add(Lit(Value()), Lit(1.0))->Eval(ectx).ValueOrDie().is_null());
  EXPECT_TRUE(Eq(Lit(Value()), Lit(1.0))->Eval(ectx).ValueOrDie().is_null());
}

// Both evaluators share one set of int64 rules: + - * wrap, x / -1 is
// the wrapped negation and x % -1 is 0. INT64_MIN / -1 and % -1 used to
// trap (SIGFPE) in Expr::Eval, through Filter, Apply and Cjoin alike.
TEST_F(ExecTest, Int64ArithmeticWrapsInBothEvaluators) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  EvalContext ectx;
  auto eval = [&](const ExprPtr& e) {
    return e->Eval(ectx).ValueOrDie().int64_value();
  };
  EXPECT_EQ(eval(Div(Lit(kMin), Lit(int64_t{-1}))), kMin);
  EXPECT_EQ(eval(Mod(Lit(kMin), Lit(int64_t{-1}))), 0);
  EXPECT_EQ(eval(Add(Lit(kMax), Lit(int64_t{1}))), kMin);
  EXPECT_EQ(eval(Sub(Lit(kMin), Lit(int64_t{1}))), kMax);
  EXPECT_EQ(eval(Mul(Lit(kMax), Lit(int64_t{2}))), -2);
  EXPECT_EQ(eval(Div(Lit(int64_t{7}), Lit(int64_t{-1}))), -7);

  MemArray a(ArraySchema("A", {{"x", 1, 2, 2}},
                         {{"v", DataType::kInt64, true, false},
                          {"s", DataType::kString, true, false}}));
  ASSERT_TRUE(a.SetCell({1}, {Value(kMin), Value(std::string("x"))}).ok());
  ASSERT_TRUE(a.SetCell({2}, {Value(int64_t{-5}), Value(std::string("y"))})
                  .ok());
  // Each predicate runs as typed kernels, then (and'ed with a string
  // comparison) through the untyped fallback.
  const ExprPtr is_x = Eq(Ref("s"), Lit(Value(std::string("x"))));
  const ExprPtr negative =
      Lt(Div(Ref("v"), Lit(int64_t{-1})), Lit(int64_t{0}));
  for (const ExprPtr& pred : {negative, And(negative, is_x)}) {
    MemArray f = Filter(ctx_, a, pred).ValueOrDie();
    EXPECT_EQ((*f.GetCell({1}))[0].int64_value(), kMin) << pred->ToString();
    EXPECT_TRUE((*f.GetCell({2}))[0].is_null()) << pred->ToString();
  }
  MemArray m = Apply(ctx_, a, "m", DataType::kInt64,
                     Mod(Ref("v"), Lit(int64_t{-1})))
                   .ValueOrDie();
  EXPECT_EQ((*m.GetCell({1}))[2].int64_value(), 0);

  MemArray b(ArraySchema("B", {{"y", 1, 1, 1}},
                         {{"w", DataType::kInt64, true, false}}));
  ASSERT_TRUE(b.SetCell({1}, Value(int64_t{-1})).ok());
  const ExprPtr joined =
      Lt(Div(Ref("v", 0), Ref("w", 1)), Lit(int64_t{0}));
  for (const ExprPtr& pred : {joined, And(joined, is_x)}) {
    MemArray cj = Cjoin(ctx_, a, b, pred).ValueOrDie();
    EXPECT_EQ((*cj.GetCell({1, 1}))[0].int64_value(), kMin)
        << pred->ToString();
    EXPECT_TRUE((*cj.GetCell({2, 1}))[0].is_null()) << pred->ToString();
  }
}

TEST_F(ExecTest, ExpressionThreeValuedLogic) {
  EvalContext ectx;
  // false AND NULL = false; true OR NULL = true; true AND NULL = NULL.
  EXPECT_FALSE(And(Lit(Value(false)), Lit(Value()))->Eval(ectx)
                   .ValueOrDie()
                   .bool_value());
  EXPECT_TRUE(Or(Lit(Value(true)), Lit(Value()))->Eval(ectx)
                  .ValueOrDie()
                  .bool_value());
  EXPECT_TRUE(And(Lit(Value(true)), Lit(Value()))->Eval(ectx)
                  .ValueOrDie()
                  .is_null());
  EXPECT_FALSE(Not(Lit(Value(true)))->Eval(ectx).ValueOrDie().bool_value());
}

TEST_F(ExecTest, ExpressionUncertainPropagation) {
  EvalContext ectx;
  Value a(Uncertain(10.0, 3.0));
  Value b(Uncertain(20.0, 4.0));
  Value sum = Add(Lit(a), Lit(b))->Eval(ectx).ValueOrDie();
  EXPECT_EQ(sum.uncertain_value().mean, 30.0);
  EXPECT_DOUBLE_EQ(sum.uncertain_value().stderr_, 5.0);  // 3-4-5
}

TEST_F(ExecTest, ExtractDimBoundsTightensAndFlagsExact) {
  ArraySchema s("F", {{"X", 1, 100, 10}, {"Y", 1, 100, 10}},
                {{"v", DataType::kDouble, true, false}});
  Box domain({1, 1}, {100, 100});
  bool exact = false;
  ExprPtr boxpred = And(Eq(Ref("X"), Lit(int64_t{3})),
                        Lt(Ref("Y"), Lit(int64_t{4})));
  auto b = ExtractDimBounds(*boxpred, s, domain, &exact);
  EXPECT_TRUE(exact);
  EXPECT_EQ(b[0], (DimBounds{3, 3}));
  EXPECT_EQ(b[1], (DimBounds{1, 3}));

  // even(X) cannot be captured: full domain, not exact.
  auto b2 = ExtractDimBounds(*Call("even", {Ref("X")}), s, domain, &exact);
  EXPECT_FALSE(exact);
  EXPECT_EQ(b2[0], (DimBounds{1, 100}));

  // Literal-on-left comparisons normalize: 10 <= X means X >= 10.
  auto b3 = ExtractDimBounds(*Le(Lit(int64_t{10}), Ref("X")), s, domain,
                             &exact);
  EXPECT_TRUE(exact);
  EXPECT_EQ(b3[0], (DimBounds{10, 100}));
}

}  // namespace
}  // namespace scidb
