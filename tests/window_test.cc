#include <gtest/gtest.h>

#include <limits>

#include "exec/operators.h"
#include "query/session.h"

namespace scidb {
namespace {

class WindowTest : public ::testing::Test {
 protected:
  WindowTest() {
    ctx_.functions = &fns_;
    ctx_.aggregates = &aggs_;
  }
  FunctionRegistry fns_;
  AggregateRegistry aggs_;
  ExecContext ctx_;
};

TEST_F(WindowTest, MovingAverage1D) {
  ArraySchema s("ts", {{"t", 1, 10, 4}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(a.SetCell({t}, Value(static_cast<double>(t))).ok());
  }
  MemArray r = WindowAggregate(ctx_, a, {1}, "avg", "v").ValueOrDie();
  EXPECT_EQ(r.CellCount(), 10);
  // Interior: avg(t-1, t, t+1) = t.
  EXPECT_EQ((*r.GetCell({5}))[0].double_value(), 5.0);
  // Boundary clips: avg(1, 2) = 1.5.
  EXPECT_EQ((*r.GetCell({1}))[0].double_value(), 1.5);
  EXPECT_EQ((*r.GetCell({10}))[0].double_value(), 9.5);
}

TEST_F(WindowTest, TwoDimensionalSum) {
  ArraySchema s("img", {{"x", 1, 4, 4}, {"y", 1, 4, 4}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t x = 1; x <= 4; ++x) {
    for (int64_t y = 1; y <= 4; ++y) {
      ASSERT_TRUE(a.SetCell({x, y}, Value(1.0)).ok());
    }
  }
  MemArray r = WindowAggregate(ctx_, a, {1, 1}, "sum", "v").ValueOrDie();
  EXPECT_EQ((*r.GetCell({2, 2}))[0].double_value(), 9.0);  // full 3x3
  EXPECT_EQ((*r.GetCell({1, 1}))[0].double_value(), 4.0);  // corner 2x2
  EXPECT_EQ((*r.GetCell({1, 2}))[0].double_value(), 6.0);  // edge 2x3
}

TEST_F(WindowTest, SparseCellsOnlyAggregatePresent) {
  ArraySchema s("sp", {{"t", 1, 100, 10}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  ASSERT_TRUE(a.SetCell({10}, Value(1.0)).ok());
  ASSERT_TRUE(a.SetCell({12}, Value(3.0)).ok());
  ASSERT_TRUE(a.SetCell({50}, Value(7.0)).ok());
  MemArray r = WindowAggregate(ctx_, a, {2}, "sum", "v").ValueOrDie();
  // Output exists only at present cells; windows see present cells only.
  EXPECT_EQ(r.CellCount(), 3);
  EXPECT_EQ((*r.GetCell({10}))[0].double_value(), 4.0);  // 10 + 12
  EXPECT_EQ((*r.GetCell({50}))[0].double_value(), 7.0);  // alone
}

TEST_F(WindowTest, ZeroRadiusIsIdentityAggregate) {
  ArraySchema s("ts", {{"t", 1, 5, 5}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(a.SetCell({t}, Value(t * 2.0)).ok());
  }
  MemArray r = WindowAggregate(ctx_, a, {0}, "max", "v").ValueOrDie();
  EXPECT_EQ((*r.GetCell({3}))[0].double_value(), 6.0);
}

// A radius past the array's extent covers the whole array, however
// large, along bounded and unbounded dimensions alike.
TEST_F(WindowTest, HugeRadiusCoversTheWholeArray) {
  for (int64_t high : {int64_t{10}, kUnboundedDim}) {
    ArraySchema s("ts", {{"t", 1, high, 4}},
                  {{"v", DataType::kInt64, true, false}});
    MemArray a(s);
    for (int64_t t = 1; t <= 10; ++t) {
      ASSERT_TRUE(a.SetCell({t}, Value(t)).ok());
    }
    for (int64_t r : {int64_t{9}, int64_t{1} << 40,
                      std::numeric_limits<int64_t>::max()}) {
      MemArray w = WindowAggregate(ctx_, a, {r}, "sum", "v").ValueOrDie();
      ASSERT_EQ(w.CellCount(), 10);
      for (int64_t t = 1; t <= 10; ++t) {
        EXPECT_EQ((*w.GetCell({t}))[0].double_value(), 55.0)
            << "radius " << r << " t " << t;
      }
    }
  }
}

// Two chunks 2^32 apart along both dimensions under radii that reach
// across: the result folds the present cells only, and nothing is sized
// by the 2^32 x 2^32 box between them.
TEST_F(WindowTest, FarApartChunksWithHugeRadius) {
  constexpr int64_t kFar = int64_t{1} << 32;
  ArraySchema s("sky", {{"x", 0, kUnboundedDim, 4}, {"y", 0, kUnboundedDim, 4}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  ASSERT_TRUE(a.SetCell({1, 1}, Value(1.0)).ok());
  ASSERT_TRUE(a.SetCell({2, 1}, Value(2.0)).ok());
  ASSERT_TRUE(a.SetCell({kFar, kFar}, Value(10.0)).ok());
  ASSERT_TRUE(a.SetCell({kFar, kFar + 3}, Value(20.0)).ok());
  struct Want {
    int64_t radius;
    double sums[4];  // at the cells in the order set above
  };
  for (const Want& want :
       {Want{0, {1, 2, 10, 20}}, Want{kFar - 1, {13, 13, 33, 30}},
        Want{std::numeric_limits<int64_t>::max(), {33, 33, 33, 33}}}) {
    const MemArray w =
        WindowAggregate(ctx_, a, {want.radius, want.radius}, "sum", "v")
            .ValueOrDie();
    ASSERT_EQ(w.CellCount(), 4);
    const Coordinates at[] = {{1, 1}, {2, 1}, {kFar, kFar}, {kFar, kFar + 3}};
    for (size_t k = 0; k < 4; ++k) {
      EXPECT_EQ((*w.GetCell(at[k]))[0].double_value(), want.sums[k])
          << "radius " << want.radius << " cell " << k;
    }
  }
}

TEST_F(WindowTest, Validation) {
  ArraySchema s("ts", {{"t", 1, 5, 5}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  EXPECT_TRUE(
      WindowAggregate(ctx_, a, {1, 1}, "avg", "v").status().IsInvalid());
  EXPECT_TRUE(
      WindowAggregate(ctx_, a, {-1}, "avg", "v").status().IsInvalid());
  EXPECT_TRUE(
      WindowAggregate(ctx_, a, {1}, "nope", "v").status().IsNotFound());
  EXPECT_TRUE(
      WindowAggregate(ctx_, a, {1}, "avg", "zz").status().IsNotFound());
}

TEST_F(WindowTest, AvailableThroughAqlAndBinding) {
  Session session;
  ASSERT_TRUE(session.Execute("define T (v = double) (t)").ok());
  ASSERT_TRUE(session.Execute("create S as T [6]").ok());
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(session
                    .Execute("insert S [" + std::to_string(t) +
                             "] values (" + std::to_string(t) + ".0)")
                    .ok());
  }
  auto text =
      session.Execute("select Window(S, [1], avg(v))").ValueOrDie();
  EXPECT_EQ((*text.array->GetCell({3}))[0].double_value(), 3.0);

  using namespace binding;
  MemArray bound =
      session.Eval(Window(Array("S"), {1}, "avg", "v")).ValueOrDie();
  EXPECT_EQ((*bound.GetCell({3}))[0].double_value(), 3.0);
}

}  // namespace
}  // namespace scidb
