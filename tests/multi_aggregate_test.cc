// One-pass multi-aggregates: Aggregate(A, {G}, sum(a), avg(b), ...).
#include <gtest/gtest.h>

#include "exec/operators.h"
#include "query/session.h"

namespace scidb {
namespace {

class MultiAggregateTest : public ::testing::Test {
 protected:
  MultiAggregateTest() {
    ctx_.functions = &fns_;
    ctx_.aggregates = &aggs_;
    ArraySchema s("m", {{"g", 1, 3, 3}, {"i", 1, 4, 4}},
                  {{"a", DataType::kDouble, true, false},
                   {"b", DataType::kDouble, true, false}});
    arr_ = MemArray(s);
    for (int64_t g = 1; g <= 3; ++g) {
      for (int64_t i = 1; i <= 4; ++i) {
        SCIDB_CHECK(arr_.SetCell({g, i},
                                 {Value(static_cast<double>(g * i)),
                                  Value(static_cast<double>(10 * g + i))})
                        .ok());
      }
    }
  }
  FunctionRegistry fns_;
  AggregateRegistry aggs_;
  ExecContext ctx_;
  MemArray arr_;
};

TEST_F(MultiAggregateTest, OnePassMatchesSeparatePasses) {
  MemArray multi =
      AggregateMulti(ctx_, arr_, {"g"},
                     {{"sum", "a"}, {"avg", "b"}, {"count", "a"}})
          .ValueOrDie();
  EXPECT_EQ(multi.schema().nattrs(), 3u);
  EXPECT_EQ(multi.schema().attr(0).name, "sum_a");
  EXPECT_EQ(multi.schema().attr(1).name, "avg_b");
  EXPECT_EQ(multi.schema().attr(2).name, "count_a");

  MemArray sum = Aggregate(ctx_, arr_, {"g"}, "sum", "a").ValueOrDie();
  MemArray avg = Aggregate(ctx_, arr_, {"g"}, "avg", "b").ValueOrDie();
  for (int64_t g = 1; g <= 3; ++g) {
    auto row = *multi.GetCell({g});
    EXPECT_EQ(row[0].double_value(), (*sum.GetCell({g}))[0].double_value());
    EXPECT_EQ(row[1].double_value(), (*avg.GetCell({g}))[0].double_value());
    EXPECT_EQ(row[2].int64_value(), 4);
  }
}

TEST_F(MultiAggregateTest, GrandMultiAggregateOnEmpty) {
  MemArray empty(arr_.schema());
  MemArray r = AggregateMulti(ctx_, empty, {},
                              {{"sum", "a"}, {"count", "b"}})
                   .ValueOrDie();
  EXPECT_EQ(r.CellCount(), 1);
  EXPECT_TRUE((*r.GetCell({1}))[0].is_null());
  EXPECT_EQ((*r.GetCell({1}))[1].int64_value(), 0);
}

TEST_F(MultiAggregateTest, DuplicateOutputNamesDisambiguated) {
  MemArray r = AggregateMulti(ctx_, arr_, {"g"},
                              {{"sum", "a"}, {"sum", "a"}})
                   .ValueOrDie();
  EXPECT_EQ(r.schema().attr(0).name, "sum_a");
  EXPECT_EQ(r.schema().attr(1).name, "sum_a_2");
}

TEST_F(MultiAggregateTest, Validation) {
  EXPECT_TRUE(AggregateMulti(ctx_, arr_, {"g"}, {}).status().IsInvalid());
  EXPECT_TRUE(AggregateMulti(ctx_, arr_, {"g"}, {{"nope", "a"}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(AggregateMulti(ctx_, arr_, {"g"}, {{"sum", "zz"}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(AggregateMulti(ctx_, arr_, {"g", "g"}, {{"sum", "a"}})
                  .status()
                  .IsInvalid());
}

TEST_F(MultiAggregateTest, AvailableThroughAql) {
  Session session;
  ASSERT_TRUE(
      session.Execute("define T (a = double, b = double) (g, i)").ok());
  ASSERT_TRUE(session.Execute("create M as T [2, 3]").ok());
  for (int64_t g = 1; g <= 2; ++g) {
    for (int64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(session
                      .Execute("insert M [" + std::to_string(g) + ", " +
                               std::to_string(i) + "] values (" +
                               std::to_string(g) + ".0, " +
                               std::to_string(i) + ".0)")
                      .ok());
    }
  }
  auto r = session
               .Execute("select Aggregate(M, {g}, sum(a), max(b), "
                        "count(a))")
               .ValueOrDie();
  EXPECT_EQ(r.array->schema().nattrs(), 3u);
  auto row = *r.array->GetCell({2});
  EXPECT_EQ(row[0].double_value(), 6.0);  // sum of a=2 three times
  EXPECT_EQ(row[1].double_value(), 3.0);  // max of b
  EXPECT_EQ(row[2].int64_value(), 3);
}

// min/max return one of their inputs, so they keep the input's type: a
// string stays a string and an int64 above 2^53 stays exact (as a
// double both were lost: strings read 0, 2^53 + 1 rounded down).
TEST_F(MultiAggregateTest, MinMaxKeepTheInputType) {
  ArraySchema s("A", {{"x", 1, 4, 4}},
                {{"name", DataType::kString, true, false},
                 {"n", DataType::kInt64, true, false}});
  MemArray a(s);
  const int64_t big = 9007199254740993;  // 2^53 + 1
  ASSERT_TRUE(a.SetCell({1}, {Value(std::string("kappa")), Value(big)}).ok());
  ASSERT_TRUE(a.SetCell({2}, {Value(std::string("alpha")), Value(int64_t{7})})
                  .ok());
  ASSERT_TRUE(a.SetCell({3}, {Value(std::string("omega")), Value(int64_t{-2})})
                  .ok());

  MemArray lo = Aggregate(ctx_, a, {}, "min", "name").ValueOrDie();
  EXPECT_EQ(lo.schema().attr(0).type, DataType::kString);
  EXPECT_EQ((*lo.GetCell({1}))[0].string_value(), "alpha");
  MemArray hi = Aggregate(ctx_, a, {}, "max", "n").ValueOrDie();
  EXPECT_EQ((*hi.GetCell({1}))[0].int64_value(), big);

  MemArray both = AggregateMulti(ctx_, a, {}, {{"max", "name"}, {"min", "n"}})
                      .ValueOrDie();
  EXPECT_EQ((*both.GetCell({1}))[0].string_value(), "omega");
  EXPECT_EQ((*both.GetCell({1}))[1].int64_value(), -2);

  MemArray win = WindowAggregate(ctx_, a, {1}, "min", "name").ValueOrDie();
  EXPECT_EQ((*win.GetCell({1}))[0].string_value(), "alpha");
  EXPECT_EQ((*win.GetCell({3}))[0].string_value(), "alpha");

  MemArray grid = Regrid(ctx_, a, {2}, "max", "name").ValueOrDie();
  EXPECT_EQ((*grid.GetCell({1}))[0].string_value(), "kappa");
  EXPECT_EQ((*grid.GetCell({2}))[0].string_value(), "omega");

  // Other aggregates still output double; a double input is unchanged.
  EXPECT_EQ(Aggregate(ctx_, a, {}, "avg", "n").ValueOrDie().schema().attr(0)
                .type,
            DataType::kDouble);
  EXPECT_EQ(Aggregate(ctx_, arr_, {}, "max", "a").ValueOrDie().schema()
                .attr(0)
                .type,
            DataType::kDouble);
}

}  // namespace
}  // namespace scidb
