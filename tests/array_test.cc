#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "array/chunk.h"
#include "array/coordinates.h"
#include "array/mem_array.h"
#include "array/schema.h"
#include "types/value.h"

namespace scidb {
namespace {

ArraySchema Remote2D(int64_t n = 1024, int64_t chunk = 64) {
  return ArraySchema(
      "My_remote",
      {{"I", 1, n, chunk}, {"J", 1, n, chunk}},
      {{"s1", DataType::kDouble, true, false},
       {"s2", DataType::kDouble, true, false},
       {"s3", DataType::kDouble, true, false}});
}

TEST(BoxTest, ContainsAndIntersects) {
  Box a({1, 1}, {10, 10});
  EXPECT_TRUE(a.Contains({1, 1}));
  EXPECT_TRUE(a.Contains({10, 10}));
  EXPECT_FALSE(a.Contains({0, 5}));
  EXPECT_FALSE(a.Contains({5, 11}));

  Box b({10, 10}, {20, 20});
  EXPECT_TRUE(a.Intersects(b));
  Box c({11, 1}, {20, 9});
  EXPECT_FALSE(a.Intersects(c));

  Box i = a.Intersect(b);
  EXPECT_EQ(i, Box({10, 10}, {10, 10}));
}

TEST(BoxTest, CellCountAndMargin) {
  Box b({1, 1, 1}, {2, 3, 4});
  EXPECT_EQ(b.CellCount(), 24);
  EXPECT_EQ(b.Margin(), 2 + 3 + 4);
}

TEST(BoxTest, ExpandToInclude) {
  Box b({5, 5}, {6, 6});
  b.ExpandToInclude(Box({1, 8}, {2, 9}));
  EXPECT_EQ(b, Box({1, 5}, {6, 9}));
}

TEST(CoordinatesTest, RankUnrankRoundTrip) {
  Box box({2, 3}, {5, 7});
  int64_t expected_rank = 0;
  Coordinates c = box.low;
  do {
    EXPECT_EQ(RankInBox(box, c), expected_rank);
    EXPECT_EQ(UnrankInBox(box, expected_rank), c);
    ++expected_rank;
  } while (NextInBox(box, &c));
  EXPECT_EQ(expected_rank, box.CellCount());
}

TEST(CoordinatesTest, RowMajorOrderLastDimFastest) {
  Box box({1, 1}, {2, 3});
  Coordinates c = box.low;
  std::vector<Coordinates> visited{c};
  while (NextInBox(box, &c)) visited.push_back(c);
  std::vector<Coordinates> expected = {{1, 1}, {1, 2}, {1, 3},
                                       {2, 1}, {2, 2}, {2, 3}};
  EXPECT_EQ(visited, expected);
}

TEST(SchemaTest, ValidateAcceptsPaperExample) {
  // "define Remote (s1 = float, s2 = float, s3 = float) (I, J)"
  ArraySchema s = Remote2D();
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_EQ(s.ndims(), 2u);
  EXPECT_EQ(s.nattrs(), 3u);
}

TEST(SchemaTest, ValidateRejectsBadShapes) {
  ArraySchema no_dims("x", {}, {{"v", DataType::kDouble, true, false}});
  EXPECT_TRUE(no_dims.Validate().IsInvalid());

  ArraySchema no_attrs("x", {{"I", 1, 10, 4}}, {});
  EXPECT_TRUE(no_attrs.Validate().IsInvalid());

  ArraySchema dup("x", {{"I", 1, 10, 4}, {"I", 1, 10, 4}},
                  {{"v", DataType::kDouble, true, false}});
  EXPECT_TRUE(dup.Validate().IsInvalid());

  ArraySchema inverted("x", {{"I", 10, 1, 4}},
                       {{"v", DataType::kDouble, true, false}});
  EXPECT_TRUE(inverted.Validate().IsInvalid());

  ArraySchema bad_chunk("x", {{"I", 1, 10, 0}},
                        {{"v", DataType::kDouble, true, false}});
  EXPECT_TRUE(bad_chunk.Validate().IsInvalid());

  ArraySchema unc_str("x", {{"I", 1, 10, 4}},
                      {{"v", DataType::kString, true, true}});
  EXPECT_TRUE(unc_str.Validate().IsInvalid());
}

TEST(SchemaTest, UnboundedDimensions) {
  // "create My_remote_2 as Remote [*, *]"
  ArraySchema s("My_remote_2", {{"I", 1, kUnboundedDim, 64},
                                {"J", 1, kUnboundedDim, 64}},
                {{"s1", DataType::kFloat, true, false}});
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_TRUE(s.HasUnboundedDim());
  EXPECT_TRUE(s.Bounds().status().IsInvalid());
  EXPECT_TRUE(s.ContainsCoords({1000000, 999}));
  EXPECT_FALSE(s.ContainsCoords({0, 1}));  // below low bound
}

TEST(SchemaTest, NameLookup) {
  ArraySchema s = Remote2D();
  EXPECT_EQ(s.DimIndex("J").ValueOrDie(), 1u);
  EXPECT_EQ(s.AttrIndex("s3").ValueOrDie(), 2u);
  EXPECT_TRUE(s.DimIndex("K").status().IsNotFound());
  EXPECT_TRUE(s.AttrIndex("s9").status().IsNotFound());
}

TEST(SchemaTest, ToStringMentionsParts) {
  ArraySchema s = Remote2D(8, 4);
  std::string str = s.ToString();
  EXPECT_NE(str.find("My_remote"), std::string::npos);
  EXPECT_NE(str.find("s1"), std::string::npos);
  EXPECT_NE(str.find("I"), std::string::npos);
}

TEST(ChunkTest, CellsStartAbsent) {
  Chunk c(Box({1, 1}, {4, 4}), {{"v", DataType::kDouble, true, false}});
  EXPECT_EQ(c.present_count(), 0);
  EXPECT_EQ(c.density(), 0.0);
  EXPECT_FALSE(c.IsPresentAt({2, 2}));
}

TEST(ChunkTest, SetGetCell) {
  Chunk c(Box({1, 1}, {4, 4}), {{"v", DataType::kDouble, true, false},
                                {"w", DataType::kInt64, true, false}});
  c.SetCell({2, 3}, {Value(1.5), Value(int64_t{7})});
  EXPECT_TRUE(c.IsPresentAt({2, 3}));
  auto vals = c.GetCell({2, 3});
  EXPECT_EQ(vals[0].double_value(), 1.5);
  EXPECT_EQ(vals[1].int64_value(), 7);
  EXPECT_EQ(c.present_count(), 1);
}

TEST(ChunkTest, IteratorVisitsPresentOnly) {
  Chunk c(Box({1, 1}, {3, 3}), {{"v", DataType::kInt64, true, false}});
  c.SetCell({1, 2}, {Value(int64_t{12})});
  c.SetCell({3, 3}, {Value(int64_t{33})});
  std::vector<Coordinates> seen;
  for (Chunk::CellIterator it(c); it.valid(); it.Next()) {
    seen.push_back(it.coords());
  }
  EXPECT_EQ(seen, (std::vector<Coordinates>{{1, 2}, {3, 3}}));
}

TEST(ChunkTest, NullAttributeValues) {
  Chunk c(Box({1}, {4}), {{"a", DataType::kDouble, true, false},
                          {"b", DataType::kDouble, true, false}});
  c.SetCell({2}, {Value(5.0), Value::Null()});
  auto vals = c.GetCell({2});
  EXPECT_EQ(vals[0].double_value(), 5.0);
  EXPECT_TRUE(vals[1].is_null());
}

TEST(ChunkTest, StringAndBoolAttrs) {
  Chunk c(Box({1}, {3}), {{"s", DataType::kString, true, false},
                          {"b", DataType::kBool, true, false}});
  c.SetCell({1}, {Value(std::string("hi")), Value(true)});
  auto vals = c.GetCell({1});
  EXPECT_EQ(vals[0].string_value(), "hi");
  EXPECT_TRUE(vals[1].bool_value());
}

TEST(AttributeBlockTest, ConstantStderrCollapses) {
  AttributeBlock b(DataType::kDouble, /*uncertain=*/true, 1000);
  for (int64_t i = 0; i < 1000; ++i) {
    b.Set(i, Value(Uncertain(static_cast<double>(i), 0.5)));
  }
  // With a shared error bar the stderr column must not materialize;
  // space stays ~1 double (paper §2.13).
  EXPECT_TRUE(b.has_constant_stderr());
  EXPECT_EQ(b.Get(10).uncertain_value().stderr_, 0.5);

  AttributeBlock c(DataType::kDouble, true, 1000);
  c.Set(0, Value(Uncertain(1.0, 0.5)));
  c.Set(1, Value(Uncertain(2.0, 0.7)));
  EXPECT_FALSE(c.has_constant_stderr());
  EXPECT_GT(c.ByteSize(), b.ByteSize());
  EXPECT_EQ(c.Get(0).uncertain_value().stderr_, 0.5);
  EXPECT_EQ(c.Get(1).uncertain_value().stderr_, 0.7);
}

TEST(MemArrayTest, SetGetRoundTrip) {
  MemArray a(Remote2D(100, 10));
  ASSERT_TRUE(a.SetCell({7, 8}, {Value(1.0), Value(2.0), Value(3.0)}).ok());
  auto cell = a.GetCell({7, 8});
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ((*cell)[2].double_value(), 3.0);
  EXPECT_FALSE(a.GetCell({7, 9}).has_value());
  EXPECT_TRUE(a.Exists({7, 8}));
  EXPECT_FALSE(a.Exists({8, 7}));
}

TEST(MemArrayTest, BoundsChecked) {
  MemArray a(Remote2D(10, 4));
  EXPECT_TRUE(a.SetCell({0, 1}, {Value(1.0), Value(1.0), Value(1.0)})
                  .IsOutOfRange());
  EXPECT_TRUE(a.SetCell({1, 11}, {Value(1.0), Value(1.0), Value(1.0)})
                  .IsOutOfRange());
  EXPECT_TRUE(a.SetCell({1}, {Value(1.0), Value(1.0), Value(1.0)})
                  .IsInvalid());  // wrong arity
  EXPECT_TRUE(a.SetCell({1, 1}, {Value(1.0)}).IsInvalid());  // attr arity
}

TEST(MemArrayTest, ChunkGridAlignment) {
  MemArray a(Remote2D(100, 10));
  EXPECT_EQ(a.ChunkOriginFor({1, 1}), (Coordinates{1, 1}));
  EXPECT_EQ(a.ChunkOriginFor({10, 10}), (Coordinates{1, 1}));
  EXPECT_EQ(a.ChunkOriginFor({11, 10}), (Coordinates{11, 1}));
  EXPECT_EQ(a.ChunkOriginFor({100, 100}), (Coordinates{91, 91}));
  Box b = a.ChunkBoxFor({91, 91});
  EXPECT_EQ(b, Box({91, 91}, {100, 100}));
}

TEST(MemArrayTest, ChunkBoxClippedAtBounds) {
  MemArray a(Remote2D(15, 10));  // 15 not divisible by 10
  Box b = a.ChunkBoxFor({11, 11});
  EXPECT_EQ(b, Box({11, 11}, {15, 15}));
}

TEST(MemArrayTest, CellCountAcrossChunks) {
  MemArray a(Remote2D(100, 10));
  for (int64_t i = 1; i <= 100; i += 7) {
    ASSERT_TRUE(a.SetCell({i, i}, {Value(1.0), Value(1.0), Value(1.0)}).ok());
  }
  EXPECT_EQ(a.CellCount(), 15);
  EXPECT_GT(a.ChunkCount(), 1u);
}

TEST(MemArrayTest, DeleteCell) {
  MemArray a(Remote2D(10, 4));
  ASSERT_TRUE(a.SetCell({3, 3}, {Value(1.0), Value(1.0), Value(1.0)}).ok());
  EXPECT_TRUE(a.DeleteCell({3, 3}).ok());
  EXPECT_FALSE(a.Exists({3, 3}));
  EXPECT_TRUE(a.DeleteCell({3, 3}).IsNotFound());
}

TEST(MemArrayTest, HighWaterMark) {
  ArraySchema s("u", {{"T", 1, kUnboundedDim, 8}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  EXPECT_TRUE(a.HighWaterMark().status().IsNotFound());
  ASSERT_TRUE(a.SetCell({5}, Value(1.0)).ok());
  ASSERT_TRUE(a.SetCell({90}, Value(2.0)).ok());
  Box hwm = a.HighWaterMark().ValueOrDie();
  EXPECT_EQ(hwm, Box({5}, {90}));
}

TEST(MemArrayTest, ForEachCellVisitsAll) {
  MemArray a(Remote2D(20, 5));
  int64_t inserted = 0;
  for (int64_t i = 1; i <= 20; i += 3) {
    for (int64_t j = 1; j <= 20; j += 5) {
      ASSERT_TRUE(
          a.SetCell({i, j}, {Value(1.0), Value(2.0), Value(3.0)}).ok());
      ++inserted;
    }
  }
  int64_t visited = 0;
  a.ForEachCell([&](const Coordinates&, const Chunk&, int64_t) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, inserted);
}

TEST(ValueTest, NullSemantics) {
  Value null;
  EXPECT_TRUE(null.is_null());
  EXPECT_FALSE(null.EqualsForJoin(null));  // NULL never joins
  EXPECT_TRUE(null.AsDouble().status().IsTypeMismatch());
}

TEST(ValueTest, NumericCoercions) {
  EXPECT_EQ(Value(int64_t{3}).AsDouble().ValueOrDie(), 3.0);
  EXPECT_EQ(Value(3.7).AsInt64().ValueOrDie(), 3);
  EXPECT_EQ(Value(true).AsDouble().ValueOrDie(), 1.0);
  Uncertain u = Value(2.0).AsUncertain().ValueOrDie();
  EXPECT_EQ(u.mean, 2.0);
  EXPECT_EQ(u.stderr_, 0.0);
}

// A double outside the int64 range converts to INT64_MIN, through
// Value::AsInt64 and into int64 blocks, plain and uncertain; inside it
// truncates toward zero. A float-cast-overflow sanitizer build checks
// that no conversion here is undefined.
TEST(ValueTest, OutOfRangeDoublesConvertToInt64Min) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> out_of_range = {
      Value(1e19), Value(-1e19), Value(-inf), Value(inf),
      Value(9223372036854775808.0),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(Uncertain(9.3e18, 1.0))};
  const auto n = static_cast<int64_t>(out_of_range.size());
  AttributeBlock plain(DataType::kInt64, /*uncertain=*/false, n);
  AttributeBlock uncertain(DataType::kInt64, /*uncertain=*/true, n);
  for (int64_t i = 0; i < n; ++i) {
    const Value& v = out_of_range[static_cast<size_t>(i)];
    EXPECT_EQ(v.AsInt64().ValueOrDie(), INT64_MIN) << v.ToString();
    plain.Set(i, v);
    uncertain.Set(i, v);
    EXPECT_EQ(plain.GetInt64(i), INT64_MIN) << v.ToString();
    EXPECT_EQ(uncertain.GetInt64(i), INT64_MIN) << v.ToString();
  }
  EXPECT_EQ(Value(-2.9).AsInt64().ValueOrDie(), -2);
  EXPECT_EQ(Value(-9223372036854775808.0).AsInt64().ValueOrDie(), INT64_MIN);
  EXPECT_EQ(Value(9223372036854774784.0).AsInt64().ValueOrDie(),
            int64_t{9223372036854774784});
  EXPECT_EQ(DoubleToInt64(-0.0), 0);
}

TEST(ValueTest, JoinEquality) {
  EXPECT_TRUE(Value(int64_t{2}).EqualsForJoin(Value(2.0)));
  EXPECT_FALSE(Value(int64_t{2}).EqualsForJoin(Value(3.0)));
  EXPECT_TRUE(Value(std::string("a")).EqualsForJoin(Value(std::string("a"))));
  EXPECT_FALSE(Value(std::string("a")).EqualsForJoin(Value(2.0)));
  // Uncertain joins match on 1-sigma interval overlap.
  EXPECT_TRUE(Value(Uncertain(1.0, 0.5)).EqualsForJoin(Value(1.4)));
  EXPECT_FALSE(Value(Uncertain(1.0, 0.1)).EqualsForJoin(Value(1.4)));
}

TEST(ValueTest, Ordering) {
  EXPECT_TRUE(Value().LessThan(Value(1.0)));      // null first
  EXPECT_FALSE(Value(1.0).LessThan(Value()));
  EXPECT_TRUE(Value(1.0).LessThan(Value(int64_t{2})));
  EXPECT_TRUE(Value(std::string("a")).LessThan(Value(std::string("b"))));
}

TEST(MemArrayTest, CopiesAreIsolatedCopyOnWrite) {
  // MemArray copies share chunks until one side mutates; writes must
  // never leak into the other copy (store-then-insert aliasing).
  MemArray a(Remote2D(10, 4));
  ASSERT_TRUE(a.SetCell({2, 2}, {Value(1.0), Value(2.0), Value(3.0)}).ok());
  MemArray b = a;  // shallow copy
  ASSERT_TRUE(b.SetCell({2, 2}, {Value(9.0), Value(9.0), Value(9.0)}).ok());
  ASSERT_TRUE(b.SetCell({3, 3}, {Value(4.0), Value(4.0), Value(4.0)}).ok());
  // a unchanged.
  EXPECT_EQ((*a.GetCell({2, 2}))[0].double_value(), 1.0);
  EXPECT_FALSE(a.Exists({3, 3}));
  // Deletions are isolated too.
  MemArray c = a;
  ASSERT_TRUE(c.DeleteCell({2, 2}).ok());
  EXPECT_TRUE(a.Exists({2, 2}));
  EXPECT_FALSE(c.Exists({2, 2}));
}

TEST(ValueTest, NestedArray) {
  auto nested = std::make_shared<NestedArray>();
  nested->shape = {2, 2};
  nested->values = {Value(1.0), Value(2.0), Value(3.0), Value(4.0)};
  Value v(nested);
  EXPECT_TRUE(v.is_array());
  EXPECT_EQ(v.array_value()->cell_count(), 4);
  EXPECT_NE(v.ToString().find("array[2x2]"), std::string::npos);
}

}  // namespace
}  // namespace scidb
