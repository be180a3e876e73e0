#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "array/schema.h"
#include "grid/cluster.h"
#include "grid/partitioner.h"

// Edge cases the EXP-PART suite never hits: single-node grids, origins
// on unbounded ('*') dimensions where naive extent arithmetic overflows
// int64, and loads of completely empty arrays.

namespace scidb {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(PartitionerEdgeTest, SingleNodeSchemesAlwaysReturnZero) {
  const Coordinates extremes[] = {
      {1, 1}, {64, 64}, {kMin, kMin}, {kMax, kMax}, {0, kUnboundedDim}};

  FixedGridPartitioner grid(Box({1, 1}, {64, 64}), {1, 1});
  HashPartitioner hash(1);
  RangePartitioner range(0, {});  // no boundaries = one node
  EXPECT_EQ(grid.num_nodes(), 1);
  EXPECT_EQ(hash.num_nodes(), 1);
  EXPECT_EQ(range.num_nodes(), 1);
  for (const Coordinates& c : extremes) {
    EXPECT_EQ(grid.NodeFor(c, 0), 0);
    EXPECT_EQ(hash.NodeFor(c, 0), 0);
    EXPECT_EQ(range.NodeFor(c, 0), 0);
  }
}

TEST(PartitionerEdgeTest, FixedGridHandlesUnboundedDimension) {
  // domain.high == kUnboundedDim: extent + tiles - 1 and origin - low
  // overflow signed 64-bit if computed naively. Placement must stay in
  // [0, num_nodes) and be monotone along the unbounded axis.
  FixedGridPartitioner p(Box({1, 1}, {64, kUnboundedDim}), {2, 2});
  ASSERT_EQ(p.num_nodes(), 4);

  int prev = -1;
  for (int64_t j : {int64_t{1}, int64_t{1} << 20, int64_t{1} << 40,
                    kMax / 2, kMax - 1, kMax}) {
    int node = p.NodeFor({1, j}, 0);
    ASSERT_GE(node, 0) << "j=" << j;
    ASSERT_LT(node, 4) << "j=" << j;
    EXPECT_GE(node, prev) << "placement must be monotone along '*' axis";
    prev = node;
  }
  // The bounded first dimension still splits at its midpoint.
  EXPECT_EQ(p.NodeFor({1, 1}, 0) + 2, p.NodeFor({64, 1}, 0));
}

TEST(PartitionerEdgeTest, FixedGridFullyUnboundedDomain) {
  FixedGridPartitioner p(Box({1, 1}, {kUnboundedDim, kUnboundedDim}),
                         {2, 2});
  for (const Coordinates& c :
       {Coordinates{1, 1}, Coordinates{kMax, kMax}, Coordinates{kMin, 7}}) {
    int node = p.NodeFor(c, 0);
    EXPECT_GE(node, 0);
    EXPECT_LT(node, 4);
  }
  // Coordinates at or below the domain low land in the first tile.
  EXPECT_EQ(p.NodeFor({kMin, kMin}, 0), 0);
  EXPECT_EQ(p.NodeFor({1, 1}, 0), 0);
}

TEST(PartitionerEdgeTest, FixedGridBoundedPlacementUnchangedByOverflowFix) {
  // Pin the bounded-domain mapping: the unsigned rewrite must be
  // bit-identical to the original arithmetic everywhere it was defined.
  FixedGridPartitioner p(Box({1, 1}, {64, 64}), {2, 2});
  EXPECT_EQ(p.NodeFor({1, 1}, 0), 0);
  EXPECT_EQ(p.NodeFor({1, 33}, 0), 1);
  EXPECT_EQ(p.NodeFor({33, 1}, 0), 2);
  EXPECT_EQ(p.NodeFor({64, 64}, 0), 3);
  // Odd extent over 3 tiles: ceil(65/3) = 22 → nodes change at 22, 44.
  FixedGridPartitioner q(Box({0}, {64}), {3});
  EXPECT_EQ(q.NodeFor({21}, 0), 0);
  EXPECT_EQ(q.NodeFor({22}, 0), 1);
  EXPECT_EQ(q.NodeFor({43}, 0), 1);
  EXPECT_EQ(q.NodeFor({44}, 0), 2);
  EXPECT_EQ(q.NodeFor({64}, 0), 2);
}

TEST(PartitionerEdgeTest, RangePartitionerExtremeCoordinates) {
  RangePartitioner p(0, {0});
  EXPECT_EQ(p.num_nodes(), 2);
  EXPECT_EQ(p.NodeFor({kMin}, 0), 0);
  EXPECT_EQ(p.NodeFor({-1}, 0), 0);
  EXPECT_EQ(p.NodeFor({0}, 0), 1);  // boundary routes right
  EXPECT_EQ(p.NodeFor({kMax}, 0), 1);
}

TEST(PartitionerEdgeTest, EmptyArrayLoadHasZeroImbalance) {
  ArraySchema sky("sky", {{"ra", 1, 64, 8}, {"dec", 1, 64, 8}},
                  {{"flux", DataType::kDouble, true, false}});
  auto p = std::make_shared<FixedGridPartitioner>(
      Box({1, 1}, {64, 64}), std::vector<int64_t>{2, 2});
  DistributedArray d(sky, p);

  MemArray empty(sky);
  ASSERT_TRUE(d.Load(empty, 0).ok());
  EXPECT_EQ(d.TotalCells(), 0);
  // Regression: max/mean over zero cells used to be NaN-prone; an empty
  // grid reports 0.0 ("no load, no imbalance"), never NaN.
  EXPECT_EQ(d.LoadImbalance(), 0.0);
  EXPECT_EQ(d.LoadImbalanceBytes(), 0.0);
  EXPECT_FALSE(d.LoadImbalance() != d.LoadImbalance());  // not NaN
}

TEST(PartitionerEdgeTest, ParallelOpsOnEmptyArrayMatchSerial) {
  ArraySchema sky("sky", {{"ra", 1, 16, 4}, {"dec", 1, 16, 4}},
                  {{"flux", DataType::kDouble, true, false}});
  auto p = std::make_shared<HashPartitioner>(4);
  DistributedArray d(sky, p);
  MemArray empty(sky);
  ASSERT_TRUE(d.Load(empty, 0).ok());

  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  // Grouped: no groups at all. Grand ({}): the one SQL-style cell, whose
  // count is 0 and whose sum is NULL, on the grid as locally.
  for (const std::vector<std::string>& dims :
       {std::vector<std::string>{"ra"}, std::vector<std::string>{}}) {
    for (const char* agg : {"sum", "count"}) {
      Result<MemArray> par = d.ParallelAggregate(ctx, dims, agg, "flux");
      Result<MemArray> ser = Aggregate(ctx, empty, dims, agg, "flux");
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      ASSERT_TRUE(ser.ok()) << ser.status().ToString();
      ASSERT_EQ(par.value().CellCount(), ser.value().CellCount()) << agg;
      ser.value().ForEachCell(
          [&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
            auto cell = par.value().GetCell(c);
            EXPECT_TRUE(cell.has_value());
            if (cell.has_value()) {
              EXPECT_EQ((*cell)[0].ToString(),
                        chunk.block(0).Get(rank).ToString())
                  << agg;
            }
            return true;
          });
    }
  }

  Result<MemArray> sub =
      d.ParallelSubsample(ctx, Le(Ref("ra"), Lit(int64_t{8})));
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ(sub.value().CellCount(), 0);
}

}  // namespace
}  // namespace scidb
