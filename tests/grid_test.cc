#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/auto_designer.h"
#include "grid/cluster.h"
#include "grid/node_service.h"
#include "grid/partitioner.h"
#include "net/inprocess_transport.h"
#include "net/message.h"
#include "storage/chunk_serde.h"

namespace scidb {
namespace {

ArraySchema Sky(int64_t n = 64, int64_t chunk = 8) {
  return ArraySchema("sky", {{"ra", 1, n, chunk}, {"dec", 1, n, chunk}},
                     {{"flux", DataType::kDouble, true, false}});
}

// ------------------------------ partitioners ------------------------------

TEST(PartitionerTest, FixedGridCoversAllNodes) {
  FixedGridPartitioner p(Box({1, 1}, {64, 64}), {2, 2});
  EXPECT_EQ(p.num_nodes(), 4);
  EXPECT_EQ(p.NodeFor({1, 1}, 0), 0);
  EXPECT_EQ(p.NodeFor({1, 33}, 0), 1);
  EXPECT_EQ(p.NodeFor({33, 1}, 0), 2);
  EXPECT_EQ(p.NodeFor({64, 64}, 0), 3);
}

TEST(PartitionerTest, HashIsStableAndSpreads) {
  HashPartitioner p(8);
  std::vector<int> counts(8, 0);
  for (int64_t i = 1; i <= 64; i += 8) {
    for (int64_t j = 1; j <= 64; j += 8) {
      int n = p.NodeFor({i, j}, 0);
      EXPECT_EQ(n, p.NodeFor({i, j}, 99));  // time-independent
      ++counts[static_cast<size_t>(n)];
    }
  }
  for (int c : counts) EXPECT_GT(c, 0);  // every node used
}

TEST(PartitionerTest, RangeBoundaries) {
  RangePartitioner p(0, {10, 20, 30});
  EXPECT_EQ(p.num_nodes(), 4);
  EXPECT_EQ(p.NodeFor({5, 99}, 0), 0);
  EXPECT_EQ(p.NodeFor({10, 0}, 0), 1);  // boundary goes right
  EXPECT_EQ(p.NodeFor({19, 0}, 0), 1);
  EXPECT_EQ(p.NodeFor({30, 0}, 0), 3);
}

TEST(PartitionerTest, TimeSplitRoutesByEpoch) {
  // Paper: "a first partitioning scheme is used for time less than T and
  // a second partitioning scheme for time > T".
  auto before = std::make_shared<RangePartitioner>(
      0, std::vector<int64_t>{32});
  auto after = std::make_shared<RangePartitioner>(
      0, std::vector<int64_t>{8});
  TimeSplitPartitioner p({{100, before}, {INT64_MAX, after}});
  EXPECT_EQ(p.num_nodes(), 2);
  // t < 100: split at 32.
  EXPECT_EQ(p.NodeFor({20, 1}, 50), 0);
  // t >= 100: split at 8 — the same chunk routes differently.
  EXPECT_EQ(p.NodeFor({20, 1}, 150), 1);
}

TEST(PartitionerTest, EqualsDetectsCoPartitioning) {
  auto a = std::make_shared<RangePartitioner>(0, std::vector<int64_t>{10});
  auto b = std::make_shared<RangePartitioner>(0, std::vector<int64_t>{10});
  auto c = std::make_shared<RangePartitioner>(0, std::vector<int64_t>{20});
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_FALSE(a->Equals(HashPartitioner(2)));
}

// ---------------------------- distributed array ----------------------------

MemArray UniformSky(int64_t n, int64_t chunk, uint64_t seed) {
  MemArray a(Sky(n, chunk));
  Rng rng(TestSeed(seed));
  for (int64_t i = 1; i <= n; ++i) {
    for (int64_t j = 1; j <= n; ++j) {
      SCIDB_CHECK(a.SetCell({i, j}, Value(rng.NextDouble())).ok());
    }
  }
  return a;
}

TEST(DistributedArrayTest, LoadPartitionsCells) {
  auto p = std::make_shared<FixedGridPartitioner>(Box({1, 1}, {64, 64}),
                                                  std::vector<int64_t>{2, 2});
  DistributedArray d(Sky(), p);
  MemArray src = UniformSky(64, 8, 1);
  ASSERT_TRUE(d.Load(src, 0).ok());
  EXPECT_EQ(d.TotalCells(), 64 * 64);
  // Uniform data on a fixed grid: perfectly balanced.
  EXPECT_NEAR(d.LoadImbalance(), 1.0, 0.01);
  for (int node = 0; node < 4; ++node) {
    EXPECT_EQ(d.shard(node).CellCount(), 64 * 64 / 4);
  }
}

TEST(DistributedArrayTest, NodeStatsReportBytes) {
  auto p = std::make_shared<FixedGridPartitioner>(Box({1, 1}, {64, 64}),
                                                  std::vector<int64_t>{2, 2});
  DistributedArray d(Sky(), p);
  MemArray src = UniformSky(64, 8, 1);
  ASSERT_TRUE(d.Load(src, 0).ok());

  // Byte skew is measurable, not just cell skew: each node's stats carry
  // its shard's byte residency, matching the shard itself.
  std::vector<NodeStats> stats = d.node_stats();
  ASSERT_EQ(stats.size(), 4u);
  int64_t total_bytes = 0;
  for (int node = 0; node < 4; ++node) {
    EXPECT_EQ(stats[node].bytes_stored,
              static_cast<int64_t>(d.shard(node).ByteSize()));
    EXPECT_GT(stats[node].bytes_stored, 0);
    total_bytes += stats[node].bytes_stored;
  }
  EXPECT_GT(total_bytes, d.TotalCells());  // > 1 byte per cell
  // Uniform data, uniform widths: byte balance tracks cell balance.
  EXPECT_NEAR(d.LoadImbalanceBytes(), 1.0, 0.01);

  // Parallel scans account their traffic in bytes per node.
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  ASSERT_TRUE(d.ParallelAggregate(ctx, {}, "sum", "flux").ok());
  stats = d.node_stats();
  for (int node = 0; node < 4; ++node) {
    EXPECT_EQ(stats[node].bytes_scanned, stats[node].bytes_stored);
    EXPECT_EQ(stats[node].cells_scanned, d.shard(node).CellCount());
  }
}

TEST(DistributedArrayTest, SkewedDataUnbalancesFixedGrid) {
  // El Nino-style skew: all the interesting cells in one corner.
  auto p = std::make_shared<FixedGridPartitioner>(Box({1, 1}, {64, 64}),
                                                  std::vector<int64_t>{2, 2});
  DistributedArray d(Sky(64, 4), p);
  MemArray src(Sky(64, 4));
  Rng rng(TestSeed(2));
  for (int k = 0; k < 4000; ++k) {
    ASSERT_TRUE(src.SetCell({rng.UniformInt(1, 28), rng.UniformInt(1, 28)},
                            Value(1.0))
                    .ok());
  }
  ASSERT_TRUE(d.Load(src, 0).ok());
  // Everything landed on node 0: imbalance == num_nodes.
  EXPECT_GT(d.LoadImbalance(), 3.9);

  // Repartitioning by hash fixes balance; movement is visible.
  int64_t moved = d.Repartition(std::make_shared<HashPartitioner>(4), 0)
                      .ValueOrDie();
  EXPECT_GT(moved, 0);
  EXPECT_LT(d.LoadImbalance(), 1.5);
}

TEST(DistributedArrayTest, ParallelAggregateMatchesSerial) {
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};

  auto p = std::make_shared<HashPartitioner>(4);
  DistributedArray d(Sky(16, 4), p);
  MemArray src = UniformSky(16, 4, 3);
  ASSERT_TRUE(d.Load(src, 0).ok());

  MemArray parallel =
      d.ParallelAggregate(ctx, {"ra"}, "avg", "flux").ValueOrDie();
  MemArray serial = Aggregate(ctx, src, {"ra"}, "avg", "flux").ValueOrDie();
  ASSERT_EQ(parallel.CellCount(), serial.CellCount());
  for (int64_t i = 1; i <= 16; ++i) {
    EXPECT_NEAR((*parallel.GetCell({i}))[0].double_value(),
                (*serial.GetCell({i}))[0].double_value(), 1e-12)
        << "row " << i;
  }

  // Grouping by the same dimension twice is rejected on the grid exactly
  // as it is locally.
  EXPECT_TRUE(
      Aggregate(ctx, src, {"ra", "ra"}, "avg", "flux").status().IsInvalid());
  EXPECT_TRUE(d.ParallelAggregate(ctx, {"ra", "ra"}, "avg", "flux")
                  .status()
                  .IsInvalid());
}

TEST(DistributedArrayTest, ParallelGrandAggregate) {
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  auto p = std::make_shared<HashPartitioner>(3);
  DistributedArray d(Sky(8, 4), p);
  MemArray src(Sky(8, 4));
  double expect = 0;
  for (int64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(src.SetCell({i, i}, Value(static_cast<double>(i))).ok());
    expect += static_cast<double>(i);
  }
  ASSERT_TRUE(d.Load(src, 0).ok());
  MemArray total = d.ParallelAggregate(ctx, {}, "sum", "flux").ValueOrDie();
  EXPECT_EQ((*total.GetCell({1}))[0].double_value(), expect);
}

TEST(DistributedArrayTest, ParallelSubsampleMatchesSerial) {
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  auto p = std::make_shared<HashPartitioner>(4);
  DistributedArray d(Sky(16, 4), p);
  MemArray src = UniformSky(16, 4, 7);
  ASSERT_TRUE(d.Load(src, 0).ok());
  ExprPtr pred = And(Le(Ref("ra"), Lit(int64_t{8})),
                     Call("even", {Ref("dec")}));
  MemArray par = d.ParallelSubsample(ctx, pred).ValueOrDie();
  MemArray ser = Subsample(ctx, src, pred).ValueOrDie();
  EXPECT_EQ(par.CellCount(), ser.CellCount());
  EXPECT_EQ(par.CellCount(), 8 * 8);
}

TEST(DistributedArrayTest, CoPartitionedJoinMovesNothing) {
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};

  auto p = std::make_shared<RangePartitioner>(0, std::vector<int64_t>{8});
  ArraySchema sa("a", {{"x", 1, 16, 4}},
                 {{"u", DataType::kDouble, true, false}});
  ArraySchema sb("b", {{"x", 1, 16, 4}},
                 {{"w", DataType::kDouble, true, false}});
  DistributedArray da(sa, p), db(sb, p);
  for (int64_t x = 1; x <= 16; ++x) {
    ASSERT_TRUE(da.SetCell({x}, {Value(static_cast<double>(x))}, 0).ok());
    ASSERT_TRUE(db.SetCell({x}, {Value(static_cast<double>(-x))}, 0).ok());
  }
  int64_t moved = -1;
  MemArray joined =
      da.ParallelSjoin(ctx, db, {{"x", "x"}}, &moved).ValueOrDie();
  EXPECT_EQ(moved, 0);  // co-partitioned: no data movement (paper §2.7)
  EXPECT_EQ(joined.CellCount(), 16);
  EXPECT_EQ((*joined.GetCell({5}))[1].double_value(), -5.0);
  // The right-hand side is read over the wire: its nodes scanned each of
  // their cells exactly once.
  int64_t rhs_scanned = 0;
  for (const NodeStats& st : db.node_stats()) rhs_scanned += st.cells_scanned;
  EXPECT_EQ(rhs_scanned, 16);

  // Differently partitioned: movement becomes non-zero, result unchanged.
  auto q = std::make_shared<HashPartitioner>(2);
  DistributedArray db2(sb, q);
  for (int64_t x = 1; x <= 16; ++x) {
    ASSERT_TRUE(db2.SetCell({x}, {Value(static_cast<double>(-x))}, 0).ok());
  }
  int64_t moved2 = 0;
  MemArray joined2 =
      da.ParallelSjoin(ctx, db2, {{"x", "x"}}, &moved2).ValueOrDie();
  EXPECT_GT(moved2, 0);
  EXPECT_EQ(joined2.CellCount(), 16);
}

TEST(DistributedArrayTest, BoundaryReplicationForUncertainJoins) {
  // PanSTARRS-style (paper §2.13): objects near a partition boundary are
  // replicated so uncertain spatial joins stay node-local.
  auto p = std::make_shared<RangePartitioner>(0, std::vector<int64_t>{8});
  ArraySchema s("obj", {{"x", 1, 16, 1}},
                {{"m", DataType::kDouble, true, false}});
  DistributedArray d(s, p);
  for (int64_t x = 1; x <= 16; ++x) {
    ASSERT_TRUE(d.SetCell({x}, {Value(static_cast<double>(x))}, 0).ok());
  }
  int64_t before0 = d.shard(0).CellCount();
  int64_t before1 = d.shard(1).CellCount();
  int64_t replicated = d.ReplicateBoundaries(2).ValueOrDie();
  // Cells 6,7 replicate right; cells 8,9 replicate left.
  EXPECT_EQ(replicated, 4);
  EXPECT_EQ(d.shard(0).CellCount(), before0 + 2);
  EXPECT_EQ(d.shard(1).CellCount(), before1 + 2);
  // A +-2 neighborhood around x=8 is now fully resolvable on node 1.
  for (int64_t x = 6; x <= 10; ++x) {
    EXPECT_TRUE(d.shard(1).Exists({x})) << x;
  }
  // Requires a range partitioner.
  DistributedArray h(s, std::make_shared<HashPartitioner>(2));
  EXPECT_TRUE(h.ReplicateBoundaries(1).status().IsInvalid());
}

// The grand `agg` of flux over the whole grid, as a double.
double GrandFlux(DistributedArray* d, const std::string& agg) {
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  MemArray r = d->ParallelAggregate(ctx, {}, agg, "flux").ValueOrDie();
  return (*r.GetCell({1}))[0].AsDouble().ValueOrDie();
}

TEST(DistributedArrayTest, TimeSplitRewriteKeepsOneCopy) {
  // A chunk's first write pins its placement: re-writing a cell after
  // the time split routes the write to the chunk's holder, not to where
  // the new epoch would put a fresh chunk, so no second copy is counted.
  auto before = std::make_shared<RangePartitioner>(
      0, std::vector<int64_t>{33});
  auto after = std::make_shared<RangePartitioner>(
      0, std::vector<int64_t>{9});
  auto p = std::make_shared<TimeSplitPartitioner>(
      std::vector<TimeSplitPartitioner::Epoch>{{100, before},
                                               {INT64_MAX, after}});
  ArraySchema s("obs", {{"ra", 1, 64, 16}, {"dec", 1, 4, 4}},
                {{"flux", DataType::kDouble, true, false}});
  MemArray src(s);
  for (int64_t i = 1; i <= 64; ++i) {
    for (int64_t j = 1; j <= 4; ++j) {
      ASSERT_TRUE(src.SetCell({i, j}, Value(1.0)).ok());
    }
  }
  DistributedArray d(s, p);
  ASSERT_TRUE(d.Load(src, 50).ok());
  ASSERT_NE(d.shard(0).FindChunk({17, 1}), nullptr);
  ASSERT_TRUE(d.SetCell({20, 1}, {Value(5.0)}, 150).ok());
  EXPECT_EQ(d.shard(1).FindChunk({17, 1}), nullptr);
  EXPECT_EQ(GrandFlux(&d, "count"), 256.0);
  EXPECT_EQ(GrandFlux(&d, "sum"), 260.0);
}

TEST(DistributedArrayTest, BoundaryGhostsAreNotCounted) {
  // Boundary copies (paper §2.13) live on the neighbouring node for
  // node-local joins, but they are not data of their own: a grid
  // aggregate counts each cell once.
  auto p = std::make_shared<RangePartitioner>(0, std::vector<int64_t>{8});
  ArraySchema s("obj", {{"x", 1, 16, 1}},
                {{"flux", DataType::kDouble, true, false}});
  DistributedArray d(s, p);
  for (int64_t x = 1; x <= 16; ++x) {
    ASSERT_TRUE(d.SetCell({x}, {Value(1.0)}, 0).ok());
  }
  ASSERT_EQ(d.ReplicateBoundaries(2).ValueOrDie(), 4);
  EXPECT_EQ(d.shard(0).CellCount() + d.shard(1).CellCount(), 20);
  EXPECT_TRUE(d.shard(0).Exists({9}));
  EXPECT_TRUE(d.shard(1).Exists({6}));
  EXPECT_EQ(GrandFlux(&d, "count"), 16.0);
  EXPECT_EQ(GrandFlux(&d, "sum"), 16.0);
}

TEST(GridNodeServiceTest, ScanServesExactlyTheListedOrigins) {
  // A node is a plain store: a scan returns the chunks at the origins it
  // lists, and an origin the node does not hold is an error rather than
  // a silently short answer.
  net::InProcessTransport transport;
  GridNodeService node(0, Sky(16, 4), SteadyNowNs);
  net::RpcServer server(&transport, 0);
  node.Install(&server);
  net::RpcClient client(&transport, 1);
  ASSERT_TRUE(net::BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(net::BindNode(&transport, 1, nullptr, &client).ok());

  MemArray src = UniformSky(16, 4, 5);
  for (const Coordinates& origin : {Coordinates{1, 1}, Coordinates{1, 5}}) {
    net::ChunkPutRequest put;
    put.chunk_bytes = SerializeChunk(*src.FindChunk(origin));
    ASSERT_TRUE(
        client.Call(0, net::MessageType::kChunkPut, put.EncodePayload()).ok());
  }

  net::ScanShardRequest scan;
  scan.origins = {{1, 5}};
  Result<std::vector<uint8_t>> r =
      client.Call(0, net::MessageType::kScanShard, scan.EncodePayload());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net::ScanShardResponse resp =
      net::ScanShardResponse::Decode(r.value()).ValueOrDie();
  ASSERT_EQ(resp.chunks.size(), 1u);
  EXPECT_EQ(resp.chunks[0], SerializeChunk(*src.FindChunk({1, 5})));

  scan.origins = {{1, 1}, {9, 9}};
  r = client.Call(0, net::MessageType::kScanShard, scan.EncodePayload());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
}

// ------------------------------ auto designer ------------------------------

TEST(AutoDesignerTest, EqualizesSkewedWorkload) {
  // Paper's El Nino example: most queries hit a small hot region.
  Box domain({1, 1}, {100, 100});
  AutoDesigner designer(domain, 0, 4);
  // 80% of accesses hit rows 1..10, the rest spread over 11..100.
  for (int k = 0; k < 80; ++k) {
    designer.Observe({Box({1, 1}, {10, 100}), 1.0});
  }
  for (int k = 0; k < 20; ++k) {
    designer.Observe({Box({11, 1}, {100, 100}), 1.0});
  }
  auto part = designer.Design().ValueOrDie();
  // The hot region must be split across nodes: first boundary < 11.
  ASSERT_EQ(part->boundaries().size(), 3u);
  EXPECT_LT(part->boundaries()[0], 11);

  // Designed partitioning predicts much better balance than uniform.
  RangePartitioner uniform(0, {26, 51, 76});
  EXPECT_LT(designer.PredictedImbalance(*part),
            designer.PredictedImbalance(uniform) / 1.5);
}

TEST(AutoDesignerTest, UniformFallbackWithoutWorkload) {
  AutoDesigner designer(Box({1}, {100}), 0, 4);
  auto part = designer.Design().ValueOrDie();
  EXPECT_EQ(part->boundaries(), (std::vector<int64_t>{26, 51, 76}));
  EXPECT_EQ(designer.observed(), 0u);
}

TEST(AutoDesignerTest, RedesignAfterWorkloadShift) {
  // "This designer can be run periodically on the actual workload."
  Box domain({1}, {100});
  AutoDesigner before(domain, 0, 2);
  before.Observe({Box({1}, {20}), 10.0});
  auto p1 = before.Design().ValueOrDie();

  AutoDesigner after(domain, 0, 2);
  after.Observe({Box({80}, {100}), 10.0});
  auto p2 = after.Design().ValueOrDie();

  EXPECT_LT(p1->boundaries()[0], 25);
  EXPECT_GT(p2->boundaries()[0], 75);
  // Each design is good for its own epoch, bad for the other.
  EXPECT_LT(before.PredictedImbalance(*p1),
            before.PredictedImbalance(*p2));
}

}  // namespace
}  // namespace scidb
