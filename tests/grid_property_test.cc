// Distributed execution must be semantically invisible: for any data and
// any partitioner, parallel results equal serial results, and
// repartitioning never loses or duplicates cells. The replica-placement
// properties (DESIGN.md §13) live here too: k distinct nodes per chunk,
// placement stability under node-set identity, bounded replica spread,
// and monotone recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "grid/cluster.h"
#include "net/rpc.h"

namespace scidb {
namespace {

struct Params {
  uint64_t seed;
  int scheme;  // 0 = fixed, 1 = hash, 2 = range
};

class GridPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {
 protected:
  GridPropertyTest() {
    ctx_.functions = &fns_;
    ctx_.aggregates = &aggs_;
  }

  static constexpr int64_t kSide = 48;

  ArraySchema Schema() {
    return ArraySchema("g", {{"x", 1, kSide, 6}, {"y", 1, kSide, 6}},
                       {{"v", DataType::kDouble, true, false}});
  }

  std::shared_ptr<const Partitioner> Scheme(int kind) {
    switch (kind) {
      case 0:
        return std::make_shared<FixedGridPartitioner>(
            Box({1, 1}, {kSide, kSide}), std::vector<int64_t>{2, 2});
      case 1:
        return std::make_shared<HashPartitioner>(4);
      default:
        return std::make_shared<RangePartitioner>(
            0, std::vector<int64_t>{12, 24, 36});
    }
  }

  MemArray RandomData(uint64_t seed, double density) {
    MemArray a(Schema());
    Rng rng(TestSeed(seed));
    for (int64_t x = 1; x <= kSide; ++x) {
      for (int64_t y = 1; y <= kSide; ++y) {
        if (rng.NextDouble() < density) {
          SCIDB_CHECK(
              a.SetCell({x, y}, Value(rng.NextDouble() * 100)).ok());
        }
      }
    }
    return a;
  }

  FunctionRegistry fns_;
  AggregateRegistry aggs_;
  ExecContext ctx_;
};

TEST_P(GridPropertyTest, ParallelAggregateEqualsSerial) {
  auto [seed, scheme] = GetParam();
  MemArray src = RandomData(seed, 0.4);
  DistributedArray d(Schema(), Scheme(scheme));
  ASSERT_TRUE(d.Load(src, 0).ok());
  EXPECT_EQ(d.TotalCells(), src.CellCount());

  for (const char* agg : {"sum", "count", "min", "max", "avg"}) {
    MemArray par = d.ParallelAggregate(ctx_, {"x"}, agg, "v").ValueOrDie();
    MemArray ser = Aggregate(ctx_, src, {"x"}, agg, "v").ValueOrDie();
    ASSERT_EQ(par.CellCount(), ser.CellCount()) << agg;
    ser.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                        int64_t rank) {
      auto got = par.GetCell(c);
      EXPECT_TRUE(got.has_value()) << agg;
      if (got.has_value()) {
        auto want = chunk.block(0).Get(rank);
        if (want.is_null()) {
          EXPECT_TRUE((*got)[0].is_null()) << agg;
        } else {
          EXPECT_NEAR((*got)[0].AsDouble().ValueOrDie(),
                      want.AsDouble().ValueOrDie(), 1e-9)
              << agg << " at " << CoordsToString(c);
        }
      }
      return true;
    });
  }
}

TEST_P(GridPropertyTest, ParallelSjoinEqualsSerial) {
  auto [seed, scheme] = GetParam();
  MemArray a_src = RandomData(seed, 0.3);
  ArraySchema sb("h", {{"x", 1, kSide, 6}, {"y", 1, kSide, 6}},
                 {{"w", DataType::kDouble, true, false}});
  MemArray b_src(sb);
  Rng rng(TestSeed(seed + 99));
  for (int64_t x = 1; x <= kSide; ++x) {
    for (int64_t y = 1; y <= kSide; ++y) {
      if (rng.NextDouble() < 0.3) {
        SCIDB_CHECK(b_src.SetCell({x, y}, Value(rng.NextDouble())).ok());
      }
    }
  }
  DistributedArray da(a_src.schema(), Scheme(scheme));
  ASSERT_TRUE(da.Load(a_src, 0).ok());
  // Deliberately different partitioning for b: forces movement.
  DistributedArray db(sb, Scheme((scheme + 1) % 3));
  ASSERT_TRUE(db.Load(b_src, 0).ok());

  int64_t moved = 0;
  MemArray par =
      da.ParallelSjoin(ctx_, db, {{"x", "x"}, {"y", "y"}}, &moved)
          .ValueOrDie();
  MemArray ser =
      Sjoin(ctx_, a_src, b_src, {{"x", "x"}, {"y", "y"}}).ValueOrDie();
  EXPECT_EQ(par.CellCount(), ser.CellCount());
  ser.ForEachCell([&](const Coordinates& c, const Chunk&, int64_t) {
    EXPECT_TRUE(par.Exists(c)) << CoordsToString(c);
    return true;
  });
}

TEST_P(GridPropertyTest, RepartitionPreservesEveryCell) {
  auto [seed, scheme] = GetParam();
  MemArray src = RandomData(seed, 0.5);
  DistributedArray d(Schema(), Scheme(scheme));
  ASSERT_TRUE(d.Load(src, 0).ok());
  // Bounce through the other two schemes and back.
  for (int next : {(scheme + 1) % 3, (scheme + 2) % 3, scheme}) {
    ASSERT_TRUE(d.Repartition(Scheme(next), 0).ok());
    EXPECT_EQ(d.TotalCells(), src.CellCount());
  }
  // Every original cell is still present on exactly one node with the
  // right value.
  src.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                      int64_t rank) {
    int found = 0;
    double value = 0;
    for (int node = 0; node < d.num_nodes(); ++node) {
      auto cell = d.shard(node).GetCell(c);
      if (cell.has_value()) {
        ++found;
        value = (*cell)[0].double_value();
      }
    }
    EXPECT_EQ(found, 1) << CoordsToString(c);
    EXPECT_EQ(value, chunk.block(0).GetDouble(rank));
    return true;
  });
}

// Every chunk origin of the kSide x kSide grid with chunk interval 6.
std::vector<Coordinates> AllChunkOrigins() {
  std::vector<Coordinates> v;
  for (int64_t x = 1; x <= 48; x += 6) {
    for (int64_t y = 1; y <= 48; y += 6) v.push_back({x, y});
  }
  return v;
}

TEST_P(GridPropertyTest, ReplicasAreKDistinctNodesPrimaryFirst) {
  auto [seed, scheme] = GetParam();
  (void)seed;
  auto part = Scheme(scheme);
  for (int k = 1; k <= part->num_nodes() + 1; ++k) {
    ReplicaPlacement place(part, k);
    const int want = std::min(k, part->num_nodes());
    ASSERT_EQ(place.replication(), want);
    for (const Coordinates& origin : AllChunkOrigins()) {
      std::vector<int> replicas = place.ReplicasFor(origin, 0);
      ASSERT_EQ(static_cast<int>(replicas.size()), want);
      std::set<int> distinct(replicas.begin(), replicas.end());
      EXPECT_EQ(distinct.size(), replicas.size())
          << "duplicate replica node at " << CoordsToString(origin);
      for (int n : replicas) {
        EXPECT_GE(n, 0);
        EXPECT_LT(n, part->num_nodes());
      }
      // k = 1 placement is exactly the un-replicated grid.
      EXPECT_EQ(replicas[0], part->NodeFor(origin, 0));
      // The preference order is a total order over the nodes.
      std::vector<int> order = place.PreferenceOrder(origin, 0);
      std::vector<int> sorted = order;
      std::sort(sorted.begin(), sorted.end());
      std::vector<int> ident(part->num_nodes());
      for (int i = 0; i < part->num_nodes(); ++i) ident[i] = i;
      EXPECT_EQ(sorted, ident);
    }
  }
}

TEST_P(GridPropertyTest, PlacementStableUnderNodeSetIdentity) {
  // Death permutes nothing: the live replica set under any dead set D
  // is the preference order with D's members deleted — survivors keep
  // their relative ranks. Two placements built over
  // equal schemes agree exactly.
  auto [seed, scheme] = GetParam();
  auto part = Scheme(scheme);
  ReplicaPlacement place(part, 2);
  ReplicaPlacement twin(Scheme(scheme), 2);
  Rng rng(TestSeed(seed));
  for (const Coordinates& origin : AllChunkOrigins()) {
    const std::vector<int> order = place.PreferenceOrder(origin, 0);
    ASSERT_EQ(order, twin.PreferenceOrder(origin, 0));
    EXPECT_EQ(order.front(), part->NodeFor(origin, 0));
    // A handful of random dead sets per origin, including the empty
    // and the all-dead one.
    for (int trial = 0; trial < 4; ++trial) {
      std::set<int> dead;
      for (int n = 0; n < part->num_nodes(); ++n) {
        if (rng.NextDouble() < 0.4) dead.insert(n);
      }
      std::vector<int> survivors;
      for (int n : order) {
        if (dead.count(n) == 0) survivors.push_back(n);
      }
      if (static_cast<int>(survivors.size()) > place.replication()) {
        survivors.resize(static_cast<size_t>(place.replication()));
      }
      EXPECT_EQ(place.LiveReplicasFor(origin, 0, dead), survivors);
    }
  }
}

TEST_P(GridPropertyTest, ReplicaCountSpreadIsBounded) {
  // Rendezvous scores must not pile the copies onto a few nodes: over
  // all 64 chunk origins at k = 2, every node holds a bounded share.
  auto [seed, scheme] = GetParam();
  (void)seed;
  auto part = Scheme(scheme);
  ReplicaPlacement place(part, 2);
  std::vector<int> count(static_cast<size_t>(part->num_nodes()), 0);
  int total = 0;
  for (const Coordinates& origin : AllChunkOrigins()) {
    for (int n : place.ReplicasFor(origin, 0)) {
      ++count[static_cast<size_t>(n)];
      ++total;
    }
  }
  const double mean = static_cast<double>(total) / part->num_nodes();
  const int max = *std::max_element(count.begin(), count.end());
  const int min = *std::min_element(count.begin(), count.end());
  EXPECT_GE(min, static_cast<int>(mean / 4)) << "starved node";
  EXPECT_LE(max, static_cast<int>(mean * 2.5)) << "overloaded node";
}

TEST_P(GridPropertyTest, RecoveryRestoresReplicationMonotonically) {
  // Kill one node: the next parallel op fails over, declares it dead,
  // and auto-recovers. Afterwards every chunk is back to k live
  // copies, no live shard shrank (re-replication only adds bytes), and
  // a second Recover() is a fixed point.
  auto [seed, scheme] = GetParam();
  MemArray src = RandomData(seed, 0.4);

  net::VirtualTime vt;
  GridNetOptions net;
  net.fault_seed = seed + 1;  // enables the fault wrapper...
  net.fault_profile = net::FaultProfile{};  // ...with no random faults
  net.call.max_attempts = 20;
  net.call.deadline_ns = 10'000'000'000'000ull;  // shared virtual clock
  net.clock = vt.clock();
  net.sleep = vt.sleep();
  net.replication = 2;
  net.dead_after_failures = 1;
  DistributedArray d(Schema(), Scheme(scheme), net);
  ASSERT_TRUE(d.Load(src, 0).ok());

  const int victim = 1;
  std::vector<size_t> bytes_before(static_cast<size_t>(d.num_nodes()));
  for (int n = 0; n < d.num_nodes(); ++n) {
    bytes_before[static_cast<size_t>(n)] = d.shard(n).ByteSize();
  }

  ASSERT_NE(d.fault_injector(), nullptr);
  d.fault_injector()->PartitionNode(victim);
  MemArray par = d.ParallelAggregate(ctx_, {"x"}, "sum", "v").ValueOrDie();
  MemArray ser = Aggregate(ctx_, src, {"x"}, "sum", "v").ValueOrDie();
  EXPECT_EQ(par.CellCount(), ser.CellCount());

  const std::set<int> dead = d.dead_nodes();
  ASSERT_EQ(dead, (std::set<int>{victim}));

  // Monotone: no live shard lost bytes to the recovery.
  for (int n = 0; n < d.num_nodes(); ++n) {
    if (dead.count(n) != 0) continue;
    EXPECT_GE(d.shard(n).ByteSize(), bytes_before[static_cast<size_t>(n)])
        << "node " << n;
  }

  // Full k restored: every chunk lives on exactly its k live replicas.
  for (const Coordinates& origin : AllChunkOrigins()) {
    bool exists = false;
    for (int n = 0; n < d.num_nodes(); ++n) {
      if (d.shard(n).FindChunk(origin) != nullptr && dead.count(n) == 0) {
        exists = true;
      }
    }
    if (!exists) continue;  // density < 1: some chunks hold no cells
    std::vector<int> want = d.placement().LiveReplicasFor(origin, 0, dead);
    ASSERT_EQ(want.size(), 2u);
    for (int n = 0; n < d.num_nodes(); ++n) {
      const bool holds =
          dead.count(n) == 0 && d.shard(n).FindChunk(origin) != nullptr;
      const bool should =
          std::find(want.begin(), want.end(), n) != want.end();
      EXPECT_EQ(holds, should)
          << "node " << n << " at " << CoordsToString(origin);
    }
  }

  // Fixed point: recovery with nothing missing copies nothing and
  // leaves the byte imbalance exactly where it was.
  const double imbalance = d.LoadImbalanceBytes();
  Result<int64_t> again = d.Recover();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, 0);
  EXPECT_EQ(d.LoadImbalanceBytes(), imbalance);
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<uint64_t, int>>& info) {
  static const char* kNames[] = {"fixed", "hash", "range"};
  return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
         kNames[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSchemes, GridPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(7, 19, 31),
                       ::testing::Values(0, 1, 2)),
    ParamName);

}  // namespace
}  // namespace scidb
