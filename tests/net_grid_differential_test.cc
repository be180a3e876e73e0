#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "grid/cluster.h"
#include "grid/partitioner.h"
#include "net/rpc.h"
#include "storage/chunk_serde.h"

// Differential suite for the grid-over-RPC migration (DESIGN.md §10):
// the same workload must produce bit-identical results on a clean
// network, under seeded fault injection (drops/dups/delays/reorders
// masked by the RPC retry machinery), and across all three transports.
// Deadline behaviour under a full partition runs on net::VirtualTime —
// no real sleeps anywhere in this file (staticcheck net-test-clock).

namespace scidb {
namespace {

ArraySchema Sky(int64_t n = 16, int64_t chunk = 4) {
  return ArraySchema("sky", {{"ra", 1, n, chunk}, {"dec", 1, n, chunk}},
                     {{"flux", DataType::kDouble, true, false}});
}

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

// Bit-exact equality via the columnar codec: identical serialized chunk
// bytes imply identical presence bitmaps, null masks, and payload bits.
void ExpectBitIdentical(const MemArray& a, const MemArray& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.CellCount(), b.CellCount());
  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  auto itb = b.chunks().begin();
  for (auto ita = a.chunks().begin(); ita != a.chunks().end();
       ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first) << "chunk origins diverge";
    EXPECT_EQ(SerializeChunk(*ita->second), SerializeChunk(*itb->second))
        << "chunk payload bits diverge at origin[0]=" << ita->first[0];
  }
}

// Runs the workload every differential case compares: a grouped
// aggregate, a grand aggregate, and a predicate-shipped subsample.
struct WorkloadResult {
  MemArray grouped;
  MemArray grand;
  MemArray filtered;
};

Result<WorkloadResult> RunWorkload(DistributedArray* d) {
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  ASSIGN_OR_RETURN(MemArray grouped,
                   d->ParallelAggregate(ctx, {"ra"}, "avg", "flux"));
  ASSIGN_OR_RETURN(MemArray grand,
                   d->ParallelAggregate(ctx, {}, "sum", "flux"));
  ExprPtr pred = And(Le(Ref("ra"), Lit(int64_t{8})),
                     Call("even", {Ref("dec")}));
  ASSIGN_OR_RETURN(MemArray filtered, d->ParallelSubsample(ctx, pred));
  return WorkloadResult{std::move(grouped), std::move(grand),
                        std::move(filtered)};
}

void ExpectWorkloadsIdentical(const WorkloadResult& a,
                              const WorkloadResult& b,
                              const std::string& label) {
  ExpectBitIdentical(a.grouped, b.grouped, label + "/grouped-aggregate");
  ExpectBitIdentical(a.grand, b.grand, label + "/grand-aggregate");
  ExpectBitIdentical(a.filtered, b.filtered, label + "/subsample");
}

std::shared_ptr<FixedGridPartitioner> QuadPartitioner(int64_t n = 16) {
  return std::make_shared<FixedGridPartitioner>(
      Box({1, 1}, {n, n}), std::vector<int64_t>{2, 2});
}

TEST(NetGridDifferentialTest, SeededFaultsAreBitTransparent) {
  // The acceptance gate: a lossy, seeded network (drops, duplicates,
  // delays, reorders) must be invisible in the results — retries and
  // idempotent handlers mask every injected fault.
  MemArray src = UniformSky(16, 4, 11);

  DistributedArray clean(Sky(), QuadPartitioner());
  ASSERT_TRUE(clean.Load(src, 0).ok());
  Result<WorkloadResult> want = RunWorkload(&clean);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (uint64_t fault_seed : {1ull, 42ull, 20260806ull}) {
    net::VirtualTime vt;
    GridNetOptions net;
    net.fault_seed = fault_seed;
    net.fault_profile = net::FaultProfile::Lossy();
    // Concurrent workers share the virtual clock, so one worker's
    // timeout-sleeps age every in-flight deadline; let max_attempts do
    // the bounding and keep the (virtual, instant) deadline out of play.
    net.call.max_attempts = 20;
    net.call.deadline_ns = 10'000'000'000'000ull;
    net.clock = vt.clock();
    net.sleep = vt.sleep();
    DistributedArray faulty(Sky(), QuadPartitioner(), net);
    ASSERT_TRUE(faulty.Load(src, 0).ok()) << "seed " << fault_seed;
    ASSERT_NE(faulty.fault_injector(), nullptr);

    Result<WorkloadResult> got = RunWorkload(&faulty);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectWorkloadsIdentical(want.value(), got.value(),
                             "fault_seed=" + std::to_string(fault_seed));
    // The network really did misbehave; the results just don't show it.
    EXPECT_GT(faulty.fault_injector()->frames_dropped() +
                  faulty.fault_injector()->frames_duplicated() +
                  faulty.fault_injector()->frames_held(),
              0);
  }
}

TEST(NetGridDifferentialTest, TransportsProduceIdenticalResults) {
  MemArray src = UniformSky(16, 4, 13);

  DistributedArray inline_grid(Sky(), QuadPartitioner());
  ASSERT_TRUE(inline_grid.Load(src, 0).ok());
  Result<WorkloadResult> want = RunWorkload(&inline_grid);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (auto kind : {GridNetOptions::TransportKind::kThreaded,
                    GridNetOptions::TransportKind::kTcp}) {
    // Real transports need the real clock: virtual time would expire
    // deadlines before an asynchronous delivery thread ever ran.
    GridNetOptions net;
    net.transport = kind;
    DistributedArray d(Sky(), QuadPartitioner(), net);
    ASSERT_TRUE(d.Load(src, 0).ok());
    Result<WorkloadResult> got = RunWorkload(&d);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectWorkloadsIdentical(
        want.value(), got.value(),
        kind == GridNetOptions::TransportKind::kThreaded ? "threaded"
                                                         : "tcp");
  }
}

TEST(NetGridDifferentialTest, FullPartitionFailsCleanlyWithinDeadline) {
  net::VirtualTime vt;
  GridNetOptions net;
  net.fault_seed = 5;          // enables the fault wrapper...
  net.fault_profile = net::FaultProfile{};  // ...with no random faults
  net.clock = vt.clock();
  net.sleep = vt.sleep();
  DistributedArray d(Sky(), QuadPartitioner(), net);
  MemArray src = UniformSky(16, 4, 17);
  ASSERT_TRUE(d.Load(src, 0).ok());

  ASSERT_NE(d.fault_injector(), nullptr);
  d.fault_injector()->PartitionNode(2);

  // Writes to the severed node fail with a clean retryable error — the
  // call returns (never hangs), within the deadline plus one attempt.
  const uint64_t t0 = vt.Now();
  Status put = d.SetCell({9, 1}, {Value(1.0)}, 0);  // node 2's corner
  ASSERT_FALSE(put.ok());
  EXPECT_TRUE(put.IsUnavailable() || put.IsDeadlineExceeded())
      << put.ToString();
  GridNetOptions defaults;
  EXPECT_LE(vt.Now() - t0,
            defaults.call.deadline_ns + defaults.call.attempt_timeout_ns);

  // Reads fan out to every node; the severed one poisons the whole op.
  Result<WorkloadResult> r = RunWorkload(&d);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable() || r.status().IsDeadlineExceeded())
      << r.status().ToString();

  // Healing restores exact results.
  d.fault_injector()->HealPartition(2);
  DistributedArray clean(Sky(), QuadPartitioner());
  ASSERT_TRUE(clean.Load(src, 0).ok());
  Result<WorkloadResult> want = RunWorkload(&clean);
  Result<WorkloadResult> got = RunWorkload(&d);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectWorkloadsIdentical(want.value(), got.value(), "healed");
}

TEST(NetGridDifferentialTest, FaultySjoinMatchesClean) {
  // Sjoin moves rhs data between nodes when not co-partitioned; that
  // repartitioning path must also be fault-transparent.
  ArraySchema sa("a", {{"x", 1, 16, 4}},
                 {{"u", DataType::kDouble, true, false}});
  ArraySchema sb("b", {{"x", 1, 16, 4}},
                 {{"w", DataType::kDouble, true, false}});
  auto pa = std::make_shared<RangePartitioner>(0, std::vector<int64_t>{8});
  auto pb = std::make_shared<HashPartitioner>(2);

  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};

  auto fill = [](DistributedArray* d, double sign) {
    for (int64_t x = 1; x <= 16; ++x) {
      ASSERT_TRUE(
          d->SetCell({x}, {Value(sign * static_cast<double>(x))}, 0).ok());
    }
  };

  DistributedArray clean_a(sa, pa), clean_b(sb, pb);
  fill(&clean_a, 1.0);
  fill(&clean_b, -1.0);
  int64_t moved_clean = 0;
  Result<MemArray> want =
      clean_a.ParallelSjoin(ctx, clean_b, {{"x", "x"}}, &moved_clean);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_GT(moved_clean, 0);

  net::VirtualTime vt;
  GridNetOptions net;
  net.fault_seed = 99;
  net.call.max_attempts = 20;
  net.call.deadline_ns = 10'000'000'000'000ull;  // see above: shared clock
  net.clock = vt.clock();
  net.sleep = vt.sleep();
  DistributedArray faulty_a(sa, pa, net), faulty_b(sb, pb, net);
  fill(&faulty_a, 1.0);
  fill(&faulty_b, -1.0);
  int64_t moved_faulty = 0;
  Result<MemArray> got =
      faulty_a.ParallelSjoin(ctx, faulty_b, {{"x", "x"}}, &moved_faulty);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Movement accounting is logical (cells that changed node), not a
  // retry-sensitive wire count: it must match exactly.
  EXPECT_EQ(moved_faulty, moved_clean);
  ExpectBitIdentical(want.value(), got.value(), "sjoin");
}

TEST(NetGridDifferentialTest, RepartitionRebuildsNetworkAcrossNodeCounts) {
  // Repartition tears down and rebuilds the transport (node count
  // changes 4 -> 3); the rebuilt stack must serve RPCs as before.
  net::VirtualTime vt;
  GridNetOptions net;
  net.fault_seed = 7;
  net.call.max_attempts = 20;
  net.call.deadline_ns = 10'000'000'000'000ull;  // see above: shared clock
  net.clock = vt.clock();
  net.sleep = vt.sleep();
  DistributedArray d(Sky(), QuadPartitioner(), net);
  MemArray src = UniformSky(16, 4, 19);
  ASSERT_TRUE(d.Load(src, 0).ok());

  ASSERT_TRUE(
      d.Repartition(std::make_shared<HashPartitioner>(3), 0).ok());
  EXPECT_EQ(d.num_nodes(), 3);

  DistributedArray clean(Sky(), std::make_shared<HashPartitioner>(3));
  ASSERT_TRUE(clean.Load(src, 0).ok());
  Result<WorkloadResult> want = RunWorkload(&clean);
  Result<WorkloadResult> got = RunWorkload(&d);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectWorkloadsIdentical(want.value(), got.value(), "repartitioned");
}

TEST(NetGridDifferentialTest, ReplicationSweepIsBitTransparent) {
  // Replication must be invisible to a healthy grid: k = 1, 2, 3 and
  // every transport produce the same bits as the un-replicated
  // baseline — cells, nulls, and chunk payloads alike.
  MemArray src = UniformSky(16, 4, 23);

  DistributedArray base(Sky(), QuadPartitioner());
  ASSERT_TRUE(base.Load(src, 0).ok());
  Result<WorkloadResult> want = RunWorkload(&base);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (int k : {1, 2, 3}) {
    GridNetOptions net;
    net.replication = k;
    DistributedArray d(Sky(), QuadPartitioner(), net);
    ASSERT_TRUE(d.Load(src, 0).ok());
    EXPECT_EQ(d.replication(), k);
    Result<WorkloadResult> got = RunWorkload(&d);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectWorkloadsIdentical(want.value(), got.value(),
                             "replication k=" + std::to_string(k));
  }

  for (auto kind : {GridNetOptions::TransportKind::kThreaded,
                    GridNetOptions::TransportKind::kTcp}) {
    GridNetOptions net;
    net.transport = kind;
    net.replication = 2;
    DistributedArray d(Sky(), QuadPartitioner(), net);
    ASSERT_TRUE(d.Load(src, 0).ok());
    Result<WorkloadResult> got = RunWorkload(&d);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectWorkloadsIdentical(
        want.value(), got.value(),
        std::string("replicated/") +
            (kind == GridNetOptions::TransportKind::kThreaded ? "threaded"
                                                              : "tcp"));
  }
}

TEST(NetGridDifferentialTest, PrimaryDeathFailoverIsBitTransparent) {
  // The tentpole guarantee: kill any node under any replicated layout
  // and the workload's bits do not move. The three ops of the workload
  // also walk the victim through failure detection (three consecutive
  // peer failures), so by the end it is declared dead, recovery has
  // re-replicated its chunks, and post-recovery reads still match.
  for (auto [data_seed, victim, k] :
       {std::tuple<uint64_t, int, int>{31, 0, 2},
        std::tuple<uint64_t, int, int>{37, 1, 2},
        std::tuple<uint64_t, int, int>{41, 2, 3},
        std::tuple<uint64_t, int, int>{43, 3, 3}}) {
    SCOPED_TRACE("seed=" + std::to_string(data_seed) + " victim=" +
                 std::to_string(victim) + " k=" + std::to_string(k));
    MemArray src = UniformSky(16, 4, data_seed);
    DistributedArray clean(Sky(), QuadPartitioner());
    ASSERT_TRUE(clean.Load(src, 0).ok());
    Result<WorkloadResult> want = RunWorkload(&clean);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    net::VirtualTime vt;
    GridNetOptions net;
    net.fault_seed = data_seed;  // enables the fault wrapper...
    net.fault_profile = net::FaultProfile{};  // ...with no random faults
    net.call.max_attempts = 20;
    net.call.deadline_ns = 10'000'000'000'000ull;  // shared virtual clock
    net.clock = vt.clock();
    net.sleep = vt.sleep();
    net.replication = k;
    DistributedArray d(Sky(), QuadPartitioner(), net);
    ASSERT_TRUE(d.Load(src, 0).ok());
    ASSERT_NE(d.fault_injector(), nullptr);
    d.fault_injector()->PartitionNode(victim);

    const int64_t failovers_before =
        Metrics::Instance().counter("scidb.grid.failover_reads")->value();
    Result<WorkloadResult> got = RunWorkload(&d);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectWorkloadsIdentical(want.value(), got.value(), "under-death");
    EXPECT_GT(Metrics::Instance().counter("scidb.grid.failover_reads")->value(),
              failovers_before);

    // dead_after_failures = 3 and the workload ran three parallel ops:
    // the victim is now declared dead and recovery has run.
    const std::set<int> dead = d.dead_nodes();
    ASSERT_EQ(dead, (std::set<int>{victim}));
    for (const auto& [origin, chunk] : src.chunks()) {
      (void)chunk;
      std::vector<int> holders = d.placement().LiveReplicasFor(origin, 0, dead);
      for (int n : holders) {
        EXPECT_NE(d.shard(n).FindChunk(origin), nullptr)
            << "node " << n << " missing re-replicated chunk";
      }
    }

    // Reads after recovery come off the re-replicated copies — still
    // the same bits.
    Result<WorkloadResult> after = RunWorkload(&d);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectWorkloadsIdentical(want.value(), after.value(), "post-recovery");
  }
}

// A k = 2 grid on virtual time whose fault wrapper injects nothing
// random, so a test can partition a node and nothing else changes.
GridNetOptions PartitionableK2(net::VirtualTime& vt, uint64_t seed) {
  GridNetOptions net;
  net.fault_seed = seed;  // enables the fault wrapper...
  net.fault_profile = net::FaultProfile{};  // ...with no random faults
  net.call.max_attempts = 20;
  net.call.deadline_ns = 10'000'000'000'000ull;  // shared virtual clock
  net.clock = vt.clock();
  net.sleep = vt.sleep();
  net.replication = 2;
  return net;
}

TEST(NetGridDifferentialTest, RepartitionFailsOverAPartitionedNode) {
  // Repartition gathers its input over the wire: a partitioned node's
  // chunks come off their surviving replicas, and every cell survives
  // the move onto the new scheme (on both of its new replicas).
  MemArray src = UniformSky(16, 4, 53);
  net::VirtualTime vt;
  DistributedArray d(Sky(), QuadPartitioner(), PartitionableK2(vt, 59));
  ASSERT_TRUE(d.Load(src, 0).ok());
  ASSERT_NE(d.fault_injector(), nullptr);
  d.fault_injector()->PartitionNode(2);

  Counter* failovers = Metrics::Instance().counter("scidb.grid.failover_reads");
  const int64_t failovers_before = failovers->value();
  Result<int64_t> moved =
      d.Repartition(std::make_shared<HashPartitioner>(3), 0);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_GT(failovers->value(), failovers_before);
  EXPECT_GT(*moved, 0);
  ASSERT_EQ(d.num_nodes(), 3);
  EXPECT_EQ(d.TotalCells(), 2 * src.CellCount());
  src.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                      int64_t rank) {
    int copies = 0;
    for (int n = 0; n < d.num_nodes(); ++n) {
      std::optional<std::vector<Value>> cell = d.shard(n).GetCell(c);
      if (cell.has_value() &&
          (*cell)[0].double_value() == chunk.block(0).GetDouble(rank)) {
        ++copies;
      }
    }
    EXPECT_EQ(copies, 2) << CoordsToString(c);
    return true;
  });

  DistributedArray clean(Sky(), std::make_shared<HashPartitioner>(3));
  ASSERT_TRUE(clean.Load(src, 0).ok());
  Result<WorkloadResult> want = RunWorkload(&clean);
  Result<WorkloadResult> got = RunWorkload(&d);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectWorkloadsIdentical(want.value(), got.value(), "repartitioned");
}

TEST(NetGridDifferentialTest, SjoinFailsOverPartitionedNodesOnBothSides) {
  // Both sides of a join are read over the wire, so at k = 2 a
  // partitioned node on either side fails over to its replicas and the
  // join is bit-identical to the healthy one, co-partitioned or not.
  ArraySchema sb("mag", {{"ra", 1, 16, 4}, {"dec", 1, 16, 4}},
                 {{"mag", DataType::kDouble, true, false}});
  MemArray a_src = UniformSky(16, 4, 61);
  MemArray b_src(sb);
  a_src.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                        int64_t rank) {
    SCIDB_CHECK(b_src.SetCell(c, Value(-chunk.block(0).GetDouble(rank))).ok());
    return true;
  });
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  const std::vector<std::pair<std::string, std::string>> dims = {
      {"ra", "ra"}, {"dec", "dec"}};

  for (bool co_partitioned : {true, false}) {
    SCOPED_TRACE(co_partitioned ? "co-partitioned" : "hash rhs");
    std::shared_ptr<const Partitioner> rhs_scheme =
        co_partitioned ? std::shared_ptr<const Partitioner>(QuadPartitioner())
                       : std::make_shared<HashPartitioner>(4);
    DistributedArray clean_a(Sky(), QuadPartitioner());
    DistributedArray clean_b(sb, rhs_scheme);
    ASSERT_TRUE(clean_a.Load(a_src, 0).ok());
    ASSERT_TRUE(clean_b.Load(b_src, 0).ok());
    int64_t moved_clean = -1;
    Result<MemArray> want =
        clean_a.ParallelSjoin(ctx, clean_b, dims, &moved_clean);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(moved_clean == 0, co_partitioned);

    net::VirtualTime vt;
    DistributedArray a(Sky(), QuadPartitioner(), PartitionableK2(vt, 67));
    DistributedArray b(sb, rhs_scheme, PartitionableK2(vt, 71));
    ASSERT_TRUE(a.Load(a_src, 0).ok());
    ASSERT_TRUE(b.Load(b_src, 0).ok());
    a.fault_injector()->PartitionNode(0);
    b.fault_injector()->PartitionNode(3);
    Counter* failovers =
        Metrics::Instance().counter("scidb.grid.failover_reads");
    const int64_t failovers_before = failovers->value();
    int64_t moved = -1;
    Result<MemArray> got = a.ParallelSjoin(ctx, b, dims, &moved);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(failovers->value(), failovers_before + 2);  // one per side
    // Movement is accounted per slot, so failover does not change it.
    EXPECT_EQ(moved, moved_clean);
    ExpectBitIdentical(want.value(), got.value(), "sjoin");
  }
}

TEST(NetGridDifferentialTest, LostChunkFailsPredicateScan) {
  // When every holder of a chunk is dead the chunk is lost, and a read
  // says so — with a shipped predicate exactly as without one — instead
  // of returning the surviving cells as if they were all there.
  MemArray src = UniformSky(16, 4, 73);
  net::VirtualTime vt;
  GridNetOptions net = PartitionableK2(vt, 79);
  net.dead_after_failures = 1;
  DistributedArray d(Sky(), QuadPartitioner(), net);
  ASSERT_TRUE(d.Load(src, 0).ok());
  const Coordinates origin{1, 1};
  const std::vector<int> holders = d.placement().ReplicasFor(origin, 0);
  ASSERT_EQ(holders.front(), 0);
  for (int n : holders) d.fault_injector()->PartitionNode(n);

  // The first read runs into both holders and declares them dead.
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  EXPECT_FALSE(d.ParallelAggregate(ctx, {}, "count", "flux").ok());
  ASSERT_EQ(d.dead_nodes(), std::set<int>(holders.begin(), holders.end()));

  Result<MemArray> agg = d.ParallelAggregate(ctx, {}, "count", "flux");
  ASSERT_FALSE(agg.ok());
  EXPECT_TRUE(agg.status().IsUnavailable()) << agg.status().ToString();
  Result<MemArray> sub =
      d.ParallelSubsample(ctx, Ge(Ref("ra"), Lit(int64_t{1})));
  ASSERT_FALSE(sub.ok()) << sub.value().CellCount() << " cells";
  EXPECT_TRUE(sub.status().IsUnavailable()) << sub.status().ToString();
}

TEST(NetGridDifferentialTest, PrimaryDeathFailoverOnRealTransports) {
  // Same guarantee over the asynchronous transports on the real clock:
  // deadlines are trimmed so the dead primary costs milliseconds, not
  // the default half-second budget.
  MemArray src = UniformSky(16, 4, 47);
  DistributedArray clean(Sky(), QuadPartitioner());
  ASSERT_TRUE(clean.Load(src, 0).ok());
  Result<WorkloadResult> want = RunWorkload(&clean);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (auto kind : {GridNetOptions::TransportKind::kThreaded,
                    GridNetOptions::TransportKind::kTcp}) {
    SCOPED_TRACE(kind == GridNetOptions::TransportKind::kThreaded
                     ? "threaded"
                     : "tcp");
    GridNetOptions net;
    net.transport = kind;
    net.fault_seed = 3;
    net.fault_profile = net::FaultProfile{};
    net.replication = 2;
    net.call.deadline_ns = 200'000'000;       // 200ms
    net.call.attempt_timeout_ns = 50'000'000;  // 50ms
    net.call.max_attempts = 2;
    DistributedArray d(Sky(), QuadPartitioner(), net);
    ASSERT_TRUE(d.Load(src, 0).ok());
    ASSERT_NE(d.fault_injector(), nullptr);
    d.fault_injector()->PartitionNode(1);

    Result<WorkloadResult> got = RunWorkload(&d);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectWorkloadsIdentical(want.value(), got.value(), "real-transport");
  }
}

}  // namespace
}  // namespace scidb
