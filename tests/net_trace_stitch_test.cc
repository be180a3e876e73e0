// Distributed-trace stitching (DESIGN.md §12): a traced grid operation
// ends with one "node <i>" sub-tree per node under the operator's trace
// child, each holding the rpc.* client spans (attempt/retry/backoff/wire
// notes) with the matching server.* handler spans nested inside. The
// tree *shape* must be identical across transports, and a seeded
// drop-only fault schedule must yield a fully deterministic analyze
// output whose retry notes account for every injected drop.
//
// All fault/deadline behaviour here runs on net::VirtualTime or a clean
// network with generous budgets — no real sleeps (staticcheck
// net-test-clock).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/trace.h"
#include "grid/cluster.h"
#include "grid/partitioner.h"
#include "net/rpc.h"

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

std::shared_ptr<FixedGridPartitioner> QuadPartitioner(int64_t n = 16) {
  return std::make_shared<FixedGridPartitioner>(
      Box({1, 1}, {n, n}), std::vector<int64_t>{2, 2});
}

// Clean-network call budgets wide enough that a slow CI machine cannot
// manufacture a retry (which would add a server.* child and change the
// tree shape this suite compares).
net::CallOptions GenerousCall() {
  net::CallOptions call;
  call.deadline_ns = 20'000'000'000ull;       // 20 s
  call.attempt_timeout_ns = 5'000'000'000ull; // 5 s
  return call;
}

// Runs a traced grand aggregate and returns the trace.
QueryTrace TracedAggregate(DistributedArray* d) {
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  QueryTrace trace;
  d->set_trace_node(&trace.root);
  Result<MemArray> r = d->ParallelAggregate(ctx, {}, "sum", "flux");
  d->set_trace_node(nullptr);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return trace;
}

int64_t SumNote(const TraceNode& node, const std::string& key) {
  int64_t total = 0;
  const double* v = node.FindNote(key);
  if (v != nullptr) total += static_cast<int64_t>(*v);
  for (const auto& child : node.children) total += SumNote(*child, key);
  return total;
}

int CountLabel(const TraceNode& node, const std::string& label) {
  int total = node.label == label ? 1 : 0;
  for (const auto& child : node.children) total += CountLabel(*child, label);
  return total;
}

TEST(NetTraceStitchTest, AggregateTreeShapeIsIdenticalAcrossTransports) {
  MemArray src = UniformSky(16, 4, 23);
  std::vector<std::string> shapes;
  for (auto kind : {GridNetOptions::TransportKind::kInline,
                    GridNetOptions::TransportKind::kThreaded,
                    GridNetOptions::TransportKind::kTcp}) {
    GridNetOptions net;
    net.transport = kind;
    net.call = GenerousCall();
    DistributedArray d(Sky(), QuadPartitioner(), net);
    ASSERT_TRUE(d.Load(src, 0).ok());
    QueryTrace trace = TracedAggregate(&d);
    shapes.push_back(trace.ToString(/*analyze=*/false));
  }
  ASSERT_EQ(shapes.size(), 3u);
  // One sub-tree per node, an rpc.ScanShard under each, a
  // server.ScanShard under that — on every transport.
  for (int node = 0; node < 4; ++node) {
    EXPECT_NE(shapes[0].find("node " + std::to_string(node)),
              std::string::npos)
        << shapes[0];
  }
  EXPECT_NE(shapes[0].find("rpc.ScanShard"), std::string::npos) << shapes[0];
  EXPECT_NE(shapes[0].find("server.ScanShard"), std::string::npos)
      << shapes[0];
  // Bit-identical shape: the loopback-TCP and threaded trees print
  // exactly like the deterministic inline tree.
  EXPECT_EQ(shapes[0], shapes[1]);
  EXPECT_EQ(shapes[0], shapes[2]);
}

TEST(NetTraceStitchTest, AnalyzeOutputCarriesPerRpcTimingNotes) {
  MemArray src = UniformSky(16, 4, 29);
  GridNetOptions net;
  net.call = GenerousCall();
  DistributedArray d(Sky(), QuadPartitioner(), net);
  ASSERT_TRUE(d.Load(src, 0).ok());
  QueryTrace trace = TracedAggregate(&d);
  const std::string analyze = trace.ToString(/*analyze=*/true);
  EXPECT_NE(analyze.find("grid.parallel_aggregate"), std::string::npos)
      << analyze;
  EXPECT_NE(analyze.find("attempts"), std::string::npos) << analyze;
  EXPECT_NE(analyze.find("retries"), std::string::npos) << analyze;
  EXPECT_NE(analyze.find("wire_us"), std::string::npos) << analyze;
  // One ScanShard RPC per node on a clean network, each served exactly
  // once.
  EXPECT_EQ(CountLabel(trace.root, "rpc.ScanShard"), 4);
  EXPECT_EQ(CountLabel(trace.root, "server.ScanShard"), 4);
  EXPECT_EQ(SumNote(trace.root, "retries"), 0);
}

// Drop-only fault options on the inline transport + virtual time: the
// fault schedule is a pure function of (seed, send sequence), Load is a
// sequential coordinator loop, and every sleep is instant — the whole
// traced run is deterministic.
GridNetOptions DropOnlyOptions(net::VirtualTime* vt, uint64_t seed) {
  GridNetOptions net;
  net.fault_seed = seed;
  net.fault_profile = net::FaultProfile{};  // zero rates...
  net.fault_profile.drop_p = 0.25;          // ...except drops
  net.call.max_attempts = 30;
  net.call.deadline_ns = 10'000'000'000'000ull;
  net.clock = vt->clock();
  net.sleep = vt->sleep();
  return net;
}

QueryTrace TracedLoad(DistributedArray* d, const MemArray& src) {
  QueryTrace trace;
  d->set_trace_node(&trace.root);
  Status s = d->Load(src, 0);
  d->set_trace_node(nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return trace;
}

TEST(NetTraceStitchTest, SeededDropScheduleYieldsDeterministicTrace) {
  MemArray src = UniformSky(16, 4, 31);
  constexpr uint64_t kSeed = 77;

  // Reference run, untraced: the injected fault plan for this exact
  // send sequence. A traced run issues the identical Send sequence (the
  // trace context rides the frames but consumes no fault draws), so
  // this drop count is the plan the traced runs below must absorb.
  // Measured on the untraced run because the traced runs' stitch issues
  // its own TraceGet RPCs, which keep consuming the fault schedule and
  // contaminate the counter.
  int64_t planned_drops;
  {
    net::VirtualTime vt;
    DistributedArray d(Sky(), QuadPartitioner(), DropOnlyOptions(&vt, kSeed));
    ASSERT_TRUE(d.Load(src, 0).ok());
    ASSERT_NE(d.fault_injector(), nullptr);
    planned_drops = d.fault_injector()->frames_dropped();
  }
  ASSERT_GT(planned_drops, 0);

  net::VirtualTime vt1;
  DistributedArray d1(Sky(), QuadPartitioner(), DropOnlyOptions(&vt1, kSeed));
  QueryTrace t1 = TracedLoad(&d1, src);

  net::VirtualTime vt2;
  DistributedArray d2(Sky(), QuadPartitioner(), DropOnlyOptions(&vt2, kSeed));
  QueryTrace t2 = TracedLoad(&d2, src);

  // Bit-identical analyze output: same spans, same attempt counts, same
  // virtual timings, run to run.
  EXPECT_EQ(t1.ToString(/*analyze=*/true), t2.ToString(/*analyze=*/true));

  // Every injected drop (request or reply) forced exactly one retry of
  // a ChunkPut, and nothing else causes retries on a drop-only network:
  // the per-RPC attempt notes reconcile exactly with the fault plan.
  EXPECT_EQ(SumNote(t1.root, "retries"), planned_drops);
  const int64_t chunk_puts = CountLabel(t1.root, "rpc.ChunkPut");
  EXPECT_EQ(chunk_puts, 16);  // 4x4 chunk grid, all non-empty
  EXPECT_EQ(SumNote(t1.root, "attempts"), chunk_puts + planned_drops);
}

TEST(NetTraceStitchTest, FaultedAttemptCountsAgreeAcrossTransports) {
  // The same drop plan produces the same per-RPC retry totals whether
  // frames ride the inline, threaded, or TCP transport: the injector
  // sits above the transport, and Load's sequential send sequence is
  // transport-independent. Real transports need the real clock, so the
  // budgets are generous instead of virtual.
  MemArray src = UniformSky(16, 4, 37);
  constexpr uint64_t kSeed = 91;
  std::vector<int64_t> retry_totals;
  std::vector<std::string> shapes;
  for (auto kind : {GridNetOptions::TransportKind::kInline,
                    GridNetOptions::TransportKind::kThreaded,
                    GridNetOptions::TransportKind::kTcp}) {
    GridNetOptions net;
    net.transport = kind;
    net.fault_seed = kSeed;
    net.fault_profile = net::FaultProfile{};
    net.fault_profile.drop_p = 0.2;
    // A dropped frame costs one attempt timeout of real waiting, so the
    // attempt budget is short — still two orders of magnitude above a
    // loopback round trip, so a healthy attempt never times out.
    net.call.deadline_ns = 60'000'000'000ull;
    net.call.attempt_timeout_ns = 250'000'000ull;
    net.call.max_attempts = 60;
    DistributedArray d(Sky(), QuadPartitioner(), net);
    QueryTrace trace = TracedLoad(&d, src);
    retry_totals.push_back(SumNote(trace.root, "retries"));
    shapes.push_back(trace.ToString(/*analyze=*/false));
  }
  ASSERT_EQ(retry_totals.size(), 3u);
  EXPECT_GT(retry_totals[0], 0);
  EXPECT_EQ(retry_totals[0], retry_totals[1]);
  EXPECT_EQ(retry_totals[0], retry_totals[2]);
  EXPECT_EQ(shapes[0], shapes[1]);
  EXPECT_EQ(shapes[0], shapes[2]);
}

}  // namespace
}  // namespace scidb
