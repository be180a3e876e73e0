// Cluster-wide metrics scraping (DESIGN.md §12): the coordinator pulls
// every node's metrics with MetricsGet RPCs and merges them into one
// labeled view; unreachable nodes degrade to reachable=false instead of
// failing the scrape. FetchFlightEvents is the sibling TraceGet path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/rng.h"
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

TEST(ClusterScrapeTest, EveryNodeContributesItsGauges) {
  DistributedArray d(Sky(), QuadPartitioner());
  ASSERT_TRUE(d.Load(UniformSky(16, 4, 41), 0).ok());

  ClusterMetrics cm = d.ScrapeClusterMetrics();
  ASSERT_EQ(cm.nodes.size(), 4u);
  int64_t total_cells = 0;
  for (int node = 0; node < 4; ++node) {
    const ClusterMetrics::NodeMetrics& nm = cm.nodes[static_cast<size_t>(node)];
    EXPECT_EQ(nm.node, node);
    EXPECT_TRUE(nm.reachable);
    const MetricsSnapshot::Entry* cells =
        nm.snapshot.find("scidb.node.cells_stored");
    ASSERT_NE(cells, nullptr) << "node " << node;
    EXPECT_EQ(cells->kind, MetricsSnapshot::Kind::kGauge);
    total_cells += cells->value;
    const MetricsSnapshot::Entry* bytes =
        nm.snapshot.find("scidb.node.bytes_stored");
    ASSERT_NE(bytes, nullptr);
    EXPECT_GT(bytes->value, 0);
  }
  // The per-node gauges reconcile with the array: every cell lives on
  // exactly one node.
  EXPECT_EQ(total_cells, d.TotalCells());
  EXPECT_EQ(total_cells, 16 * 16);
}

TEST(ClusterScrapeTest, LabeledViewPrefixesEntriesWithNodeIds) {
  DistributedArray d(Sky(), QuadPartitioner());
  ASSERT_TRUE(d.Load(UniformSky(16, 4, 43), 0).ok());

  ClusterMetrics cm = d.ScrapeClusterMetrics();
  MetricsSnapshot merged = cm.Labeled();
  for (int node = 0; node < 4; ++node) {
    const std::string prefix = "node" + std::to_string(node) + ".";
    EXPECT_NE(merged.find(prefix + "scidb.node.cells_stored"), nullptr)
        << prefix;
  }
  // The text rendering (what metrics_dump --cluster prints) carries the
  // same labels.
  const std::string text = cm.ToText();
  EXPECT_NE(text.find("node0.scidb.node.cells_stored"), std::string::npos)
      << text;
  EXPECT_NE(text.find("node3.scidb.node.bytes_stored"), std::string::npos)
      << text;
}

TEST(ClusterScrapeTest, IncludeProcessAppendsTheSharedRegistry) {
  DistributedArray d(Sky(), QuadPartitioner());
  ASSERT_TRUE(d.Load(UniformSky(16, 4, 47), 0).ok());

  // The load above pushed frames through the net stack, so the process
  // registry has a nonzero frame counter to ship.
  ClusterMetrics cm = d.ScrapeClusterMetrics(/*include_process=*/true);
  ASSERT_EQ(cm.nodes.size(), 4u);
  for (const ClusterMetrics::NodeMetrics& nm : cm.nodes) {
    ASSERT_TRUE(nm.reachable);
    const MetricsSnapshot::Entry* frames =
        nm.snapshot.find("scidb.net.frames_sent");
    ASSERT_NE(frames, nullptr);
    EXPECT_GT(frames->value, 0);
  }

  // Without the flag, only the node-local gauges travel.
  ClusterMetrics lean = d.ScrapeClusterMetrics(/*include_process=*/false);
  for (const ClusterMetrics::NodeMetrics& nm : lean.nodes) {
    ASSERT_TRUE(nm.reachable);
    EXPECT_EQ(nm.snapshot.find("scidb.net.frames_sent"), nullptr);
  }
}

TEST(ClusterScrapeTest, PartitionedNodeDegradesToUnreachable) {
  net::VirtualTime vt;
  GridNetOptions net;
  net.fault_seed = 13;                      // enables the wrapper...
  net.fault_profile = net::FaultProfile{};  // ...with no random faults
  net.clock = vt.clock();
  net.sleep = vt.sleep();
  DistributedArray d(Sky(), QuadPartitioner(), net);
  ASSERT_TRUE(d.Load(UniformSky(16, 4, 53), 0).ok());

  ASSERT_NE(d.fault_injector(), nullptr);
  d.fault_injector()->PartitionNode(1);
  ClusterMetrics cm = d.ScrapeClusterMetrics();
  ASSERT_EQ(cm.nodes.size(), 4u);
  EXPECT_TRUE(cm.nodes[0].reachable);
  EXPECT_FALSE(cm.nodes[1].reachable);
  EXPECT_TRUE(cm.nodes[1].snapshot.entries.empty());  // empty, not stale
  EXPECT_TRUE(cm.nodes[2].reachable);
  EXPECT_TRUE(cm.nodes[3].reachable);

  // The labeled view silently skips the severed node.
  MetricsSnapshot merged = cm.Labeled();
  EXPECT_NE(merged.find("node0.scidb.node.cells_stored"), nullptr);
  EXPECT_EQ(merged.find("node1.scidb.node.cells_stored"), nullptr);

  // node_stats() agrees: the severed node reads all zeros.
  const NodeStats severed = d.node_stats()[1];
  EXPECT_EQ(severed.cells_stored, 0);
  EXPECT_EQ(severed.bytes_stored, 0);
  EXPECT_EQ(severed.cells_scanned, 0);
  EXPECT_EQ(severed.bytes_scanned, 0);

  // Healing restores a full scrape.
  d.fault_injector()->HealPartition(1);
  ClusterMetrics healed = d.ScrapeClusterMetrics();
  EXPECT_TRUE(healed.nodes[1].reachable);
  EXPECT_NE(healed.nodes[1].snapshot.find("scidb.node.cells_stored"),
            nullptr);
  const NodeStats back = d.node_stats()[1];
  EXPECT_GT(back.cells_stored, 0);
  EXPECT_GT(back.bytes_stored, 0);
}

TEST(ClusterScrapeTest, FetchFlightEventsReadsTheRingOverTheWire) {
  FlightRecorder::Instance().Clear();
  DistributedArray d(Sky(), QuadPartitioner());
  ASSERT_TRUE(d.Load(UniformSky(16, 4, 59), 0).ok());

  Result<std::vector<FlightEvent>> events = d.FetchFlightEvents(0);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  // The load's ChunkPut RPCs left send/recv events in the (process-wide)
  // ring, and the dump arrives oldest-first.
  bool saw_send = false;
  bool saw_recv = false;
  for (const FlightEvent& e : events.value()) {
    if (e.kind == FlightEventKind::kRpcSend) saw_send = true;
    if (e.kind == FlightEventKind::kRpcRecv) saw_recv = true;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
  for (size_t i = 1; i < events.value().size(); ++i) {
    EXPECT_EQ(events.value()[i].seq, events.value()[i - 1].seq + 1);
  }
  FlightRecorder::Instance().Clear();
}

}  // namespace
}  // namespace scidb
