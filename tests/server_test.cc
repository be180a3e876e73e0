// Concurrent multi-session query server (DESIGN.md §15): protocol
// round-trips, per-client session isolation, snapshot reads pinned to
// the shared catalog's epoch, typed Busy admission rejection, cancel
// within one morsel, per-session parallelism clamped by the server cap,
// and FIFO fairness for cheap queries behind a heavy one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>  // NOLINT(no-raw-thread): concurrent-client harness
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "net/inprocess_transport.h"
#include "query/session.h"
#include "server/query_client.h"
#include "server/query_server.h"
#include "server/shared_catalog.h"

namespace scidb {
namespace {

using server::QueryClient;
using server::QueryServer;

constexpr int kServerNode = 0;

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Bit-exact equality over present cells: same chunk origins, presence,
// null masks, and payload bits (doubles compared as uint64 patterns).
void ExpectArraysIdentical(const MemArray& a, const MemArray& b,
                           const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.CellCount(), b.CellCount());
  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  auto ita = a.chunks().begin();
  auto itb = b.chunks().begin();
  for (; ita != a.chunks().end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first) << "chunk origins differ";
    const Chunk& ca = *ita->second;
    const Chunk& cb = *itb->second;
    ASSERT_EQ(ca.box(), cb.box());
    ASSERT_EQ(ca.present_count(), cb.present_count());
    for (int64_t rank = 0; rank < ca.cell_capacity(); ++rank) {
      ASSERT_EQ(ca.IsPresent(rank), cb.IsPresent(rank)) << "rank " << rank;
      if (!ca.IsPresent(rank)) continue;
      for (size_t at = 0; at < ca.nattrs(); ++at) {
        const Value& va = ca.block(at).Get(rank);
        const Value& vb = cb.block(at).Get(rank);
        ASSERT_EQ(va.is_null(), vb.is_null());
        if (va.is_null()) continue;
        ASSERT_EQ(va.is_double(), vb.is_double());
        if (va.is_double()) {
          ASSERT_EQ(DoubleBits(va.double_value()),
                    DoubleBits(vb.double_value()))
              << "double bits differ at rank " << rank;
        } else {
          ASSERT_EQ(va.ToString(), vb.ToString());
        }
      }
    }
  }
}

ArraySchema SharedSchema(const std::string& name) {
  return ArraySchema(
      name, {{"i", 1, 16, 8}},
      {{"v", DataType::kDouble, /*nullable=*/true, /*uncertain=*/false}},
      /*updatable=*/true);
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(QueryServer::Options opts = {}) {
    server_ = std::make_unique<QueryServer>(&transport_, kServerNode, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<QueryClient> Connect(int node) {
    auto c = std::make_unique<QueryClient>(&transport_, node, kServerNode);
    EXPECT_TRUE(c->Bind().ok());
    return c;
  }

  net::InProcessTransport transport_{net::InProcessTransport::Mode::kInline};
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerTest, StatementRoundTrip) {
  StartServer();
  auto client = Connect(1);
  ASSERT_TRUE(
      client->Execute("define Vec (v = double) (x)").value().status.ok());
  ASSERT_TRUE(client->Execute("create A as Vec [8]").value().status.ok());
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(client
                    ->Execute("insert A [" + std::to_string(i) + "] values (" +
                              std::to_string(i * 1.5) + ")")
                    .value()
                    .status.ok());
  }
  auto out = client->Execute("select Filter(A, v > 4.0)").value();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  ASSERT_NE(out.array, nullptr);

  // Differential check: the identical statements on a local session.
  Session local;
  ASSERT_TRUE(local.Execute("define Vec (v = double) (x)").ok());
  ASSERT_TRUE(local.Execute("create A as Vec [8]").ok());
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(local
                    .Execute("insert A [" + std::to_string(i) + "] values (" +
                             std::to_string(i * 1.5) + ")")
                    .ok());
  }
  auto expect = local.Execute("select Filter(A, v > 4.0)").ValueOrDie();
  ExpectArraysIdentical(*out.array, *expect.array, "filter roundtrip");
}

TEST_F(ServerTest, SessionsAreIsolated) {
  StartServer();
  auto alice = Connect(1);
  auto bob = Connect(2);

  ASSERT_TRUE(
      alice->Execute("define Vec (v = double) (x)").value().status.ok());
  ASSERT_TRUE(alice->Execute("create A as Vec [4]").value().status.ok());
  ASSERT_TRUE(
      alice->Execute("insert A [1] values (42.0)").value().status.ok());

  // Bob cannot see Alice's catalog...
  auto bob_read = bob->Execute("select Filter(A, v > 0)").value();
  EXPECT_TRUE(bob_read.status.IsNotFound()) << bob_read.status.ToString();

  // ...and Bob's own A is a different array entirely.
  ASSERT_TRUE(bob->Execute("define Vec (v = double) (x)").value().status.ok());
  ASSERT_TRUE(bob->Execute("create A as Vec [4]").value().status.ok());
  ASSERT_TRUE(bob->Execute("insert A [1] values (7.0)").value().status.ok());

  auto alice_a = alice->Execute("select Filter(A, v > 0)").value();
  ASSERT_TRUE(alice_a.status.ok());
  ASSERT_EQ(alice_a.array->CellCount(), 1);
  auto bob_a = bob->Execute("select Filter(A, v > 0)").value();
  ASSERT_TRUE(bob_a.status.ok());
  ASSERT_EQ(bob_a.array->CellCount(), 1);
  // 42 vs 7: same name, different contents, no bleed-through.
  EXPECT_NE(alice_a.array->chunks().begin()->second->block(0).Get(0)
                .double_value(),
            bob_a.array->chunks().begin()->second->block(0).Get(0)
                .double_value());
}

TEST_F(ServerTest, SharedCatalogInsertAndSnapshotEpoch) {
  StartServer();
  ASSERT_TRUE(server_->catalog()->Define(SharedSchema("S")).ok());
  auto writer = Connect(1);
  auto reader = Connect(2);

  // Epoch advances per committed insert.
  for (int i = 1; i <= 4; ++i) {
    auto out = writer
                   ->Execute("insert S [" + std::to_string(i) + "] values (" +
                             std::to_string(i * 10.0) + ")")
                   .value();
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.snapshot_epoch, i);
  }

  // A read pins the current epoch and reports it back; the result is
  // bit-identical to a direct snapshot of that epoch.
  auto read = reader->Execute("select Filter(S, v > 0)").value();
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(read.snapshot_epoch, 4);
  ASSERT_NE(read.array, nullptr);
  MemArray direct =
      server_->catalog()->SnapshotAt("S", read.snapshot_epoch).ValueOrDie();
  EXPECT_EQ(read.array->CellCount(), direct.CellCount());
}

// The snapshot-read satellite: a loader commits cells while a scanner
// reads concurrently, whole scans and region reads (a Subsample reads
// only its box of the snapshot) in turn. Every scan must equal the serial
// materialization of the epoch it reports — no torn reads, no partially
// visible commit.
TEST_F(ServerTest, ConcurrentLoaderAndScannerAreSnapshotConsistent) {
  StartServer();
  ASSERT_TRUE(server_->catalog()->Define(SharedSchema("S")).ok());

  constexpr int kInserts = 16;
  std::thread loader([&] {  // NOLINT(no-raw-thread): concurrent client
    auto writer = Connect(1);
    for (int i = 1; i <= kInserts; ++i) {
      auto out = writer
                     ->Execute("insert S [" + std::to_string(i) +
                               "] values (" + std::to_string(i * 1.0) + ")")
                     .value();
      ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    }
  });

  auto scanner = Connect(2);
  const std::string statements[] = {"select Filter(S, v > 0)",
                                    "select Subsample(S, i >= 5 and i <= 11)"};
  for (int scan = 0; scan < 8; ++scan) {
    const std::string& statement = statements[scan % 2];
    auto out = scanner->Execute(statement).value();
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    ASSERT_NE(out.array, nullptr);
    // Bit-identical to the serial snapshot of the pinned epoch.
    MemArray expect =
        server_->catalog()->SnapshotAt("S", out.snapshot_epoch).ValueOrDie();
    Session local;
    ASSERT_TRUE(local.RegisterArray(
                         std::make_shared<MemArray>(std::move(expect)))
                    .ok());
    auto serial = local.Execute(statement).ValueOrDie();
    ExpectArraysIdentical(*out.array, *serial.array,
                          statement + " @" +
                              std::to_string(out.snapshot_epoch));
  }
  loader.join();

  // After the loader finishes, a final scan sees all commits.
  auto final_scan = scanner->Execute("select Filter(S, v > 0)").value();
  ASSERT_TRUE(final_scan.status.ok());
  EXPECT_EQ(final_scan.array->CellCount(), kInserts);
  EXPECT_EQ(final_scan.snapshot_epoch, kInserts);
}

TEST_F(ServerTest, AdmissionRejectsWithBusyWhenResultBuffersFull) {
  QueryServer::Options opts;
  opts.max_queued_result_bytes = 1;  // any buffered array result fills it
  StartServer(opts);
  auto client = Connect(1);
  ASSERT_TRUE(
      client->Execute("define Vec (v = double) (x)").value().status.ok());
  ASSERT_TRUE(client->Execute("create A as Vec [4]").value().status.ok());
  ASSERT_TRUE(client->Execute("insert A [1] values (1.0)").value().status.ok());

  Counter* rejects = Metrics::Instance().counter(
      "scidb.server.admission_rejects");
  const int64_t rejects_before = rejects->value();

  // Finish a query but do NOT fetch/release: its buffered result chunks
  // now exceed the queue bound.
  uint64_t held = client->Submit("select Filter(A, v > 0)").ValueOrDie();
  for (;;) {
    auto done = client->Poll(held).ValueOrDie();
    if (done.done != 0) break;
  }

  // New work is rejected with the typed Busy status — not queued.
  auto second = Connect(2);
  auto rejected = second->Submit("select Filter(A, v > 0)");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsBusy()) << rejected.status().ToString();
  EXPECT_GT(rejects->value(), rejects_before);

  // Releasing the held query frees the buffers; work is admitted again.
  ASSERT_TRUE(client->Cancel(held).ok());
  auto retried = second->Execute("select Filter(A, v > 0)");
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried.value().status.IsNotFound());  // B has no catalog
}

TEST_F(ServerTest, AdmissionRejectsWhenConcurrencyFull) {
  QueryServer::Options opts;
  opts.max_concurrent_queries = 1;
  opts.pool_width = 2;
  StartServer(opts);

  auto heavy = Connect(1);
  ASSERT_TRUE(
      heavy->Execute("define Grid (v = double) (i, j)").value().status.ok());
  ASSERT_TRUE(heavy->Execute("create G as Grid [96, 96]").value().status.ok());
  for (int i = 1; i <= 96; i += 7) {
    for (int j = 1; j <= 96; j += 7) {
      ASSERT_TRUE(heavy
                      ->Execute("insert G [" + std::to_string(i) + ", " +
                                std::to_string(j) + "] values (1.0)")
                      .value()
                      .status.ok());
    }
  }
  uint64_t slow =
      heavy->Submit("select Window(G, [12, 12], avg(v))").ValueOrDie();

  // While the window query occupies the one slot, a second submit is
  // rejected Busy; if the window happens to finish first the submit
  // succeeds — either way nothing queues server-side.
  auto second = Connect(2);
  auto submitted = second->Submit("select Filter(G, v > 0)");
  if (!submitted.ok()) {
    EXPECT_TRUE(submitted.status().IsBusy()) << submitted.status().ToString();
  } else {
    (void)second->Await(submitted.value());  // status-ignored: drain only
  }
  ASSERT_TRUE(heavy->Await(slow).ok());
}

TEST_F(ServerTest, CancelAbortsLongQueryWithinOneMorsel) {
  QueryServer::Options opts;
  opts.pool_width = 2;
  opts.slice_morsels = 1;
  StartServer(opts);
  auto client = Connect(1);
  ASSERT_TRUE(
      client->Execute("define Row (v = double) (i)").value().status.ok());
  ASSERT_TRUE(
      client->Execute("define Col (w = double) (j)").value().status.ok());
  ASSERT_TRUE(client->Execute("create R as Row [128]").value().status.ok());
  ASSERT_TRUE(client->Execute("create C as Col [128]").value().status.ok());
  for (int i = 1; i <= 128; ++i) {
    const std::string at = "[" + std::to_string(i) + "]";
    ASSERT_TRUE(client->Execute("insert R " + at + " values (2.0)")
                    .value()
                    .status.ok());
    ASSERT_TRUE(client->Execute("insert C " + at + " values (3.0)")
                    .value()
                    .status.ok());
  }

  Counter* cancels = Metrics::Instance().counter("scidb.server.cancels");
  const int64_t cancels_before = cancels->value();

  // A window-[32, 32] aggregate over the dense 128x128 cross product
  // folds 69M neighbours in four morsels, tens of ms of work even for
  // the halo kernel (a sparse window of a few ms could finish before
  // the cancel arrives); the cancel lands long before it completes and
  // must abort it within one morsel (the engine polls the flag before
  // every morsel).
  uint64_t qid =
      client->Submit("select Window(CrossProduct(R, C), [32, 32], avg(v))")
          .ValueOrDie();
  ASSERT_TRUE(client->Cancel(qid).ok());
  EXPECT_EQ(cancels->value(), cancels_before + 1);

  // The released id reports Cancelled; a duplicate cancel is a no-op.
  auto after = client->Poll(qid).ValueOrDie();
  EXPECT_EQ(after.done, 1);
  EXPECT_EQ(after.status_code, static_cast<uint8_t>(StatusCode::kCancelled));
  ASSERT_TRUE(client->Cancel(qid).ok());
  EXPECT_EQ(cancels->value(), cancels_before + 1);
}

TEST_F(ServerTest, SetParallelismIsClampedByServerCap) {
  QueryServer::Options opts;
  opts.per_query_parallelism = 2;
  opts.pool_width = 4;
  StartServer(opts);
  auto client = Connect(1);

  auto out = client->Execute("set parallelism = 8").value();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_NE(out.message.find("clamped"), std::string::npos) << out.message;

  // At or under the cap there is nothing to clamp.
  auto ok = client->Execute("set parallelism = 2").value();
  ASSERT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.message.find("clamped"), std::string::npos) << ok.message;
}

// The fairness satellite: with FIFO slicing, a cheap query behind a
// heavy one waits at most one slice per queued competitor instead of
// the heavy query's full runtime.
TEST_F(ServerTest, CheapQueriesCompleteWhileHeavyQueryRuns) {
  QueryServer::Options opts;
  opts.max_concurrent_queries = 4;
  opts.pool_width = 2;
  opts.slice_morsels = 1;
  StartServer(opts);

  auto heavy = Connect(1);
  ASSERT_TRUE(
      heavy->Execute("define Grid (v = double) (i, j)").value().status.ok());
  ASSERT_TRUE(
      heavy->Execute("create G as Grid [256, 256]").value().status.ok());
  for (int i = 1; i <= 256; i += 3) {
    ASSERT_TRUE(heavy
                    ->Execute("insert G [" + std::to_string(i) + ", " +
                              std::to_string(i) + "] values (2.0)")
                    .value()
                    .status.ok());
  }
  ASSERT_TRUE(server_->catalog()->Define(SharedSchema("S")).ok());
  auto seeder = Connect(3);
  ASSERT_TRUE(seeder->Execute("insert S [1] values (5.0)").value().status.ok());

  uint64_t slow =
      heavy->Submit("select Window(G, [16, 16], avg(v))").ValueOrDie();

  // Cheap shared-catalog scans from another client finish while the
  // heavy query still runs — they interleave on the sliced pool rather
  // than queueing behind ~hundreds of ms of window work.
  auto cheap = Connect(2);
  for (int i = 0; i < 5; ++i) {
    auto out = cheap->Execute("select Filter(S, v > 0)").value();
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    ASSERT_EQ(out.array->CellCount(), 1);
  }
  // The heavy query is (overwhelmingly likely) still in flight; either
  // way its result arrives intact afterwards.
  auto slow_out = heavy->Await(slow).value();
  ASSERT_TRUE(slow_out.status.ok()) << slow_out.status.ToString();
  ASSERT_NE(slow_out.array, nullptr);

  Counter* slices =
      Metrics::Instance().counter("scidb.server.scheduler_slices");
  EXPECT_GT(slices->value(), 0);
}

TEST_F(ServerTest, ReplayedSubmitOfReleasedIdIsSuppressed) {
  StartServer();
  auto client = Connect(1);
  ASSERT_TRUE(
      client->Execute("define Vec (v = double) (x)").value().status.ok());

  Counter* queries = Metrics::Instance().counter("scidb.server.queries");
  const int64_t before = queries->value();

  uint64_t qid = client->Submit("create A as Vec [4]").ValueOrDie();
  auto out = client->Await(qid).value();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(queries->value(), before + 1);

  // A maximally delayed duplicate of the released submit frame must NOT
  // start a second execution (re-running this create would fail with
  // AlreadyExists). The watermark suppresses it; the server just acks
  // (the ack lands at the client's RPC demux as a stale id and is
  // dropped, exactly like a late duplicate response).
  net::QueryRequest replay;
  replay.client_qid = qid;
  replay.statement = "create A as Vec [4]";
  net::Frame frame;
  frame.type = net::MessageType::kQuery;
  frame.request_id = 0xdead;
  frame.payload = replay.EncodePayload();
  ASSERT_TRUE(transport_.Send(/*src=*/1, kServerNode, frame).ok());
  EXPECT_EQ(queries->value(), before + 1);

  // And the released id still answers polls (Cancelled, not a hang).
  auto poll = client->Poll(qid).ValueOrDie();
  EXPECT_EQ(poll.done, 1);
}

TEST_F(ServerTest, ShutdownCancelsInFlightQueries) {
  QueryServer::Options opts;
  opts.pool_width = 2;
  opts.slice_morsels = 1;
  StartServer(opts);
  auto client = Connect(1);
  ASSERT_TRUE(
      client->Execute("define Grid (v = double) (i, j)").value().status.ok());
  ASSERT_TRUE(
      client->Execute("create G as Grid [256, 256]").value().status.ok());
  for (int i = 1; i <= 256; i += 5) {
    ASSERT_TRUE(client
                    ->Execute("insert G [" + std::to_string(i) + ", " +
                              std::to_string(i) + "] values (1.0)")
                    .value()
                    .status.ok());
  }
  uint64_t qid =
      client->Submit("select Window(G, [16, 16], avg(v))").ValueOrDie();
  (void)qid;
  server_->Shutdown();  // joins the driver; must not hang or crash
  auto refused = client->Submit("select Filter(G, v > 0)");
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
}

}  // namespace
}  // namespace scidb
