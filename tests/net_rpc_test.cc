#include "net/rpc.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "net/fault_injection.h"
#include "net/inprocess_transport.h"
#include "net/message.h"

namespace scidb {
namespace net {
namespace {

// All deadline/backoff behaviour in this file runs on net::VirtualTime —
// the suite never sleeps for real (enforced by staticcheck
// net-test-clock); a full-deadline "wait" costs microseconds.

CallOptions FastCall() {
  CallOptions opts;
  opts.deadline_ns = 50'000'000;        // 50 ms of virtual time
  opts.attempt_timeout_ns = 10'000'000; // 10 ms per attempt
  opts.max_attempts = 4;
  opts.backoff_base_ns = 1'000'000;
  opts.backoff_cap_ns = 8'000'000;
  return opts;
}

RpcClient::Options VirtualOptions(VirtualTime* vt) {
  RpcClient::Options opts;
  opts.clock = vt->clock();
  opts.sleep = vt->sleep();
  opts.jitter_seed = 7;
  return opts;
}

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return b; }

// A small echo service: Ack with the request payload reversed.
void InstallReverse(RpcServer* server) {
  server->Handle(MessageType::kScanShard,
                 [](int, const std::vector<uint8_t>& payload)
                     -> Result<std::vector<uint8_t>> {
                   std::vector<uint8_t> out(payload.rbegin(),
                                            payload.rend());
                   return out;
                 });
}

TEST(RpcTest, CallRoundTripsPayload) {
  InProcessTransport transport;
  RpcServer server(&transport, 0);
  InstallReverse(&server);
  RpcClient client(&transport, 1);
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kScanShard, Bytes({1, 2, 3}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), Bytes({3, 2, 1}));
}

TEST(RpcTest, ServerErrorPropagatesWithoutRetry) {
  InProcessTransport transport;
  RpcServer server(&transport, 0);
  int calls = 0;
  server.Handle(MessageType::kChunkGet,
                [&calls](int, const std::vector<uint8_t>&)
                    -> Result<std::vector<uint8_t>> {
                  ++calls;
                  return Status::NotFound("no such chunk");
                });
  VirtualTime vt;
  RpcClient client(&transport, 1, VirtualOptions(&vt));
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kChunkGet, {}, FastCall());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
  // NotFound is not retryable: exactly one server execution.
  EXPECT_EQ(calls, 1);
}

TEST(RpcTest, MissingHandlerIsNotImplemented) {
  InProcessTransport transport;
  RpcServer server(&transport, 0);  // no handlers installed
  RpcClient client(&transport, 1);
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kNodeStatsReq, {});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotImplemented());
}

TEST(RpcTest, UnreachablePeerFailsCleanlyWithinDeadline) {
  // Destination never registered: every Send is Unavailable, every
  // attempt burns backoff. The call must end with a clean retryable
  // error, never a hang — and consume at most the deadline in virtual
  // time.
  InProcessTransport transport;
  VirtualTime vt;
  RpcClient client(&transport, 1, VirtualOptions(&vt));
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  const uint64_t t0 = vt.Now();
  CallOptions opts = FastCall();
  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kChunkPut, Bytes({1}), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable() ||
              r.status().IsDeadlineExceeded())
      << r.status().ToString();
  EXPECT_LE(vt.Now() - t0, opts.deadline_ns + opts.attempt_timeout_ns);
}

TEST(RpcTest, SilentServerTimesOutDeterministically) {
  // The peer is registered but swallows every request (no reply): each
  // attempt must consume exactly its attempt timeout of virtual time,
  // then the deadline ends the call with DeadlineExceeded.
  InProcessTransport transport;
  ASSERT_TRUE(transport.Register(0, [](int, Frame) {}).ok());
  VirtualTime vt;
  RpcClient client(&transport, 1, VirtualOptions(&vt));
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  const uint64_t t0 = vt.Now();
  CallOptions opts = FastCall();
  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kScanShard, {}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  const uint64_t elapsed = vt.Now() - t0;
  // At least one full attempt; never meaningfully past the deadline.
  EXPECT_GE(elapsed, opts.attempt_timeout_ns);
  EXPECT_LE(elapsed, opts.deadline_ns + opts.attempt_timeout_ns);
}

// Drops the first `n` frames outright, then becomes transparent.
// Deterministic by construction (no RNG), unlike FaultProfile rates.
class DropFirstN : public Transport {
 public:
  DropFirstN(Transport* inner, int n) : inner_(inner), remaining_(n) {}

  Status Register(int node, FrameHandler handler) override {
    return inner_->Register(node, std::move(handler));
  }
  Status Send(int src, int dst, Frame frame) override {
    if (remaining_ > 0) {
      --remaining_;
      return Status::OK();  // accepted, silently eaten
    }
    return inner_->Send(src, dst, std::move(frame));
  }
  void Shutdown() override { inner_->Shutdown(); }
  const char* name() const override { return "drop-first-n"; }

 private:
  Transport* const inner_;
  int remaining_;
};

TEST(RpcTest, RetryMasksDroppedRequests) {
  InProcessTransport inner;
  DropFirstN transport(&inner, 2);  // first two attempts vanish
  RpcServer server(&transport, 0);
  int calls = 0;
  server.Handle(MessageType::kChunkPut,
                [&calls](int, const std::vector<uint8_t>&)
                    -> Result<std::vector<uint8_t>> {
                  ++calls;
                  return std::vector<uint8_t>{};
                });
  VirtualTime vt;
  RpcClient client(&transport, 1, VirtualOptions(&vt));
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  const uint64_t t0 = vt.Now();
  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kChunkPut, Bytes({5}), FastCall());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(calls, 1);             // third attempt got through once
  EXPECT_GT(vt.Now() - t0, 0u);    // timeouts + backoff consumed time
}

TEST(RpcTest, PartitionYieldsCleanErrorAndHealRecovers) {
  InProcessTransport inner;
  FaultProfile quiet;  // no random faults; only the explicit partition
  FaultInjectingTransport transport(&inner, quiet, /*seed=*/3);
  RpcServer server(&transport, 0);
  InstallReverse(&server);
  VirtualTime vt;
  RpcClient client(&transport, 1, VirtualOptions(&vt));
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  transport.PartitionNode(0);
  const uint64_t t0 = vt.Now();
  CallOptions opts = FastCall();
  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kScanShard, Bytes({9}), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded() ||
              r.status().IsUnavailable())
      << r.status().ToString();
  EXPECT_LE(vt.Now() - t0, opts.deadline_ns + opts.attempt_timeout_ns);

  transport.HealPartition(0);
  r = client.Call(0, MessageType::kScanShard, Bytes({1, 2}), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), Bytes({2, 1}));
}

TEST(RpcTest, StaleResponseIsIgnored) {
  InProcessTransport transport;
  RpcClient client(&transport, 1);
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  // A response whose id matches no pending call (e.g. the answer to an
  // abandoned attempt) must be dropped without crashing or corrupting
  // later calls.
  Frame stale;
  stale.type = MessageType::kAck;
  stale.request_id = 0xABCDEF;
  stale.payload = Bytes({1, 2, 3});
  client.OnFrame(0, std::move(stale));

  Frame stale_err;
  stale_err.type = MessageType::kError;
  stale_err.request_id = 0xABCDF0;
  stale_err.payload = EncodeErrorPayload(Status::Internal("late"));
  client.OnFrame(0, std::move(stale_err));

  // The client still works afterwards.
  RpcServer server(&transport, 0);
  InstallReverse(&server);
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kScanShard, Bytes({4, 5}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Bytes({5, 4}));
}

TEST(RpcTest, RetriesHistogramRecordsPerCallRetryCount) {
  // scidb.net.rpc_retries is a histogram over *successful* calls: each
  // success records how many retries it needed, so p99 answers "how
  // flaky is the network" without mixing in hard failures.
  InProcessTransport inner;
  DropFirstN transport(&inner, 2);  // first two attempts vanish
  RpcServer server(&transport, 0);
  server.Handle(MessageType::kChunkPut,
                [](int, const std::vector<uint8_t>&)
                    -> Result<std::vector<uint8_t>> {
                  return std::vector<uint8_t>{};
                });
  VirtualTime vt;
  RpcClient client(&transport, 1, VirtualOptions(&vt));
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  Histogram* h = Metrics::Instance().histogram("scidb.net.rpc_retries");
  const int64_t count0 = h->count();
  const int64_t sum0 = h->sum();

  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kChunkPut, Bytes({5}), FastCall());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(h->count() - count0, 1);  // one successful call...
  EXPECT_EQ(h->sum() - sum0, 2);      // ...that needed two retries

  // A first-attempt success records a zero.
  r = client.Call(0, MessageType::kChunkPut, Bytes({6}), FastCall());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(h->count() - count0, 2);
  EXPECT_EQ(h->sum() - sum0, 2);

  // A failed call records nothing: node 7 is never registered.
  r = client.Call(7, MessageType::kChunkPut, Bytes({7}), FastCall());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(h->count() - count0, 2);
  EXPECT_EQ(h->sum() - sum0, 2);
}

TEST(RpcTest, TracedCallStitchesClientAndServerSpans) {
  InProcessTransport transport;
  VirtualTime vt;
  RpcServer::Options sopts;
  sopts.clock = vt.clock();
  RpcServer server(&transport, 0, sopts);
  InstallReverse(&server);
  SpanStore client_spans;
  RpcClient::Options copts = VirtualOptions(&vt);
  copts.spans = &client_spans;
  RpcClient client(&transport, 1, copts);
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  CallOptions co = FastCall();
  co.trace.trace_id = NextTraceId();
  co.trace.span_id = NextSpanId();  // the coordinator-side operator span

  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kScanShard, Bytes({1, 2}), co);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), Bytes({2, 1}));

  std::vector<SpanRecord> cs = client_spans.Take(co.trace.trace_id);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].label, "rpc.ScanShard");
  EXPECT_EQ(cs[0].parent_span_id, co.trace.span_id);
  EXPECT_EQ(cs[0].node, 1);
  const double* attempts = cs[0].FindNote("attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(*attempts, 1.0);
  const double* retries = cs[0].FindNote("retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(*retries, 0.0);
  EXPECT_NE(cs[0].FindNote("wire_us"), nullptr);
  EXPECT_EQ(cs[0].FindNote("err"), nullptr);  // success: no error note

  // The handler span parents onto the client call span — the edge the
  // coordinator's stitch walks to hang server work under the RPC.
  std::vector<SpanRecord> ss = server.TakeSpans(co.trace.trace_id);
  ASSERT_EQ(ss.size(), 1u);
  EXPECT_EQ(ss[0].label, "server.ScanShard");
  EXPECT_EQ(ss[0].parent_span_id, cs[0].span_id);
  EXPECT_EQ(ss[0].node, 0);
  const double* src = ss[0].FindNote("src");
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(*src, 1.0);
  const double* ok_note = ss[0].FindNote("ok");
  ASSERT_NE(ok_note, nullptr);
  EXPECT_EQ(*ok_note, 1.0);
}

TEST(RpcTest, TracedRetriedCallNotesRetryCountOnOneSpan) {
  InProcessTransport inner;
  DropFirstN transport(&inner, 2);
  RpcServer server(&transport, 0);
  server.Handle(MessageType::kChunkPut,
                [](int, const std::vector<uint8_t>&)
                    -> Result<std::vector<uint8_t>> {
                  return std::vector<uint8_t>{};
                });
  VirtualTime vt;
  SpanStore client_spans;
  RpcClient::Options copts = VirtualOptions(&vt);
  copts.spans = &client_spans;
  RpcClient client(&transport, 1, copts);
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  CallOptions co = FastCall();
  co.trace.trace_id = NextTraceId();
  co.trace.span_id = NextSpanId();
  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kChunkPut, Bytes({9}), co);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // One span covers all three attempts; its notes carry the retry
  // count and the backoff spent getting there.
  std::vector<SpanRecord> cs = client_spans.Take(co.trace.trace_id);
  ASSERT_EQ(cs.size(), 1u);
  const double* attempts = cs[0].FindNote("attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(*attempts, 3.0);
  const double* retries = cs[0].FindNote("retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(*retries, 2.0);
  EXPECT_NE(cs[0].FindNote("backoff_us"), nullptr);

  // Only the delivered attempt reached the server: one handler span.
  EXPECT_EQ(server.TakeSpans(co.trace.trace_id).size(), 1u);
}

TEST(RpcTest, SpansRequireBothActiveTraceAndStore) {
  InProcessTransport transport;
  VirtualTime vt;
  RpcServer::Options sopts;
  sopts.clock = vt.clock();
  RpcServer server(&transport, 0, sopts);
  InstallReverse(&server);
  SpanStore client_spans;
  RpcClient::Options copts = VirtualOptions(&vt);
  copts.spans = &client_spans;
  RpcClient client(&transport, 1, copts);
  ASSERT_TRUE(BindNode(&transport, 0, &server, nullptr).ok());
  ASSERT_TRUE(BindNode(&transport, 1, nullptr, &client).ok());

  // Untraced call, store present: no spans on either side.
  Result<std::vector<uint8_t>> r =
      client.Call(0, MessageType::kScanShard, Bytes({1}), FastCall());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(client_spans.size(), 0u);

  // Traced call, no store: the client records nothing (and must not
  // crash), but the trace still crosses the wire — the server span
  // parents onto the call span it carried.
  RpcClient bare(&transport, 2, VirtualOptions(&vt));
  ASSERT_TRUE(BindNode(&transport, 2, nullptr, &bare).ok());
  CallOptions co = FastCall();
  co.trace.trace_id = NextTraceId();
  co.trace.span_id = NextSpanId();
  r = bare.Call(0, MessageType::kScanShard, Bytes({2}), co);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(client_spans.size(), 0u);
  std::vector<SpanRecord> ss = server.TakeSpans(co.trace.trace_id);
  ASSERT_EQ(ss.size(), 1u);
  EXPECT_NE(ss[0].parent_span_id, co.trace.span_id);  // rewritten
  EXPECT_NE(ss[0].parent_span_id, 0u);
}

TEST(RpcTest, VirtualTimeAdvancesBySleptAmount) {
  VirtualTime vt(100);
  EXPECT_EQ(vt.Now(), 100u);
  vt.Advance(50);
  EXPECT_EQ(vt.Now(), 150u);
  TraceClock clock = vt.clock();
  SleepFn virtual_sleep = vt.sleep();
  virtual_sleep(1000);
  EXPECT_EQ(clock(), 1150u);
}

}  // namespace
}  // namespace net
}  // namespace scidb
