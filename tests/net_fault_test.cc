#include "net/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "net/inprocess_transport.h"
#include "net/rpc.h"

namespace scidb {
namespace net {
namespace {

Frame MakeFrame(uint64_t id) {
  Frame f;
  f.type = MessageType::kChunkPut;
  f.request_id = id;
  return f;
}

// Runs `n` sends from node 0 to node 1 through a fault wrapper with the
// given seed and records the delivered request-id sequence plus the
// fault counters.
struct ScheduleResult {
  std::vector<uint64_t> delivered;
  int64_t dropped = 0;
  int64_t duplicated = 0;
  int64_t held = 0;
};

ScheduleResult RunSchedule(uint64_t seed, const FaultProfile& profile,
                           int n, bool flush_at_end = true) {
  InProcessTransport inner(InProcessTransport::Mode::kInline);
  FaultInjectingTransport fault(&inner, profile, seed);
  ScheduleResult result;
  EXPECT_TRUE(fault.Register(0, [](int, Frame) {}).ok());
  EXPECT_TRUE(fault
                  .Register(1,
                            [&result](int, Frame f) {
                              result.delivered.push_back(f.request_id);
                            })
                  .ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(fault.Send(0, 1, MakeFrame(static_cast<uint64_t>(i))).ok());
  }
  if (flush_at_end) {
    EXPECT_TRUE(fault.Flush().ok());
  }
  result.dropped = fault.frames_dropped();
  result.duplicated = fault.frames_duplicated();
  result.held = fault.frames_held();
  return result;
}

TEST(FaultInjectionTest, ZeroProfileIsTransparent) {
  ScheduleResult r = RunSchedule(123, FaultProfile{}, 50);
  ASSERT_EQ(r.delivered.size(), 50u);
  for (uint64_t i = 0; i < 50; ++i) EXPECT_EQ(r.delivered[i], i);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.duplicated, 0);
  EXPECT_EQ(r.held, 0);
}

TEST(FaultInjectionTest, SameSeedSameSchedule) {
  // The fault schedule is a pure function of (seed, send sequence) —
  // the property the grid differential suite stands on.
  ScheduleResult a = RunSchedule(42, FaultProfile::Lossy(), 200);
  ScheduleResult b = RunSchedule(42, FaultProfile::Lossy(), 200);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.held, b.held);
}

TEST(FaultInjectionTest, LossyProfileActuallyMisbehaves) {
  ScheduleResult r = RunSchedule(42, FaultProfile::Lossy(), 200);
  EXPECT_GT(r.dropped, 0);
  EXPECT_GT(r.duplicated, 0);
  EXPECT_GT(r.held, 0);
  // Lost and gained frames must reconcile: delivered = sent - dropped
  // - still-held (0 after Flush) + duplicated.
  EXPECT_EQ(static_cast<int64_t>(r.delivered.size()),
            200 - r.dropped + r.duplicated);
}

TEST(FaultInjectionTest, DifferentSeedsDiverge) {
  ScheduleResult a = RunSchedule(1, FaultProfile::Lossy(), 200);
  ScheduleResult b = RunSchedule(2, FaultProfile::Lossy(), 200);
  EXPECT_NE(a.delivered, b.delivered);
}

TEST(FaultInjectionTest, DelayedFramesArriveBehindLaterTraffic) {
  // delay_p = 1: every frame is held and released (FIFO, one per Send)
  // by the *next* frame's Send — so frame i is delivered right after
  // frame i+1 enters, and the last frame only surfaces on Flush.
  FaultProfile all_delay;
  all_delay.delay_p = 1.0;
  {
    ScheduleResult r = RunSchedule(9, all_delay, 3, /*flush_at_end=*/false);
    // Send(0): 0 held. Send(1): 1 held, 0 flushed. Send(2): 2 held,
    // 1 flushed. Nothing else delivered yet.
    EXPECT_EQ(r.delivered, (std::vector<uint64_t>{0, 1}));
    EXPECT_EQ(r.held, 3);
  }
  {
    ScheduleResult r = RunSchedule(9, all_delay, 3, /*flush_at_end=*/true);
    EXPECT_EQ(r.delivered, (std::vector<uint64_t>{0, 1, 2}));
  }
}

TEST(FaultInjectionTest, PartitionCutsBothDirectionsUntilHealed) {
  InProcessTransport inner(InProcessTransport::Mode::kInline);
  FaultInjectingTransport fault(&inner, FaultProfile{}, 1);
  std::vector<int> at0, at1;
  ASSERT_TRUE(
      fault.Register(0, [&at0](int src, Frame) { at0.push_back(src); }).ok());
  ASSERT_TRUE(
      fault.Register(1, [&at1](int src, Frame) { at1.push_back(src); }).ok());

  fault.PartitionNode(1);
  // Both directions are black holes; Send still reports OK (the frame
  // was accepted — the network ate it).
  ASSERT_TRUE(fault.Send(0, 1, MakeFrame(1)).ok());
  ASSERT_TRUE(fault.Send(1, 0, MakeFrame(2)).ok());
  EXPECT_TRUE(at0.empty());
  EXPECT_TRUE(at1.empty());
  EXPECT_EQ(fault.frames_dropped(), 2);

  fault.HealPartition(1);
  ASSERT_TRUE(fault.Send(0, 1, MakeFrame(3)).ok());
  ASSERT_TRUE(fault.Send(1, 0, MakeFrame(4)).ok());
  EXPECT_EQ(at1, (std::vector<int>{0}));
  EXPECT_EQ(at0, (std::vector<int>{1}));
}

TEST(FaultInjectionTest, KillAfterSendsFiresAtExactFrame) {
  // KillNodeAfterSends(n, 3): the countdown ticks at the top of every
  // Send, and the triggering frame already finds the node partitioned —
  // so exactly the first two frames land, deterministically.
  for (int run = 0; run < 2; ++run) {
    InProcessTransport inner(InProcessTransport::Mode::kInline);
    FaultInjectingTransport fault(&inner, FaultProfile{}, 77);
    std::vector<uint64_t> at1;
    ASSERT_TRUE(fault.Register(0, [](int, Frame) {}).ok());
    ASSERT_TRUE(fault
                    .Register(1,
                              [&at1](int, Frame f) {
                                at1.push_back(f.request_id);
                              })
                    .ok());
    fault.KillNodeAfterSends(1, 3);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(fault.Send(0, 1, MakeFrame(static_cast<uint64_t>(i))).ok());
    }
    EXPECT_EQ(at1, (std::vector<uint64_t>{0, 1}));
    EXPECT_EQ(fault.frames_dropped(), 4);
  }
}

TEST(FaultInjectionTest, KillAfterZeroSendsIsImmediatePartition) {
  InProcessTransport inner(InProcessTransport::Mode::kInline);
  FaultInjectingTransport fault(&inner, FaultProfile{}, 1);
  std::vector<uint64_t> at1;
  ASSERT_TRUE(fault.Register(0, [](int, Frame) {}).ok());
  ASSERT_TRUE(
      fault.Register(1, [&at1](int, Frame f) { at1.push_back(f.request_id); })
          .ok());
  fault.KillNodeAfterSends(1, 0);
  ASSERT_TRUE(fault.Send(0, 1, MakeFrame(9)).ok());
  EXPECT_TRUE(at1.empty());
  EXPECT_EQ(fault.frames_dropped(), 1);
}

TEST(FaultInjectionTest, HealMidCallDoesNotDoubleCountRetries) {
  // Regression: delay_p = 1 holds attempt 1's request; attempt 2's Send
  // flushes it, the server's reply Send flushes attempt 2's request,
  // and the second reply's Send flushes the FIRST reply to the client —
  // all inline, *during* attempt 2's Send. The partition effectively
  // "heals" mid-call. The client must accept that late reply to the
  // earlier attempt (its id is still registered), complete the call
  // with exactly one counted retry, and count nothing as stale. The old
  // accounting erased attempt 1's id on timeout, discarded the reply as
  // stale, and the call could never complete under this schedule.
  VirtualTime vt;
  InProcessTransport inner(InProcessTransport::Mode::kInline);
  FaultProfile all_delay;
  all_delay.delay_p = 1.0;
  FaultInjectingTransport fault(&inner, all_delay, 11);

  RpcServer::Options sopts;
  sopts.clock = vt.clock();
  RpcServer server(&fault, 1, sopts);
  server.Handle(MessageType::kChunkPut,
                [](int, const std::vector<uint8_t>& payload) {
                  return Result<std::vector<uint8_t>>(payload);  // echo
                });
  RpcClient::Options copts;
  copts.clock = vt.clock();
  copts.sleep = vt.sleep();
  RpcClient client(&fault, 0, copts);
  ASSERT_TRUE(BindNode(&fault, 0, nullptr, &client).ok());
  ASSERT_TRUE(BindNode(&fault, 1, &server, nullptr).ok());

  const int64_t retries_before =
      Metrics::Instance().counter("scidb.net.retries")->value();
  const int64_t stale_before =
      Metrics::Instance().counter("scidb.net.stale_responses")->value();

  CallOptions call;
  call.deadline_ns = 1'000'000'000;
  call.attempt_timeout_ns = 10'000'000;
  call.max_attempts = 4;
  call.backoff_base_ns = 1'000'000;
  Result<std::vector<uint8_t>> got =
      client.Call(1, MessageType::kChunkPut, {0xAB, 0xCD}, call);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, (std::vector<uint8_t>{0xAB, 0xCD}));

  EXPECT_EQ(Metrics::Instance().counter("scidb.net.retries")->value(),
            retries_before + 1);
  EXPECT_EQ(Metrics::Instance().counter("scidb.net.stale_responses")->value(),
            stale_before);

  // The reply to attempt 2 is still in the hold queue; once flushed it
  // really is stale (the call is over) and must be counted as such, not
  // crash into a dangling slot.
  ASSERT_TRUE(fault.Flush().ok());
  EXPECT_EQ(Metrics::Instance().counter("scidb.net.stale_responses")->value(),
            stale_before + 1);
}

TEST(FaultInjectionTest, FramesHeldAcrossPartitionAreDropped) {
  FaultProfile all_delay;
  all_delay.delay_p = 1.0;
  InProcessTransport inner(InProcessTransport::Mode::kInline);
  FaultInjectingTransport fault(&inner, all_delay, 5);
  std::vector<uint64_t> at1;
  ASSERT_TRUE(fault.Register(0, [](int, Frame) {}).ok());
  ASSERT_TRUE(fault
                  .Register(1,
                            [&at1](int, Frame f) {
                              at1.push_back(f.request_id);
                            })
                  .ok());
  ASSERT_TRUE(fault.Send(0, 1, MakeFrame(1)).ok());  // held
  fault.PartitionNode(1);
  // The held frame's endpoint is now partitioned: the flush path must
  // drop it, not deliver around the partition.
  ASSERT_TRUE(fault.Send(0, 1, MakeFrame(2)).ok());
  ASSERT_TRUE(fault.Flush().ok());
  EXPECT_TRUE(at1.empty());
  EXPECT_EQ(fault.frames_dropped(), 2);
}

}  // namespace
}  // namespace net
}  // namespace scidb
