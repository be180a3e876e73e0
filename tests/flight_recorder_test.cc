// Flight recorder (DESIGN.md §12): a fixed-size lock-free ring of
// structured events. The tests pin the observable contract — ordered
// dumps, newest-events-win overwrite, the kill switch, the session knob,
// and the abort path that prints the timeline when the lock-order
// detector fires mid-fault-injection.

#include "common/flight_recorder.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "net/fault_injection.h"
#include "net/inprocess_transport.h"
#include "query/session.h"

namespace scidb {
namespace {

TEST(FlightRecorderTest, RecordAtDumpsInOrderWithExactFields) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Clear();
  rec.RecordAt(100, FlightEventKind::kMark, 1, 10, 20);
  rec.RecordAt(200, FlightEventKind::kRpcSend, 2, 30, 40);
  rec.RecordAt(300, FlightEventKind::kCacheEvict, -1, 50, 60);

  std::vector<FlightEvent> events = rec.Dump();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].t_ns, 100u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kMark);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_EQ(events[0].a, 10u);
  EXPECT_EQ(events[0].b, 20u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kRpcSend);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[2].t_ns, 300u);
  // node = -1 (not node-scoped) survives the 32-bit meta packing.
  EXPECT_EQ(events[2].node, -1);
  EXPECT_EQ(events[2].a, 50u);
  EXPECT_EQ(events[2].b, 60u);

  const std::string text = rec.DumpToString();
  EXPECT_NE(text.find("flight recorder: 3 event(s), oldest first"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("seq=1 t=200ns RpcSend node=2 a=30 b=40"),
            std::string::npos)
      << text;
  rec.Clear();
}

TEST(FlightRecorderTest, OverwriteKeepsTheNewestRingSizeEvents) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Clear();
  constexpr uint64_t kExtra = 100;
  constexpr uint64_t kTotal = FlightRecorder::kRingSize + kExtra;
  for (uint64_t i = 0; i < kTotal; ++i) {
    rec.RecordAt(i, FlightEventKind::kMark, 0, i, 0);
  }
  std::vector<FlightEvent> events = rec.Dump();
  // The oldest kExtra events were overwritten; the survivors are the
  // newest kRingSize, still oldest-first and gap-free.
  ASSERT_EQ(events.size(), FlightRecorder::kRingSize);
  EXPECT_EQ(events.front().seq, kExtra);
  EXPECT_EQ(events.front().a, kExtra);
  EXPECT_EQ(events.back().seq, kTotal - 1);
  EXPECT_EQ(events.back().a, kTotal - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  rec.Clear();
}

TEST(FlightRecorderTest, KillSwitchStopsRecording) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Clear();
  ASSERT_TRUE(FlightRecorder::enabled());  // process default: on
  FlightRecorder::set_enabled(false);
  rec.Record(FlightEventKind::kMark, 0, 1);
  rec.RecordAt(5, FlightEventKind::kMark, 0, 2);
  EXPECT_EQ(rec.Dump().size(), 0u);
  FlightRecorder::set_enabled(true);
  rec.RecordAt(6, FlightEventKind::kMark, 0, 3);
  std::vector<FlightEvent> events = rec.Dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].a, 3u);
  rec.Clear();
}

TEST(FlightRecorderTest, KindVocabularyNamesAndBounds) {
  EXPECT_FALSE(IsValidFlightEventKind(0));
  for (uint8_t k = 1; k <= 16; ++k) {
    EXPECT_TRUE(IsValidFlightEventKind(k)) << static_cast<int>(k);
  }
  EXPECT_FALSE(IsValidFlightEventKind(17));
  EXPECT_FALSE(IsValidFlightEventKind(200));
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kRpcSend), "RpcSend");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kFaultDrop),
               "FaultDrop");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kShardScan),
               "ShardScan");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kMark), "Mark");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kFailoverRead),
               "FailoverRead");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kNodeDead), "NodeDead");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kRereplicate),
               "Rereplicate");
}

TEST(FlightRecorderTest, AqlCannotToggleTheProcessWideRecorder) {
  // The recorder is process-wide, so no one session may switch it off for
  // every other client; FlightRecorder::set_enabled is the C++ switch.
  Session session;
  ASSERT_TRUE(FlightRecorder::enabled());

  auto off = session.Execute("set flight_recorder = 0");
  ASSERT_TRUE(off.status().IsInvalid()) << off.status().ToString();
  EXPECT_NE(off.status().ToString().find("unknown session option"),
            std::string::npos)
      << off.status().ToString();
  EXPECT_TRUE(FlightRecorder::enabled());
}

TEST(FlightRecorderTest, FaultInjectionEventsAppearInDumpInOrder) {
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.Clear();
  net::InProcessTransport inner;
  net::FaultProfile all_drops;
  all_drops.drop_p = 1.0;
  net::FaultInjectingTransport transport(&inner, all_drops, /*seed=*/11);
  net::Frame frame;
  frame.type = net::MessageType::kChunkPut;
  frame.request_id = 41;
  ASSERT_TRUE(transport.Send(0, 1, frame).ok());  // eaten by the injector
  frame.request_id = 42;
  ASSERT_TRUE(transport.Send(0, 1, frame).ok());
  EXPECT_EQ(transport.frames_dropped(), 2);

  std::vector<FlightEvent> events = rec.Dump();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kFaultDrop);
  EXPECT_EQ(events[0].a, 41u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kFaultDrop);
  EXPECT_EQ(events[1].a, 42u);
  rec.Clear();
}

#if SCIDB_LOCK_ORDER_CHECKS

TEST(FlightRecorderDeathTest, AbortDumpContainsInjectedEventsInOrder) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A lock-order abort must come with the flight-recorder timeline: the
  // injected fault and the markers recorded before the inversion show
  // up in the stderr dump, in recording order, after the detector's
  // report.
  EXPECT_DEATH(
      {
        net::InProcessTransport inner;
        net::FaultProfile all_drops;
        all_drops.drop_p = 1.0;
        net::FaultInjectingTransport transport(&inner, all_drops,
                                               /*seed=*/7);
        net::Frame frame;
        frame.type = net::MessageType::kChunkPut;
        frame.request_id = 99;
        (void)transport.Send(0, 1, frame);  // status-ignored: death test only wants the FaultDrop event
        FlightRecorder::Instance().Record(FlightEventKind::kMark, 0, 1);
        FlightRecorder::Instance().Record(FlightEventKind::kMark, 0, 2);
        Mutex a("flight.death.a");
        Mutex b("flight.death.b");
        {
          MutexLock la(a);
          MutexLock lb(b);  // NOLINT(lock-order): inversion under test — drives the recorder dump
        }
        {
          MutexLock lb(b);
          MutexLock la(a);  // inversion: aborts and dumps the recorder
        }
      },
      "lock-order violation.*flight recorder.*FaultDrop.*Mark.*Mark");
}

#endif  // SCIDB_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace scidb
