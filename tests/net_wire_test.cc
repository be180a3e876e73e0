#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "exec/expr_serde.h"
#include "net/message.h"
#include "types/uncertain.h"
#include "types/value_serde.h"

namespace scidb {
namespace net {
namespace {

std::vector<uint8_t> EncodeValueBytes(const Value& v) {
  ByteWriter w;
  EncodeValue(v, &w);
  return w.Release();
}

// ------------------------------- Status -----------------------------------

TEST(WireStatusTest, RoundTripsEveryCode) {
  const Status cases[] = {
      Status::OK(),
      Status::Invalid("bad arg"),
      Status::NotFound("missing chunk"),
      Status::Corruption("checksum"),
      Status::Unavailable("node 3 partitioned"),
      Status::DeadlineExceeded("rpc timed out"),
  };
  for (const Status& s : cases) {
    ByteWriter w;
    EncodeStatus(s, &w);
    std::vector<uint8_t> bytes = w.Release();
    ByteReader r(bytes.data(), bytes.size());
    Status decoded = Status::Internal("sentinel");
    ASSERT_TRUE(DecodeStatus(&r, &decoded).ok()) << s.ToString();
    EXPECT_EQ(decoded.code(), s.code());
    EXPECT_EQ(decoded.message(), s.message());
  }
}

TEST(WireStatusTest, RejectsOutOfRangeCode) {
  ByteWriter w;
  w.PutU8(99);  // far past kDeadlineExceeded
  w.PutString("whatever");
  std::vector<uint8_t> bytes = w.Release();
  ByteReader r(bytes.data(), bytes.size());
  Status decoded;
  Status parse = DecodeStatus(&r, &decoded);
  ASSERT_FALSE(parse.ok());
  EXPECT_TRUE(parse.IsCorruption());
}

TEST(WireStatusTest, RejectsTruncation) {
  ByteWriter w;
  EncodeStatus(Status::Invalid("a message long enough to truncate"), &w);
  std::vector<uint8_t> bytes = w.Release();
  ByteReader r(bytes.data(), bytes.size() - 5);
  Status decoded;
  EXPECT_FALSE(DecodeStatus(&r, &decoded).ok());
}

// ------------------------------- Value ------------------------------------

TEST(WireValueTest, RoundTripsEveryKind) {
  const Value cases[] = {
      Value::Null(),
      Value(true),
      Value(false),
      Value(int64_t{0}),
      Value(int64_t{-1}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(3.14159),
      Value(-0.0),
      Value(std::string()),
      Value(std::string("with\0nul", 8)),
      Value(Uncertain(2.5, 0.25)),
  };
  for (const Value& v : cases) {
    std::vector<uint8_t> bytes = EncodeValueBytes(v);
    ByteReader r(bytes.data(), bytes.size());
    Result<Value> decoded = DecodeValue(&r);
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    // Fixed point: re-encoding the decoded value is byte-identical, which
    // implies structural equality without needing Value::operator==.
    EXPECT_EQ(EncodeValueBytes(decoded.value()), bytes) << v.ToString();
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(WireValueTest, RoundTripsNestedArray) {
  auto arr = std::make_shared<NestedArray>();
  arr->shape = {2, 2};
  arr->values = {Value(1.0), Value(2.0), Value::Null(), Value(int64_t{7})};
  Value v(std::move(arr));
  std::vector<uint8_t> bytes = EncodeValueBytes(v);
  ByteReader r(bytes.data(), bytes.size());
  Result<Value> decoded = DecodeValue(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(EncodeValueBytes(decoded.value()), bytes);
}

TEST(WireValueTest, RejectsUnknownTagAndHostileCounts) {
  {
    uint8_t bytes[] = {200};
    ByteReader r(bytes, 1);
    Result<Value> v = DecodeValue(&r);
    ASSERT_FALSE(v.ok());
    EXPECT_TRUE(v.status().IsCorruption());
  }
  {
    // Nested array claiming 2^40 dimensions in a 7-byte payload: the
    // count guard must fire before any allocation.
    ByteWriter w;
    w.PutU8(6);  // kNestedArray tag
    w.PutVarint(uint64_t{1} << 40);
    std::vector<uint8_t> bytes = w.Release();
    ByteReader r(bytes.data(), bytes.size());
    Result<Value> v = DecodeValue(&r);
    ASSERT_FALSE(v.ok());
    EXPECT_TRUE(v.status().IsCorruption());
  }
}

TEST(WireValueTest, RejectsOverDeepNesting) {
  // Hand-craft kMaxWireDepth+1 nested single-element arrays; the decoder
  // must stop at the cap instead of recursing down hostile input.
  ByteWriter w;
  for (int i = 0; i < kMaxWireDepth + 1; ++i) {
    w.PutU8(6);       // kNestedArray
    w.PutVarint(0);   // no dims
    w.PutVarint(1);   // one element
  }
  w.PutU8(0);  // innermost: null
  std::vector<uint8_t> bytes = w.Release();
  ByteReader r(bytes.data(), bytes.size());
  Result<Value> v = DecodeValue(&r);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsCorruption());
}

// ---------------------------- Coordinates ---------------------------------

TEST(WireCoordinatesTest, RoundTrips) {
  const Coordinates cases[] = {
      {},
      {1},
      {0, -1, 1},
      {std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max()},
  };
  for (const Coordinates& c : cases) {
    ByteWriter w;
    EncodeCoordinates(c, &w);
    std::vector<uint8_t> bytes = w.Release();
    ByteReader r(bytes.data(), bytes.size());
    Result<Coordinates> decoded = DecodeCoordinates(&r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), c);
  }
}

TEST(WireCoordinatesTest, RejectsHostileCount) {
  ByteWriter w;
  w.PutVarint(uint64_t{1} << 50);
  std::vector<uint8_t> bytes = w.Release();
  ByteReader r(bytes.data(), bytes.size());
  Result<Coordinates> decoded = DecodeCoordinates(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

// -------------------------------- Expr ------------------------------------

std::vector<uint8_t> EncodeExprBytes(const Expr& e) {
  ByteWriter w;
  EncodeExpr(e, &w);
  return w.Release();
}

TEST(WireExprTest, PredicateRoundTripsStructurally) {
  // The kind of predicate ScanShard actually ships.
  ExprPtr pred = And(Lt(Ref("ra"), Lit(int64_t{10})),
                     Or(Eq(Ref("dec"), Lit(3.5)),
                        Not(Call("even", {Ref("flux")}))));
  std::vector<uint8_t> bytes = EncodeExprBytes(*pred);
  ByteReader r(bytes.data(), bytes.size());
  Result<ExprPtr> decoded = DecodeExpr(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(r.remaining(), 0u);
  // Fixed point ⇒ node-for-node identical tree.
  EXPECT_EQ(EncodeExprBytes(*decoded.value()), bytes);
}

TEST(WireExprTest, RejectsUnknownTagOpAndSide) {
  {
    uint8_t bytes[] = {99};
    ByteReader r(bytes, 1);
    EXPECT_FALSE(DecodeExpr(&r).ok());
  }
  {
    ByteWriter w;
    w.PutU8(3);    // kBinary
    w.PutU8(200);  // op out of range
    std::vector<uint8_t> bytes = w.Release();
    ByteReader r(bytes.data(), bytes.size());
    Result<ExprPtr> e = DecodeExpr(&r);
    ASSERT_FALSE(e.ok());
    EXPECT_TRUE(e.status().IsCorruption());
  }
  {
    ByteWriter w;
    w.PutU8(2);  // kRef
    w.PutString("x");
    w.PutSignedVarint(5);  // side out of range
    std::vector<uint8_t> bytes = w.Release();
    ByteReader r(bytes.data(), bytes.size());
    Result<ExprPtr> e = DecodeExpr(&r);
    ASSERT_FALSE(e.ok());
    EXPECT_TRUE(e.status().IsCorruption());
  }
}

TEST(WireExprTest, RejectsOverDeepNesting) {
  ByteWriter w;
  for (int i = 0; i < kMaxWireDepth + 1; ++i) w.PutU8(4);  // kNot chain
  w.PutU8(1);  // kLiteral
  w.PutU8(0);  // null value
  std::vector<uint8_t> bytes = w.Release();
  ByteReader r(bytes.data(), bytes.size());
  Result<ExprPtr> e = DecodeExpr(&r);
  ASSERT_FALSE(e.ok());
  EXPECT_TRUE(e.status().IsCorruption());
}

// ---------------------------- typed messages ------------------------------

TEST(WireMessageTest, ChunkPutRoundTrips) {
  ChunkPutRequest req;
  req.chunk_bytes = {0, 1, 2, 3, 250};
  Result<ChunkPutRequest> back = ChunkPutRequest::Decode(req.EncodePayload());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().chunk_bytes, req.chunk_bytes);
  // The older layout led with the load epoch; its bytes no longer parse.
  const std::vector<uint8_t> with_epoch = {0x06, 0x06, 0xde, 0xad,
                                           0xbe, 0xef, 0x01, 0x02};
  EXPECT_FALSE(ChunkPutRequest::Decode(with_epoch).ok());
}

TEST(WireMessageTest, ChunkGetRoundTrips) {
  ChunkGetRequest req;
  req.origin = {9, -17, 0};
  Result<ChunkGetRequest> back = ChunkGetRequest::Decode(req.EncodePayload());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().origin, req.origin);
}

TEST(WireMessageTest, ScanShardRoundTripsWithAndWithoutPredicate) {
  {
    ScanShardRequest req;  // no predicate bytes = full scan
    Result<ScanShardRequest> back =
        ScanShardRequest::Decode(req.EncodePayload());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value().pred_bytes.empty());
  }
  {
    // The predicate travels as opaque expr_serde bytes; the message
    // layer must hand them back verbatim, and they must still decode to
    // a tree whose re-encoding is byte-identical.
    ScanShardRequest req;
    ExprPtr pred = Gt(Ref("flux"), Lit(0.5));
    req.pred_bytes = EncodeExprBytes(*pred);
    Result<ScanShardRequest> back =
        ScanShardRequest::Decode(req.EncodePayload());
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back.value().pred_bytes, req.pred_bytes);
    ByteReader pr(back.value().pred_bytes.data(),
                  back.value().pred_bytes.size());
    Result<ExprPtr> decoded = DecodeExpr(&pr);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(pr.remaining(), 0u);
    EXPECT_EQ(EncodeExprBytes(*decoded.value()), req.pred_bytes);
  }
  {
    // No origins, presence flag set but nothing after it: corrupt.
    std::vector<uint8_t> payload = {0, 1};
    EXPECT_FALSE(ScanShardRequest::Decode(payload).ok());
  }
}

TEST(WireMessageTest, ScanShardOriginsRoundTrip) {
  ScanShardRequest req;
  req.origins = {{1, 1}, {-17, 9}, {5, 0}};
  req.pred_bytes = EncodeExprBytes(*Gt(Ref("flux"), Lit(0.5)));
  const std::vector<uint8_t> payload = req.EncodePayload();
  Result<ScanShardRequest> back = ScanShardRequest::Decode(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().origins, req.origins);
  EXPECT_EQ(back.value().pred_bytes, req.pred_bytes);
  EXPECT_EQ(back.value().EncodePayload(), payload);
  // The older view/dead-set layouts (own slot; failover for slot 2 with
  // nodes 1 and 3 suspect) are rejected rather than misread: each reaches
  // a zero-dimensional origin, which names no chunk.
  EXPECT_FALSE(ScanShardRequest::Decode({0x01, 0x00, 0x00}).ok());
  EXPECT_FALSE(ScanShardRequest::Decode({0x04, 0x02, 0x01, 0x03, 0x00}).ok());
}

TEST(WireMessageTest, ScanShardResponseRoundTrips) {
  ScanShardResponse resp;
  resp.chunks = {{1, 2, 3}, {}, {255}};
  Result<ScanShardResponse> back =
      ScanShardResponse::Decode(resp.EncodePayload());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().chunks, resp.chunks);
}

TEST(WireMessageTest, NodeStatsRoundTrips) {
  NodeStatsResponse resp;
  resp.cells_stored = 10;
  resp.bytes_stored = 1 << 20;
  resp.cells_scanned = 33;
  resp.bytes_scanned = 44;
  Result<NodeStatsResponse> back =
      NodeStatsResponse::Decode(resp.EncodePayload());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().cells_stored, 10);
  EXPECT_EQ(back.value().bytes_stored, 1 << 20);
  EXPECT_EQ(back.value().cells_scanned, 33);
  EXPECT_EQ(back.value().bytes_scanned, 44);
}

TEST(WireMessageTest, ErrorPayloadRoundTripsStatus) {
  Status shipped = Status::NotFound("chunk at {3, 5}");
  Status back = Status::OK();
  ASSERT_TRUE(DecodeErrorPayload(EncodeErrorPayload(shipped), &back).ok());
  EXPECT_TRUE(back.IsNotFound());
  EXPECT_EQ(back.message(), shipped.message());

  Status parse = DecodeErrorPayload({0xFF, 0xFF}, &back);
  EXPECT_FALSE(parse.ok());
}

TEST(WireMessageTest, DecodeRejectsGarbage) {
  std::vector<uint8_t> garbage = {9, 9, 9, 9, 9, 9, 9, 9};
  EXPECT_FALSE(ChunkPutRequest::Decode(garbage).ok());
  EXPECT_FALSE(ChunkGetRequest::Decode(garbage).ok());
  EXPECT_FALSE(ScanShardRequest::Decode(garbage).ok());
  EXPECT_FALSE(ScanShardResponse::Decode(garbage).ok());
  EXPECT_FALSE(NodeStatsResponse::Decode(garbage).ok());
  EXPECT_FALSE(TraceGetResponse::Decode(garbage).ok());
}

TEST(WireMessageTest, MetricsGetRoundTrips) {
  for (uint8_t flag : {uint8_t{0}, uint8_t{1}}) {
    MetricsGetRequest req;
    req.include_process = flag;
    Result<MetricsGetRequest> back =
        MetricsGetRequest::Decode(req.EncodePayload());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().include_process, flag);
  }
  // The flag is a strict boolean on the wire.
  EXPECT_FALSE(MetricsGetRequest::Decode({2}).ok());

  MetricsGetResponse resp;
  const std::string json = "{\"metrics\":[]}";
  resp.json.assign(json.begin(), json.end());
  Result<MetricsGetResponse> rback =
      MetricsGetResponse::Decode(resp.EncodePayload());
  ASSERT_TRUE(rback.ok()) << rback.status().ToString();
  EXPECT_EQ(rback.value().json, resp.json);
}

TEST(WireMessageTest, TraceGetRoundTripsSpansAndEvents) {
  TraceGetRequest req;
  req.trace_id = 77;
  req.include_flight = 1;
  Result<TraceGetRequest> back = TraceGetRequest::Decode(req.EncodePayload());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().trace_id, 77u);
  EXPECT_EQ(back.value().include_flight, 1);

  TraceGetResponse resp;
  SpanRecord span;
  span.trace_id = 77;
  span.span_id = 5;
  span.parent_span_id = 2;
  span.node = 3;
  span.label = "server.ChunkPut";
  span.start_ns = 1000;
  span.wall_ns = 250;
  span.AddNote("src", 4);
  span.AddNote("ok", 1);
  resp.spans.push_back(span);
  FlightEvent ev;
  ev.seq = 9;
  ev.t_ns = 1234;
  ev.kind = FlightEventKind::kFaultDrop;
  ev.node = -1;
  ev.a = 42;
  ev.b = 1;
  resp.events.push_back(ev);

  Result<TraceGetResponse> rback =
      TraceGetResponse::Decode(resp.EncodePayload());
  ASSERT_TRUE(rback.ok()) << rback.status().ToString();
  ASSERT_EQ(rback.value().spans.size(), 1u);
  const SpanRecord& s = rback.value().spans[0];
  EXPECT_EQ(s.trace_id, 77u);
  EXPECT_EQ(s.span_id, 5u);
  EXPECT_EQ(s.parent_span_id, 2u);
  EXPECT_EQ(s.node, 3);
  EXPECT_EQ(s.label, "server.ChunkPut");
  EXPECT_EQ(s.start_ns, 1000u);
  EXPECT_EQ(s.wall_ns, 250u);
  ASSERT_EQ(s.notes.size(), 2u);
  EXPECT_EQ(s.notes[0].first, "src");
  EXPECT_EQ(s.notes[0].second, 4.0);
  ASSERT_EQ(rback.value().events.size(), 1u);
  const FlightEvent& e = rback.value().events[0];
  EXPECT_EQ(e.seq, 9u);
  EXPECT_EQ(e.t_ns, 1234u);
  EXPECT_EQ(e.kind, FlightEventKind::kFaultDrop);
  EXPECT_EQ(e.node, -1);
  EXPECT_EQ(e.a, 42u);
  EXPECT_EQ(e.b, 1u);

  // An out-of-vocabulary event kind is rejected at decode, not passed
  // on. With no spans, the layout is fixed: span count (1 varint byte),
  // event count (1 byte), seq (8), t_ns (8), then the kind byte.
  TraceGetResponse events_only;
  events_only.events.push_back(ev);
  std::vector<uint8_t> bytes = events_only.EncodePayload();
  ASSERT_EQ(bytes[18], static_cast<uint8_t>(FlightEventKind::kFaultDrop));
  bytes[18] = 200;  // not a FlightEventKind
  EXPECT_FALSE(TraceGetResponse::Decode(bytes).ok());
}

}  // namespace
}  // namespace net
}  // namespace scidb
