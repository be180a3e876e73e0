// Property-based tests: randomized inputs checked against reference
// models or algebraic invariants, parameterized over seeds (TEST_P).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/operators.h"
#include "storage/chunk_serde.h"
#include "storage/codec.h"
#include "version/history.h"

namespace scidb {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SeededTest() {
    ctx_.functions = &fns_;
    ctx_.aggregates = &aggs_;
  }
  FunctionRegistry fns_;
  AggregateRegistry aggs_;
  ExecContext ctx_;
};

// ---- MemArray behaves like a map<Coordinates, double> ----

TEST_P(SeededTest, MemArrayMatchesReferenceMap) {
  Rng rng(TestSeed(GetParam()));
  ArraySchema s("ref", {{"x", 1, 40, 7}, {"y", 1, 40, 9}},
                {{"v", DataType::kDouble, true, false}});
  MemArray arr(s);
  std::map<Coordinates, double> model;
  for (int op = 0; op < 2000; ++op) {
    Coordinates c{rng.UniformInt(1, 40), rng.UniformInt(1, 40)};
    double roll = rng.NextDouble();
    if (roll < 0.6) {  // set
      double v = rng.NextDouble() * 100;
      ASSERT_TRUE(arr.SetCell(c, Value(v)).ok());
      model[c] = v;
    } else if (roll < 0.8) {  // delete
      Status st = arr.DeleteCell(c);
      if (model.count(c)) {
        EXPECT_TRUE(st.ok());
        model.erase(c);
      } else {
        EXPECT_TRUE(st.IsNotFound());
      }
    } else {  // read
      auto got = arr.GetCell(c);
      auto want = model.find(c);
      ASSERT_EQ(got.has_value(), want != model.end());
      if (got.has_value()) {
        EXPECT_EQ((*got)[0].double_value(), want->second);
      }
    }
  }
  EXPECT_EQ(arr.CellCount(), static_cast<int64_t>(model.size()));
  // Full iteration agrees with the model.
  int64_t visited = 0;
  arr.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                      int64_t rank) {
    auto it = model.find(c);
    EXPECT_NE(it, model.end());
    EXPECT_EQ(chunk.block(0).GetDouble(rank), it->second);
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, static_cast<int64_t>(model.size()));
}

// ---- codecs are lossless on arbitrary byte strings ----

TEST_P(SeededTest, CodecsRoundTripRandomPayloads) {
  Rng rng(TestSeed(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    size_t len = rng.Uniform(5000);
    std::vector<uint8_t> payload(len);
    // Mix random and runny segments to exercise both codec paths.
    size_t i = 0;
    while (i < len) {
      if (rng.NextDouble() < 0.5) {
        size_t run = std::min(len - i, 1 + rng.Uniform(100));
        uint8_t b = static_cast<uint8_t>(rng.Next());
        for (size_t k = 0; k < run; ++k) payload[i++] = b;
      } else {
        size_t run = std::min(len - i, 1 + rng.Uniform(50));
        for (size_t k = 0; k < run; ++k) {
          payload[i++] = static_cast<uint8_t>(rng.Next());
        }
      }
    }
    for (CodecType c : {CodecType::kNone, CodecType::kRle, CodecType::kLz}) {
      auto decoded = Decompress(Compress(c, payload));
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value(), payload) << CodecTypeName(c);
    }
  }
}

// ---- every value codec round-trips bit-exactly through every codec ----

// A value for attribute `a` of ChunkPayloadRoundTrips: odd bit patterns
// (NaN payloads, -0.0, infinities, full-range int64s) turn up often.
Value RandomValue(Rng* rng, const AttributeDesc& a, size_t index) {
  auto any_double = [&]() {
    switch (rng->Uniform(6)) {
      case 0:
        return std::bit_cast<double>(rng->Next());
      case 1:
        return -0.0;
      case 2:
        return std::numeric_limits<double>::infinity();
      default:
        return std::round(rng->NextDouble() * 4096) / 64;
    }
  };
  switch (a.type) {
    case DataType::kBool:
      return Value(rng->Uniform(2) == 1);
    case DataType::kInt64:
      if (a.uncertain) {  // an uncertain int64 holds an integral mean
        const double mean = static_cast<double>(rng->UniformInt(-1000, 1000));
        return Value(Uncertain(mean, rng->NextDouble()));
      }
      return Value(rng->Uniform(3) == 0 ? static_cast<int64_t>(rng->Next())
                                        : rng->UniformInt(-300, 300));
    case DataType::kFloat: {
      const double f = static_cast<float>(any_double());
      return a.uncertain ? Value(Uncertain(f, 0.125)) : Value(f);
    }
    case DataType::kDouble:
      if (!a.uncertain) return Value(any_double());
      // Attribute 6 keeps one error bar; 7 varies it, NaN included.
      if (index == 6) return Value(Uncertain(any_double(), 0.5));
      return Value(Uncertain(any_double(), rng->Uniform(8) == 0
                                               ? std::nan("")
                                               : rng->NextDouble()));
    case DataType::kString: {
      std::string str(rng->Uniform(12), '\0');
      for (char& c : str) c = static_cast<char>(rng->Next());
      return Value(std::move(str));
    }
    case DataType::kArray: {
      auto na = std::make_shared<NestedArray>();
      na->shape = {rng->UniformInt(0, 3)};
      if (rng->Uniform(2) == 0) na->shape.push_back(rng->UniformInt(1, 2));
      for (int64_t k = 0; k < na->cell_count(); ++k) {
        na->values.emplace_back(any_double());
      }
      return Value(std::move(na));
    }
  }
  return Value::Null();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameChunk(const Chunk& want, const Chunk& got) {
  ASSERT_EQ(got.box(), want.box());
  ASSERT_EQ(got.present_count(), want.present_count());
  for (size_t a = 0; a < want.nattrs(); ++a) {
    const AttributeBlock& w = want.block(a);
    const AttributeBlock& g = got.block(a);
    EXPECT_EQ(g.has_constant_stderr(), w.has_constant_stderr()) << a;
    for (int64_t r = 0; r < want.cell_capacity(); ++r) {
      ASSERT_EQ(got.IsPresent(r), want.IsPresent(r)) << r;
      if (!want.IsPresent(r)) continue;
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << a << " @" << r;
      if (w.IsNull(r)) continue;
      const size_t i = static_cast<size_t>(r);
      switch (w.type()) {
        case DataType::kBool:
          EXPECT_EQ(g.bools()[i], w.bools()[i]) << a << " @" << r;
          break;
        case DataType::kInt64:
          EXPECT_EQ(g.int64s()[i], w.int64s()[i]) << a << " @" << r;
          break;
        case DataType::kFloat:
          EXPECT_EQ(std::bit_cast<uint32_t>(g.floats()[i]),
                    std::bit_cast<uint32_t>(w.floats()[i]))
              << a << " @" << r;
          break;
        case DataType::kDouble:
          EXPECT_TRUE(SameBits(g.doubles()[i], w.doubles()[i]))
              << a << " @" << r;
          break;
        case DataType::kString:
          EXPECT_EQ(g.Get(r).string_value(), w.Get(r).string_value())
              << a << " @" << r;
          break;
        case DataType::kArray: {
          const NestedArray& wa = *w.Get(r).array_value();
          const NestedArray& ga = *g.Get(r).array_value();
          EXPECT_EQ(ga.shape, wa.shape) << a << " @" << r;
          ASSERT_EQ(ga.values.size(), wa.values.size());
          for (size_t k = 0; k < wa.values.size(); ++k) {
            EXPECT_TRUE(SameBits(ga.values[k].double_value(),
                                 wa.values[k].double_value()));
          }
          break;
        }
      }
      if (w.uncertain()) {
        EXPECT_TRUE(SameBits(g.GetStderr(r), w.GetStderr(r)))
            << a << " @" << r;
      }
    }
  }
}

TEST_P(SeededTest, ChunkPayloadRoundTripsEveryTypeAndCodec) {
  Rng rng(TestSeed(GetParam()));
  const std::vector<AttributeDesc> attrs = {
      {"b", DataType::kBool, true, false},
      {"i", DataType::kInt64, true, false},
      {"f", DataType::kFloat, true, false},
      {"d", DataType::kDouble, true, false},
      {"s", DataType::kString, true, false},
      {"a", DataType::kArray, true, false},
      {"uc", DataType::kDouble, true, true},  // constant stderr
      {"uv", DataType::kDouble, true, true},  // varying stderr
      {"ui", DataType::kInt64, true, true},
      {"uf", DataType::kFloat, true, true},
      {"none", DataType::kDouble, true, false}};  // every cell NULL
  for (int trial = 0; trial < 16; ++trial) {
    const Box box({-3, 5},
                  {-3 + rng.UniformInt(0, 11), 5 + rng.UniformInt(0, 11)});
    Chunk chunk(box, attrs);
    // Trial 0 has no present cell; trial 1 is dense without NULLs.
    const double density =
        trial == 0 ? 0.0 : trial == 1 ? 1.0 : rng.NextDouble();
    const double null_rate = trial == 1 ? 0.0 : rng.NextDouble() * 0.5;
    for (int64_t r = 0; r < chunk.cell_capacity(); ++r) {
      if (rng.NextDouble() >= density) continue;
      std::vector<Value> cell;
      for (size_t a = 0; a < attrs.size(); ++a) {
        const bool null = a + 1 == attrs.size() || rng.NextDouble() < null_rate;
        cell.push_back(null ? Value::Null() : RandomValue(&rng, attrs[a], a));
      }
      chunk.SetCell(UnrankInBox(box, r), cell);
    }
    const std::vector<uint8_t> raw = SerializeChunk(chunk);
    for (CodecType c : {CodecType::kNone, CodecType::kRle, CodecType::kLz}) {
      auto decoded = Decompress(Compress(c, raw));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(decoded.value(), raw) << CodecTypeName(c);
      auto back = DeserializeChunk(decoded.value(), attrs);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ExpectSameChunk(chunk, back.value());
      EXPECT_EQ(SerializeChunk(back.value()), raw) << CodecTypeName(c);
    }
  }
}

// ---- corrupted chunk images never crash, only error ----

TEST_P(SeededTest, ChunkSerdeSurvivesCorruption) {
  Rng rng(TestSeed(GetParam()));
  std::vector<AttributeDesc> attrs = {
      {"v", DataType::kDouble, true, false},
      {"n", DataType::kInt64, true, false},
      {"s", DataType::kString, true, false}};
  Chunk chunk(Box({1, 1}, {6, 6}), attrs);
  for (int k = 0; k < 20; ++k) {
    chunk.SetCell({rng.UniformInt(1, 6), rng.UniformInt(1, 6)},
                  {Value(rng.NextDouble()), Value(rng.UniformInt(-99, 99)),
                   Value(std::string("str") +
                         std::to_string(rng.Uniform(10)))});
  }
  auto bytes = SerializeChunk(chunk);
  // Truncations at arbitrary points.
  for (int trial = 0; trial < 30; ++trial) {
    auto bad = bytes;
    bad.resize(rng.Uniform(bytes.size()));
    auto r = DeserializeChunk(bad, attrs);  // must not crash
    if (r.ok()) {
      // An unlucky truncation landing on a record boundary may parse; it
      // must then at least carry the right box.
      EXPECT_EQ(r.value().box(), chunk.box());
    }
  }
  // Single-byte flips: either outcome is fine; it must never crash.
  int parsed = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto bad = bytes;
    bad[rng.Uniform(bad.size())] ^=
        static_cast<uint8_t>(1 + rng.Uniform(255));
    auto r = DeserializeChunk(bad, attrs);
    if (r.ok()) ++parsed;
  }
  EXPECT_LE(parsed, 30);
}

// ---- Reshape is a bijection: reshaping back restores the array ----

TEST_P(SeededTest, ReshapeRoundTripIsIdentity) {
  Rng rng(TestSeed(GetParam()));
  ArraySchema s("g", {{"X", 1, 4, 4}, {"Y", 1, 6, 6}},
                {{"v", DataType::kDouble, true, false}});
  MemArray g(s);
  for (int64_t x = 1; x <= 4; ++x) {
    for (int64_t y = 1; y <= 6; ++y) {
      if (rng.NextDouble() < 0.7) {
        ASSERT_TRUE(g.SetCell({x, y}, Value(rng.NextDouble())).ok());
      }
    }
  }
  MemArray flat =
      Reshape(ctx_, g, {"X", "Y"}, {{"L", 1, 24, 24}}).ValueOrDie();
  MemArray back = Reshape(ctx_, flat, {"L"},
                          {{"X", 1, 4, 4}, {"Y", 1, 6, 6}})
                      .ValueOrDie();
  EXPECT_EQ(back.CellCount(), g.CellCount());
  g.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                    int64_t rank) {
    auto cell = back.GetCell(c);
    EXPECT_TRUE(cell.has_value());
    if (cell.has_value()) {
      EXPECT_EQ((*cell)[0].double_value(), chunk.block(0).GetDouble(rank));
    }
    return true;
  });
}

// ---- Aggregate merge equals aggregate of the union, any partitioning ----

TEST_P(SeededTest, AggregateMergeAssociativity) {
  Rng rng(TestSeed(GetParam()));
  for (const char* agg : {"sum", "count", "avg", "min", "max", "stddev"}) {
    const AggregateFunction* fn = aggs_.Find(agg).ValueOrDie();
    std::vector<double> values;
    for (int i = 0; i < 200; ++i) {
      values.push_back(rng.NextGaussian() * 10);
    }
    auto whole = fn->NewState();
    for (double v : values) ASSERT_TRUE(whole->Accumulate(Value(v)).ok());

    // Random partitioning into 4 parts, merged in random order.
    std::vector<std::unique_ptr<AggregateState>> parts;
    for (int p = 0; p < 4; ++p) parts.push_back(fn->NewState());
    for (double v : values) {
      ASSERT_TRUE(parts[rng.Uniform(4)]->Accumulate(Value(v)).ok());
    }
    auto merged = fn->NewState();
    for (auto& p : parts) ASSERT_TRUE(merged->Merge(*p).ok());

    Value a = whole->Finalize();
    Value b = merged->Finalize();
    ASSERT_EQ(a.is_null(), b.is_null()) << agg;
    if (!a.is_null()) {
      EXPECT_NEAR(a.AsDouble().ValueOrDie(), b.AsDouble().ValueOrDie(),
                  1e-9)
          << agg;
    }
  }
}

// ---- Subsample(p and q) == Subsample(Subsample(p), q) ----

TEST_P(SeededTest, SubsampleComposition) {
  Rng rng(TestSeed(GetParam()));
  ArraySchema s("f", {{"X", 1, 30, 8}, {"Y", 1, 30, 8}},
                {{"v", DataType::kDouble, true, false}});
  MemArray f(s);
  for (int k = 0; k < 400; ++k) {
    ASSERT_TRUE(f.SetCell({rng.UniformInt(1, 30), rng.UniformInt(1, 30)},
                          Value(rng.NextDouble()))
                    .ok());
  }
  int64_t xc = rng.UniformInt(5, 25);
  int64_t yc = rng.UniformInt(5, 25);
  ExprPtr p = Le(Ref("X"), Lit(xc));
  ExprPtr q = Ge(Ref("Y"), Lit(yc));
  MemArray once = Subsample(ctx_, f, And(p, q)).ValueOrDie();
  MemArray twice =
      Subsample(ctx_, Subsample(ctx_, f, p).ValueOrDie(), q).ValueOrDie();
  EXPECT_EQ(once.CellCount(), twice.CellCount());
  once.ForEachCell([&](const Coordinates& c, const Chunk&, int64_t) {
    EXPECT_TRUE(twice.Exists(c));
    return true;
  });
}

// ---- history: snapshot at h equals replaying a reference model ----

TEST_P(SeededTest, HistoryMatchesReferenceReplay) {
  Rng rng(TestSeed(GetParam()));
  ArraySchema s("h", {{"x", 1, 12, 5}},
                {{"v", DataType::kDouble, true, false}});
  HistoryArray arr(s);
  std::vector<std::map<int64_t, double>> model_states{{}};  // state at h=0
  for (int64_t h = 1; h <= 20; ++h) {
    std::map<int64_t, double> state = model_states.back();
    std::vector<CellUpdate> txn;
    int n = 1 + static_cast<int>(rng.Uniform(4));
    for (int k = 0; k < n; ++k) {
      int64_t x = rng.UniformInt(1, 12);
      if (rng.NextDouble() < 0.75 || !state.count(x)) {
        double v = rng.NextDouble();
        txn.push_back(CellUpdate::Set({x}, {Value(v)}));
        state[x] = v;
      } else {
        txn.push_back(CellUpdate::Delete({x}));
        state.erase(x);
      }
    }
    // Within-transaction ordering: later updates win; rebuild the state
    // from the txn to reflect set-after-delete etc.
    std::map<int64_t, double> replay = model_states.back();
    for (const auto& u : txn) {
      if (u.deleted) {
        replay.erase(u.coords[0]);
      } else {
        replay[u.coords[0]] = u.values[0].double_value();
      }
    }
    ASSERT_TRUE(arr.Commit(txn, 1000 + h).ok());
    model_states.push_back(std::move(replay));
  }
  // Every historical snapshot matches the model at that index.
  for (int64_t h = 1; h <= 20; ++h) {
    MemArray snap = arr.SnapshotAt(h).ValueOrDie();
    const auto& want = model_states[static_cast<size_t>(h)];
    EXPECT_EQ(snap.CellCount(), static_cast<int64_t>(want.size())) << h;
    for (const auto& [x, v] : want) {
      auto cell = snap.GetCell({x});
      ASSERT_TRUE(cell.has_value()) << "h=" << h << " x=" << x;
      EXPECT_EQ((*cell)[0].double_value(), v);
    }
  }
}

// ---- parallel aggregation: partial-merge associativity (DESIGN.md §8) ----
// Group-by results must be independent of (a) the pool width and (b) the
// order chunk partials are merged in. Inputs are integer-valued doubles,
// so every partial sum (including stddev's sum of squares) is exact in
// floating point and the equalities below are exact, not approximate.

TEST_P(SeededTest, AggregateIndependentOfWorkerCount) {
  Rng rng(TestSeed(GetParam()));
  ArraySchema s("w", {{"X", 1, 60, 7}, {"Y", 1, 60, 11}},
                {{"v", DataType::kDouble, true, false}});
  MemArray arr(s);
  std::map<int64_t, std::vector<double>> by_y;  // reference model
  for (int k = 0; k < 1500; ++k) {
    Coordinates c{rng.UniformInt(1, 60), rng.UniformInt(1, 60)};
    if (arr.Exists(c)) continue;
    double v = static_cast<double>(rng.UniformInt(-50, 50));
    ASSERT_TRUE(arr.SetCell(c, Value(v)).ok());
    by_y[c[1]].push_back(v);
  }

  // stddev has no reference-model branch below, but its bit-identity
  // across widths matters most: its Merge is the least associative.
  for (const char* agg : {"sum", "count", "avg", "min", "max", "stddev"}) {
    MemArray serial = Aggregate(ctx_, arr, {"Y"}, agg, "*").ValueOrDie();
    // Bit-identical across pool widths.
    for (int width : {1, 2, 8}) {
      ThreadPool pool(width);
      ExecContext pctx = ctx_;
      pctx.pool = &pool;
      MemArray par = Aggregate(pctx, arr, {"Y"}, agg, "*").ValueOrDie();
      ASSERT_EQ(par.CellCount(), serial.CellCount()) << agg;
      serial.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                             int64_t rank) {
        auto got = par.GetCell(c);
        EXPECT_TRUE(got.has_value()) << agg << " width " << width;
        if (got.has_value()) {
          const Value want = chunk.block(0).Get(rank);
          EXPECT_TRUE(want.is_null() == (*got)[0].is_null() &&
                      (want.is_null() ||
                       (want.is_int64()
                            ? want.int64_value() == (*got)[0].int64_value()
                            : want.double_value() ==
                                  (*got)[0].double_value())))
              << agg << " width " << width << " group y=" << c[0];
        }
        return true;
      });
    }
    // Equal to the reference model (exact: integer-valued inputs).
    for (const auto& [y, vals] : by_y) {
      auto cell = serial.GetCell({y});
      ASSERT_TRUE(cell.has_value()) << agg << " y=" << y;
      const Value& got = (*cell)[0];
      double sum = 0, mn = vals[0], mx = vals[0];
      for (double v : vals) {
        sum += v;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      if (std::string(agg) == "sum") {
        EXPECT_EQ(got.double_value(), sum);
      } else if (std::string(agg) == "count") {
        EXPECT_EQ(got.int64_value(), static_cast<int64_t>(vals.size()));
      } else if (std::string(agg) == "avg") {
        EXPECT_EQ(got.double_value(),
                  sum / static_cast<double>(vals.size()));
      } else if (std::string(agg) == "min") {
        EXPECT_EQ(got.double_value(), mn);
      } else if (std::string(agg) == "max") {
        EXPECT_EQ(got.double_value(), mx);
      }
    }
  }
}

TEST_P(SeededTest, PartialMergeOrderInvariance) {
  Rng rng(TestSeed(GetParam()));
  // Random partition of integer values into "chunk" partials, merged in
  // chunk order vs a shuffled order: identical finalized values. This is
  // the algebraic core of the morsel engine's determinism rule — the
  // engine always merges in chunk-map order, and this shows that for
  // exactly-representable inputs even that choice is immaterial.
  for (const char* agg : {"sum", "count", "avg", "min", "max", "stddev"}) {
    const AggregateFunction* fn = aggs_.Find(agg).ValueOrDie();
    const int nparts = 6;
    std::vector<std::unique_ptr<AggregateState>> parts;
    for (int p = 0; p < nparts; ++p) parts.push_back(fn->NewState());
    for (int i = 0; i < 300; ++i) {
      double v = static_cast<double>(rng.UniformInt(-100, 100));
      ASSERT_TRUE(parts[rng.Uniform(nparts)]->Accumulate(Value(v)).ok());
    }

    auto in_order = fn->NewState();
    for (const auto& p : parts) ASSERT_TRUE(in_order->Merge(*p).ok());

    std::vector<size_t> perm(nparts);
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    }
    auto shuffled = fn->NewState();
    for (size_t i : perm) ASSERT_TRUE(shuffled->Merge(*parts[i]).ok());

    Value a = in_order->Finalize();
    Value b = shuffled->Finalize();
    ASSERT_EQ(a.is_null(), b.is_null()) << agg;
    if (a.is_null()) continue;
    if (a.is_int64()) {
      EXPECT_EQ(a.int64_value(), b.int64_value()) << agg;
    } else if (std::string(agg) == "stddev") {
      // stddev's Merge combines means via division, so even integer
      // inputs drift by ULPs under reordering — this is precisely why
      // the engine merges in fixed chunk-map order (bit-identity across
      // widths is asserted in AggregateIndependentOfWorkerCount and the
      // differential suite). Reordering must still agree to ~1e-12.
      EXPECT_NEAR(a.double_value(), b.double_value(),
                  1e-12 * (1.0 + std::abs(a.double_value())))
          << agg;
    } else {
      EXPECT_EQ(a.double_value(), b.double_value()) << agg;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace scidb
