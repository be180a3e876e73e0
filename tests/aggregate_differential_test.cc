// Typed-vs-boxed differential (DESIGN.md §8). The built-in aggregates
// fold non-uncertain int64, float and double columns into flat typed
// states; everything else runs the boxed AggregateState fold. Here every
// built-in also has a UDF clone, "<name>_boxed", whose states are the
// test-local references of reference_aggregates.h: it runs a boxed fold,
// written apart from the typed one, over the same walk. Both must give
// the same bits for Aggregate, AggregateMulti, Regrid, multi-chunk grid
// parts, ParallelAggregate and Window, over NULLs, NaN, ±0.0, ±inf, int64
// extremes and float columns, at pool widths 1, 2 and 8.
//
// The suites below it pin the two rules the typed fold must keep: a
// group whose present cells are all NULL still has its row, and int64
// min/max compare exactly above 2^53.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/grouped_aggregate.h"
#include "exec/operators.h"
#include "grid/cluster.h"
#include "grid/partitioner.h"
#include "reference_aggregates.h"

namespace scidb {
namespace {

using reference::kBuiltins;

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Bit for bit, but any NaN matches any NaN: an operation on two NaNs
// returns one of them, and which one depends on the operand order the
// compiler picks for a commutative add (x86 returns the first), which
// neither C++ nor IEEE 754 pins down. inf + -inf gives -NaN on x86, so a
// sum over both NaN and opposite infinities can end with either sign.
bool SameBits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || DoubleBits(a) == DoubleBits(b);
}

// Same payload, doubles as SameBits. A boxed clone's count/min/max come
// out as double (its name is not a built-in's, so AggOutputAttr gives it
// a double attribute): an int64 typed value then matches the double the
// boxed Finalize() stored, converted as AttributeBlock::Set converts it.
::testing::AssertionResult SameValue(const Value& typed, const Value& boxed) {
  if (typed.is_null() || boxed.is_null()) {
    if (typed.is_null() == boxed.is_null()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << typed.ToString() << " vs " << boxed.ToString();
  }
  bool same = false;
  if (typed.is_int64() && boxed.is_int64()) {
    same = typed.int64_value() == boxed.int64_value();
  } else if (typed.is_double() && boxed.is_double()) {
    same = SameBits(typed.double_value(), boxed.double_value());
  } else if (typed.is_int64() && boxed.is_double()) {
    same = SameBits(static_cast<double>(typed.int64_value()),
                    boxed.double_value());
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << typed.ToString() << " vs " << boxed.ToString();
}

// Same dimensions, chunk origins, presence and cell values.
void ExpectSameCells(const MemArray& typed, const MemArray& boxed,
                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(typed.schema().ndims(), boxed.schema().ndims());
  for (size_t d = 0; d < typed.schema().ndims(); ++d) {
    EXPECT_EQ(typed.schema().dim(d), boxed.schema().dim(d));
  }
  ASSERT_EQ(typed.schema().nattrs(), boxed.schema().nattrs());
  ASSERT_EQ(typed.ChunkCount(), boxed.ChunkCount());
  auto it = typed.chunks().begin();
  for (const auto& [origin, bc] : boxed.chunks()) {
    ASSERT_EQ(it->first, origin);
    const Chunk& tc = *it->second;
    ++it;
    ASSERT_EQ(tc.box(), bc->box());
    for (int64_t r = 0; r < tc.cell_capacity(); ++r) {
      ASSERT_EQ(tc.IsPresent(r), bc->IsPresent(r)) << "rank " << r;
      if (!tc.IsPresent(r)) continue;
      for (size_t at = 0; at < tc.nattrs(); ++at) {
        EXPECT_TRUE(SameValue(tc.block(at).Get(r), bc->block(at).Get(r)))
            << "origin " << CoordsToString(origin) << " rank " << r
            << " attr " << at;
      }
    }
  }
}

// A seeded value of `type`: NULLs and the special values a fold must
// carry through unchanged in 3 draws of 10.
Value Draw(Rng* rng, DataType type) {
  const int64_t pick = rng->UniformInt(0, 99);
  if (pick < 8) return Value::Null();
  if (type == DataType::kInt64) {
    constexpr int64_t kBig = (int64_t{1} << 53) + 1;
    switch (pick / 4) {
      case 2: return Value(std::numeric_limits<int64_t>::min());
      case 3: return Value(std::numeric_limits<int64_t>::max());
      case 4: return Value(kBig);
      case 5: return Value(-kBig);
      case 6: return Value(kBig - 1);
      default: return Value(rng->UniformInt(-1000, 1000));
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  double v = 0;
  switch (pick / 4) {
    case 2: v = std::numeric_limits<double>::quiet_NaN(); break;
    case 3: v = 0.0; break;
    case 4: v = -0.0; break;
    case 5: v = inf; break;
    case 6: v = -inf; break;
    case 7: v = 1e300; break;
    default: v = rng->NextGaussian() * 1000 + 0.1; break;
  }
  // A float column stores what its float holds.
  if (type == DataType::kFloat) v = static_cast<float>(v);
  return Value(v);
}

// A seeded array of the given dims with one attribute "a<k>" per type;
// each cell is present with probability `present_pct` / 100.
MemArray MakeArray(const std::vector<DimensionDesc>& dims,
                   const std::vector<DataType>& types, int present_pct,
                   const Box& cells, uint64_t seed) {
  std::vector<AttributeDesc> attrs;
  for (size_t k = 0; k < types.size(); ++k) {
    attrs.push_back(
        {std::string("a").append(std::to_string(k)), types[k], true, false});
  }
  MemArray a(ArraySchema("in", dims, attrs));
  Rng rng(seed);
  Coordinates c = cells.low;
  do {
    if (rng.UniformInt(0, 99) >= present_pct) continue;
    std::vector<Value> row;
    for (DataType t : types) row.push_back(Draw(&rng, t));
    SCIDB_CHECK(a.SetCell(c, row).ok());
  } while (NextInBox(cells, &c));
  return a;
}

struct Shape {
  std::string name;
  std::vector<DimensionDesc> dims;
  Box cells;
  int present_pct;
};

// 1-d and 2-d, ragged chunks, sparse (some chunks empty), scattered (most
// chunks empty) and unbounded.
std::vector<Shape> Shapes() {
  return {
      {"1d", {{"t", 1, 37, 8}}, Box({1}, {37}), 85},
      {"2d", {{"x", 1, 23, 5}, {"y", 1, 19, 4}}, Box({1, 1}, {23, 19}), 90},
      {"2d_sparse",
       {{"x", 1, 40, 6}, {"y", 1, 40, 6}},
       Box({1, 1}, {40, 40}),
       6},
      {"2d_scattered",
       {{"x", 1, 60, 4}, {"y", 1, 60, 4}},
       Box({1, 1}, {60, 60}),
       2},
      {"1d_unbounded", {{"t", 1, kUnboundedDim, 6}}, Box({1}, {41}), 80},
      {"2d_unbounded",
       {{"x", 1, 12, 5}, {"y", 1, kUnboundedDim, 4}},
       Box({1, 1}, {12, 17}),
       75},
  };
}

const DataType kTypes[] = {DataType::kDouble, DataType::kFloat,
                           DataType::kInt64};

std::string TypeName(DataType t) {
  return t == DataType::kDouble ? "double"
         : t == DataType::kFloat ? "float"
                                 : "int64";
}

class AggregateDifferentialTest : public ::testing::Test {
 protected:
  AggregateDifferentialTest() {
    SCIDB_CHECK(reference::RegisterBoxedClones(&aggs_).ok());
  }

  ExecContext Ctx(ThreadPool* pool = nullptr) {
    ExecContext ctx;
    ctx.functions = &fns_;
    ctx.aggregates = &aggs_;
    ctx.pool = pool;
    return ctx;
  }

  // Runs `op(ctx, suffix)` typed (suffix "") at serial and widths 1, 2
  // and 8, and boxed (suffix "_boxed") serially, and compares each typed
  // result with the boxed one.
  void Differential(
      const std::string& label,
      const std::function<Result<MemArray>(const ExecContext&,
                                           const std::string&)>& op) {
    Result<MemArray> boxed = op(Ctx(), "_boxed");
    ASSERT_TRUE(boxed.ok()) << label << ": " << boxed.status().ToString();
    Result<MemArray> serial = op(Ctx(), "");
    ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().ToString();
    ExpectSameCells(serial.value(), boxed.value(), label + " serial");
    for (int width : {1, 2, 8}) {
      ThreadPool pool(width);
      Result<MemArray> typed = op(Ctx(&pool), "");
      ASSERT_TRUE(typed.ok()) << label;
      ExpectSameCells(typed.value(), boxed.value(),
                      label + " @width " + std::to_string(width));
    }
  }

  // GroupedAggregate with the built-in's output attributes on both
  // sides, so count and int64 min/max compare exactly.
  static Result<MemArray> Grouped(const ExecContext& ctx, const MemArray& a,
                                  const std::vector<std::string>* dims,
                                  const std::vector<int64_t>* factors,
                                  const std::vector<AggCall>& calls,
                                  const std::string& suffix) {
    std::vector<AggCall> named = calls;
    for (AggCall& call : named) call.agg += suffix;
    ASSIGN_OR_RETURN(GroupedAggregate core,
                     dims != nullptr
                         ? GroupedAggregate::ByDims(ctx, a.schema(), *dims,
                                                    named)
                         : GroupedAggregate::ByBlocks(ctx, a.schema(),
                                                      *factors, named));
    std::vector<AttributeDesc> out;
    for (size_t k = 0; k < calls.size(); ++k) {
      out.push_back(AggOutputAttr(calls[k].agg, core.input(k)));
    }
    return core.Run(ctx, a, "out", out);
  }

  FunctionRegistry fns_;
  AggregateRegistry aggs_;
};

TEST_F(AggregateDifferentialTest, BuiltinsAreTaggedAndClonesAreNot) {
  for (const char* name : kBuiltins) {
    EXPECT_NE(aggs_.Find(name).ValueOrDie()->builtin(), BuiltinAgg::kNone)
        << name;
    EXPECT_EQ(aggs_.Find(std::string(name) + "_boxed").ValueOrDie()->builtin(),
              BuiltinAgg::kNone)
        << name;
  }
  EXPECT_EQ(aggs_.Find("usum").ValueOrDie()->builtin(), BuiltinAgg::kNone);
  EXPECT_EQ(aggs_.Find("uavg").ValueOrDie()->builtin(), BuiltinAgg::kNone);
}

TEST_F(AggregateDifferentialTest, AggregateGrandAndGrouped) {
  uint64_t seed = 100;
  for (const Shape& shape : Shapes()) {
    for (DataType type : kTypes) {
      const MemArray a =
          MakeArray(shape.dims, {type}, shape.present_pct, shape.cells,
                    ++seed);
      std::vector<std::vector<std::string>> groupings = {{}};
      for (const DimensionDesc& d : shape.dims) groupings.push_back({d.name});
      for (const char* agg : kBuiltins) {
        for (const auto& dims : groupings) {
          const std::string label = shape.name + "/" + TypeName(type) + "/" +
                                    agg + "/by" + std::to_string(dims.size());
          Differential(label, [&](const ExecContext& ctx,
                                  const std::string& suffix) {
            return Grouped(ctx, a, &dims, nullptr, {{agg, "a0"}}, suffix);
          });
          // The public operator runs the same typed fold.
          ExpectSameCells(
              Aggregate(Ctx(), a, dims, agg, "a0").ValueOrDie(),
              Grouped(Ctx(), a, &dims, nullptr, {{agg, "a0"}}, "_boxed")
                  .ValueOrDie(),
              label + " Aggregate()");
        }
      }
    }
  }
}

// Factors that do not divide the chunk intervals put one block's cells in
// several chunks, whose partial states meet in Finish's merge.
TEST_F(AggregateDifferentialTest, RegridStraddlingBlocks) {
  uint64_t seed = 200;
  for (const Shape& shape : Shapes()) {
    const std::vector<std::vector<int64_t>> all_factors =
        shape.dims.size() == 1
            ? std::vector<std::vector<int64_t>>{{1}, {3}, {7}, {50}}
            : std::vector<std::vector<int64_t>>{{1, 1}, {3, 5}, {7, 2}};
    for (DataType type : kTypes) {
      const MemArray a = MakeArray(shape.dims, {type}, shape.present_pct,
                                   shape.cells, ++seed);
      for (const auto& factors : all_factors) {
        for (const char* agg : kBuiltins) {
          const std::string label = shape.name + "/" + TypeName(type) + "/" +
                                    agg + "/f" + std::to_string(factors[0]);
          Differential(label, [&](const ExecContext& ctx,
                                  const std::string& suffix) {
            return Grouped(ctx, a, nullptr, &factors, {{agg, "a0"}}, suffix);
          });
          ExpectSameCells(
              Regrid(Ctx(), a, factors, agg, "a0").ValueOrDie(),
              Grouped(Ctx(), a, nullptr, &factors, {{agg, "a0"}}, "_boxed")
                  .ValueOrDie(),
              label + " Regrid()");
        }
      }
    }
  }
}

// A grid part holds many chunks: each group's state runs on across them
// (never one chunk folded alone and merged in), then parts merge in order.
TEST_F(AggregateDifferentialTest, MultiChunkParts) {
  const Shape shape = Shapes()[1];
  uint64_t seed = 300;
  for (DataType type : kTypes) {
    const MemArray a =
        MakeArray(shape.dims, {type}, 95, shape.cells, ++seed);
    for (const char* agg : kBuiltins) {
      for (const std::vector<std::string>& dims :
           {std::vector<std::string>{}, std::vector<std::string>{"y"}}) {
        auto run = [&](const std::string& suffix) -> Result<MemArray> {
          ASSIGN_OR_RETURN(GroupedAggregate core,
                           GroupedAggregate::ByDims(Ctx(), a.schema(), dims,
                                                    {{agg + suffix, "a0"}}));
          std::vector<GroupedAggregate::Part> parts(3);
          size_t i = 0;
          for (const auto& [origin, chunk] : a.chunks()) {
            RETURN_NOT_OK(core.Accumulate(*chunk, &parts[i++ % 3]));
          }
          return core.Finish(std::move(parts), "out",
                             {AggOutputAttr(agg, core.input(0))});
        };
        ExpectSameCells(run("").ValueOrDie(), run("_boxed").ValueOrDie(),
                        TypeName(type) + "/" + agg + "/by" +
                            std::to_string(dims.size()));
      }
    }
  }
}

TEST_F(AggregateDifferentialTest, ParallelAggregateOnTheGrid) {
  const Shape shape = Shapes()[1];
  uint64_t seed = 400;
  for (DataType type : kTypes) {
    const MemArray a =
        MakeArray(shape.dims, {type}, 90, shape.cells, ++seed);
    DistributedArray d(a.schema(), std::make_shared<HashPartitioner>(3));
    ASSERT_TRUE(d.Load(a, 0).ok());
    for (const char* agg : kBuiltins) {
      for (const std::vector<std::string>& dims :
           {std::vector<std::string>{}, std::vector<std::string>{"x"}}) {
        ExpectSameCells(
            d.ParallelAggregate(Ctx(), dims, agg, "a0").ValueOrDie(),
            d.ParallelAggregate(Ctx(), dims, std::string(agg) + "_boxed", "a0")
                .ValueOrDie(),
            TypeName(type) + "/" + agg);
      }
    }
  }
}

// One walk, two folds: typed built-in calls beside boxed UDF and
// uncertain-aware calls, over columns of every typed type.
TEST_F(AggregateDifferentialTest, AggregateMultiMixesTypedAndBoxedCalls) {
  uint64_t seed = 500;
  for (const Shape& shape : Shapes()) {
    const MemArray a = MakeArray(
        shape.dims,
        {DataType::kDouble, DataType::kFloat, DataType::kInt64},
        shape.present_pct, shape.cells, ++seed);
    const std::vector<AggCall> calls = {
        {"sum", "a0"}, {"min", "a1"},    {"max", "a2"}, {"avg", "a2"},
        {"count", "a1"}, {"stddev", "a0"}, {"min", "a2"}, {"avg", "a1"}};
    for (const std::vector<std::string>& dims :
         {std::vector<std::string>{}, std::vector<std::string>{"x"}}) {
      if (!dims.empty() && shape.dims[0].name != "x") continue;
      // Every other call boxed, the rest typed, against all boxed.
      auto mixed = [&](const ExecContext& ctx) -> Result<MemArray> {
        std::vector<AggCall> named = calls;
        for (size_t k = 1; k < named.size(); k += 2) named[k].agg += "_boxed";
        ASSIGN_OR_RETURN(GroupedAggregate core,
                         GroupedAggregate::ByDims(ctx, a.schema(), dims,
                                                  named));
        std::vector<AttributeDesc> out;
        for (size_t k = 0; k < calls.size(); ++k) {
          out.push_back(AggOutputAttr(calls[k].agg, core.input(k)));
        }
        return core.Run(ctx, a, "out", out);
      };
      const std::string label =
          shape.name + "/by" + std::to_string(dims.size());
      Differential(label, [&](const ExecContext& ctx,
                              const std::string& suffix) {
        return Grouped(ctx, a, &dims, nullptr, calls, suffix);
      });
      const MemArray boxed =
          Grouped(Ctx(), a, &dims, nullptr, calls, "_boxed").ValueOrDie();
      ExpectSameCells(mixed(Ctx()).ValueOrDie(), boxed, label + " mixed");
      ThreadPool pool(2);
      ExpectSameCells(mixed(Ctx(&pool)).ValueOrDie(), boxed,
                      label + " mixed @width 2");
      // The public operator, with a usum call riding along boxed.
      std::vector<AggCall> with_usum = calls;
      with_usum.push_back({"usum", "a0"});
      const MemArray multi =
          AggregateMulti(Ctx(), a, dims, with_usum).ValueOrDie();
      const MemArray usum = Aggregate(Ctx(), a, dims, "usum", "a0")
                                .ValueOrDie();
      MemArray multi_head(ArraySchema("out", multi.schema().dims(),
                                      boxed.schema().attrs()));
      for (const auto& [origin, chunk] : multi.chunks()) {
        for (Chunk::CellIterator it(*chunk); it.valid(); it.Next()) {
          std::vector<Value> row = chunk->GetCell(it.coords());
          const Value last = row.back();
          row.pop_back();
          ASSERT_TRUE(multi_head.SetCell(it.coords(), row).ok());
          const Value want = (*usum.GetCell(it.coords()))[0];
          EXPECT_EQ(last.ToString(), want.ToString());
        }
      }
      ExpectSameCells(multi_head, boxed, label + " AggregateMulti()");
    }
  }
}

// A window without halos: every present cell folds each present cell
// within its radii, taken in row-major order, into the named aggregate's
// own state. Quadratic in the cells, so any radius works.
MemArray ReferenceWindow(const MemArray& a, const std::vector<int64_t>& radii,
                         const AggregateFunction& fn, const std::string& agg) {
  const ArraySchema& s = a.schema();
  MemArray out(ArraySchema(s.name() + "_window", s.dims(),
                           {AggOutputAttr(agg, s.attr(0))}));
  std::map<Coordinates, Value> cells;  // row-major
  a.ForEachCell([&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
    cells.emplace(c, chunk.block(0).Get(rank));
    return true;
  });
  auto near = [&](const Coordinates& p, const Coordinates& c) {
    for (size_t d = 0; d < c.size(); ++d) {
      const uint64_t dist =
          p[d] >= c[d]
              ? static_cast<uint64_t>(p[d]) - static_cast<uint64_t>(c[d])
              : static_cast<uint64_t>(c[d]) - static_cast<uint64_t>(p[d]);
      if (dist > static_cast<uint64_t>(radii[d])) return false;
    }
    return true;
  };
  for (const auto& [c, v] : cells) {
    std::unique_ptr<AggregateState> state = fn.NewState();
    for (const auto& [p, pv] : cells) {
      if (near(p, c)) SCIDB_CHECK(state->Accumulate(pv).ok());
    }
    SCIDB_CHECK(out.SetCell(c, state->Finalize()).ok());
  }
  return out;
}

// Radius 0, radius wider than a chunk, sparse chunks and unbounded
// dimensions: the typed halo kernel and the boxed clone through the same
// halo both match the probe-per-neighbour reference.
TEST_F(AggregateDifferentialTest, WindowHalo) {
  uint64_t seed = 600;
  for (const Shape& shape : Shapes()) {
    const size_t nd = shape.dims.size();
    const std::vector<std::vector<int64_t>> all_radii =
        nd == 1 ? std::vector<std::vector<int64_t>>{{0}, {1}, {9}}
                : std::vector<std::vector<int64_t>>{{0, 0}, {1, 1}, {2, 0},
                                                    {7, 5}};
    for (DataType type : kTypes) {
      const MemArray a = MakeArray(shape.dims, {type}, shape.present_pct,
                                   shape.cells, ++seed);
      for (const auto& radii : all_radii) {
        for (const char* agg : kBuiltins) {
          const std::string label = shape.name + "/" + TypeName(type) + "/" +
                                    agg + "/r" + std::to_string(radii[0]);
          const AggregateFunction& boxed =
              *aggs_.Find(std::string(agg).append("_boxed")).ValueOrDie();
          const MemArray ref = ReferenceWindow(a, radii, boxed, agg);
          Differential(label, [&](const ExecContext& ctx,
                                  const std::string& suffix) {
            return WindowAggregate(ctx, a, radii, agg + suffix, "a0");
          });
          ExpectSameCells(
              WindowAggregate(Ctx(), a, radii, agg, "a0").ValueOrDie(), ref,
              label + " vs reference");
          ExpectSameCells(ref,
                          WindowAggregate(Ctx(), a, radii,
                                          std::string(agg) + "_boxed", "a0")
                              .ValueOrDie(),
                          label + " boxed vs reference");
        }
      }
    }
  }
}

// Clusters of cells 2^32 and 2^40 apart along unbounded dimensions, with
// radii that reach none, some or all of them: the halo between them is
// far too big to hold densely, so the kernel keeps only present cells.
TEST_F(AggregateDifferentialTest, WindowFarApartChunks) {
  constexpr int64_t kFar = int64_t{1} << 32;
  const std::vector<DimensionDesc> dims = {{"x", 0, kUnboundedDim, 4},
                                           {"y", 0, kUnboundedDim, 4}};
  const std::vector<Box> clusters = {
      Box({1, 1}, {6, 5}), Box({kFar, kFar}, {kFar + 5, kFar + 2}),
      Box({2, int64_t{1} << 40}, {4, (int64_t{1} << 40) + 6})};
  const std::vector<std::vector<int64_t>> all_radii = {
      {0, 0}, {3, 2}, {kFar - 1, kFar - 1}, {kFar, int64_t{1} << 41},
      {std::numeric_limits<int64_t>::max(), 1}};
  uint64_t seed = 650;
  for (DataType type : kTypes) {
    MemArray a(ArraySchema("far", dims, {{"a0", type, true, false}}));
    Rng rng(++seed);
    for (const Box& box : clusters) {
      Coordinates c = box.low;
      do {
        if (rng.UniformInt(0, 99) < 70) {
          ASSERT_TRUE(a.SetCell(c, Draw(&rng, type)).ok());
        }
      } while (NextInBox(box, &c));
    }
    for (const auto& radii : all_radii) {
      for (const char* agg : kBuiltins) {
        const std::string label = TypeName(type) + "/" + agg + "/r" +
                                  std::to_string(radii[0]) + "," +
                                  std::to_string(radii[1]);
        Differential(label, [&](const ExecContext& ctx,
                                const std::string& suffix) {
          return WindowAggregate(ctx, a, radii, agg + suffix, "a0");
        });
        ExpectSameCells(
            WindowAggregate(Ctx(), a, radii, agg, "a0").ValueOrDie(),
            ReferenceWindow(a, radii,
                            *aggs_.Find(std::string(agg).append("_boxed"))
                                 .ValueOrDie(),
                            agg),
            label + " vs reference");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A group exists from its first present cell on: one whose present cells
// are all NULL still emits its row (count 0, every other built-in NULL),
// and a window whose present cells are all NULL leaves its cell present
// and NULL.

class AllNullGroupTest : public AggregateDifferentialTest {
 protected:
  // Rows x = 1..4 of a 4 x 4 array; row 2's cells are present but NULL,
  // row 4 has no present cell.
  MemArray Input(DataType type) {
    MemArray a(ArraySchema("n", {{"x", 1, 4, 2}, {"y", 1, 4, 2}},
                           {{"v", type, true, false}}));
    for (int64_t x = 1; x <= 3; ++x) {
      for (int64_t y = 1; y <= 4; ++y) {
        const Value v = x == 2 ? Value::Null()
                        : type == DataType::kInt64 ? Value(x * y)
                                                   : Value(x * y * 0.5);
        SCIDB_CHECK(a.SetCell({x, y}, v).ok());
      }
    }
    return a;
  }

  static void ExpectEmptyRow(const std::vector<Value>& row,
                             const std::vector<AggCall>& calls,
                             const std::string& label) {
    ASSERT_EQ(row.size(), calls.size()) << label;
    for (size_t k = 0; k < calls.size(); ++k) {
      if (calls[k].agg.rfind("count", 0) == 0) {
        // A boxed clone's count is a double.
        EXPECT_TRUE(row[k].is_int64() || row[k].is_double()) << label;
        EXPECT_EQ(row[k].AsDouble().ValueOrDie(), 0.0) << label;
      } else {
        EXPECT_TRUE(row[k].is_null()) << label << " " << calls[k].agg;
      }
    }
  }
};

TEST_F(AllNullGroupTest, GroupedAggregate) {
  for (DataType type : kTypes) {
    const MemArray a = Input(type);
    for (const char* agg : kBuiltins) {
      for (const std::string& name :
           {std::string(agg), std::string(agg) + "_boxed"}) {
        const std::string label = TypeName(type) + "/" + name;
        MemArray r = Aggregate(Ctx(), a, {"x"}, name, "v").ValueOrDie();
        EXPECT_EQ(r.CellCount(), 3) << label;
        ASSERT_TRUE(r.GetCell({2}).has_value()) << label;
        ExpectEmptyRow(*r.GetCell({2}), {{name, "v"}}, label);
        EXPECT_FALSE(r.GetCell({4}).has_value()) << label;
      }
    }
  }
}

TEST_F(AllNullGroupTest, GrandAggregate) {
  for (DataType type : kTypes) {
    // Row 2 alone: present cells, every one NULL.
    const MemArray a =
        Subsample(Ctx(), Input(type), Eq(Ref("x"), Lit(int64_t{2})))
            .ValueOrDie();
    ASSERT_EQ(a.CellCount(), 4);
    for (const char* agg : kBuiltins) {
      for (const std::string& name :
           {std::string(agg), std::string(agg) + "_boxed"}) {
        const std::string label = TypeName(type) + "/" + name;
        MemArray r = Aggregate(Ctx(), a, {}, name, "v").ValueOrDie();
        ASSERT_EQ(r.CellCount(), 1) << label;
        ExpectEmptyRow(*r.GetCell({1}), {{name, "v"}}, label);
      }
    }
  }
}

TEST_F(AllNullGroupTest, AggregateMulti) {
  const std::vector<AggCall> calls = {
      {"count", "v"}, {"sum", "v"},    {"avg", "v"},        {"min", "v"},
      {"max", "v"},   {"stddev", "v"}, {"count_boxed", "v"}};
  for (DataType type : kTypes) {
    MemArray r = AggregateMulti(Ctx(), Input(type), {"x"}, calls).ValueOrDie();
    EXPECT_EQ(r.CellCount(), 3) << TypeName(type);
    ASSERT_TRUE(r.GetCell({2}).has_value()) << TypeName(type);
    ExpectEmptyRow(*r.GetCell({2}), calls, TypeName(type));
  }
}

TEST_F(AllNullGroupTest, Regrid) {
  for (DataType type : kTypes) {
    for (const char* agg : kBuiltins) {
      const std::string label = TypeName(type) + "/" + agg;
      // Factors {1, 4}: block (2, 1) holds row 2's NULLs, from two chunks.
      MemArray r = Regrid(Ctx(), Input(type), {1, 4}, agg, "v").ValueOrDie();
      EXPECT_EQ(r.CellCount(), 3) << label;
      ASSERT_TRUE(r.GetCell({2, 1}).has_value()) << label;
      ExpectEmptyRow(*r.GetCell({2, 1}), {{agg, "v"}}, label);
    }
  }
}

TEST_F(AllNullGroupTest, ParallelAggregate) {
  for (DataType type : kTypes) {
    const MemArray a = Input(type);
    DistributedArray d(a.schema(), std::make_shared<HashPartitioner>(2));
    ASSERT_TRUE(d.Load(a, 0).ok());
    for (const char* agg : kBuiltins) {
      const std::string label = TypeName(type) + "/" + agg;
      MemArray r = d.ParallelAggregate(Ctx(), {"x"}, agg, "v").ValueOrDie();
      EXPECT_EQ(r.CellCount(), 3) << label;
      ASSERT_TRUE(r.GetCell({2}).has_value()) << label;
      ExpectEmptyRow(*r.GetCell({2}), {{agg, "v"}}, label);
    }
  }
}

TEST_F(AllNullGroupTest, WindowOverNullsStaysPresentAndNull) {
  for (DataType type : kTypes) {
    // Along y only: every window of row 2 sees NULLs alone.
    const MemArray a = Input(type);
    for (const char* agg : kBuiltins) {
      const std::string label = TypeName(type) + "/" + agg;
      MemArray w = WindowAggregate(Ctx(), a, {0, 1}, agg, "v").ValueOrDie();
      EXPECT_EQ(w.CellCount(), a.CellCount()) << label;
      for (int64_t y = 1; y <= 4; ++y) {
        ASSERT_TRUE(w.GetCell({2, y}).has_value()) << label << " y " << y;
        ExpectEmptyRow(*w.GetCell({2, y}), {{agg, "v"}}, label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// int64 min/max above 2^53, where neighbouring int64s share a double: the
// result is the exact input value, in either input order.

class Int64MinMaxTest : public AggregateDifferentialTest {};

TEST_F(Int64MinMaxTest, LessThanComparesInt64Exactly) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  EXPECT_TRUE(Value(kTwo53).LessThan(Value(kTwo53 + 1)));
  EXPECT_FALSE(Value(kTwo53 + 1).LessThan(Value(kTwo53)));
  EXPECT_TRUE(Value(std::numeric_limits<int64_t>::max() - 1)
                  .LessThan(Value(std::numeric_limits<int64_t>::max())));
  // Mixed pairs still compare as doubles.
  EXPECT_TRUE(Value(int64_t{2}).LessThan(Value(2.5)));
  EXPECT_FALSE(Value(kTwo53 + 1).LessThan(Value(static_cast<double>(kTwo53))));
}

TEST_F(Int64MinMaxTest, EveryOperatorKeepsTheExactValue) {
  constexpr int64_t kLow = int64_t{1} << 53;
  constexpr int64_t kHigh = kLow + 1;
  for (bool high_first : {true, false}) {
    MemArray a(ArraySchema("i", {{"t", 1, 2, 1}},
                           {{"v", DataType::kInt64, true, false}}));
    ASSERT_TRUE(a.SetCell({1}, Value(high_first ? kHigh : kLow)).ok());
    ASSERT_TRUE(a.SetCell({2}, Value(high_first ? kLow : kHigh)).ok());
    DistributedArray d(a.schema(), std::make_shared<HashPartitioner>(2));
    ASSERT_TRUE(d.Load(a, 0).ok());
    for (const std::string& suffix : {std::string(), std::string("_boxed")}) {
      for (bool is_min : {true, false}) {
        const std::string agg = std::string(is_min ? "min" : "max") + suffix;
        const int64_t want = is_min ? kLow : kHigh;
        const std::string label =
            agg + (high_first ? " high first" : " low first");
        auto exact = [&](const MemArray& r, const Coordinates& c) {
          ASSERT_TRUE(r.GetCell(c).has_value()) << label;
          const Value v = (*r.GetCell(c))[0];
          ASSERT_TRUE(v.is_int64()) << label << ": " << v.ToString();
          EXPECT_EQ(v.int64_value(), want) << label;
        };
        // Boxed clones output a double; through GroupedAggregate both
        // sides write the built-in's int64 attribute.
        const std::vector<std::string> none;
        const std::vector<int64_t> two = {2};
        exact(Grouped(Ctx(), a, &none, nullptr, {{is_min ? "min" : "max", "v"}},
                      suffix)
                  .ValueOrDie(),
              {1});
        exact(Grouped(Ctx(), a, nullptr, &two, {{is_min ? "min" : "max", "v"}},
                      suffix)
                  .ValueOrDie(),
              {1});
        if (!suffix.empty()) continue;
        exact(Aggregate(Ctx(), a, {}, agg, "v").ValueOrDie(), {1});
        exact(Regrid(Ctx(), a, {2}, agg, "v").ValueOrDie(), {1});
        const MemArray w =
            WindowAggregate(Ctx(), a, {1}, agg, "v").ValueOrDie();
        exact(w, {1});
        exact(w, {2});
        exact(d.ParallelAggregate(Ctx(), {}, agg, "v").ValueOrDie(), {1});
      }
    }
  }
}

}  // namespace
}  // namespace scidb
