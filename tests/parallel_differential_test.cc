// Serial-vs-parallel differential harness (DESIGN.md §8): every
// chunk-parallel operator must produce BIT-IDENTICAL results at
// parallelism 1, 2 and 8 — same cells, same null masks, same error
// Statuses. Inputs are the seeded workload generators from
// bench/workloads.{h,cc} plus ragged / empty / single-chunk edge shapes.
//
// "Bit-identical" is literal: doubles are compared through their
// uint64_t bit patterns, so even a one-ULP divergence from a different
// accumulation order fails the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/operators.h"
#include "query/session.h"
#include "server/shared_catalog.h"
#include "storage/chunk_serde.h"
#include "storage/storage_manager.h"

namespace scidb {
namespace {

uint64_t DoubleBits(double d) {
  uint64_t u;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Exact Value equality: same variant alternative, same payload, with
// floating-point payloads compared bit-for-bit.
::testing::AssertionResult ValuesIdentical(const Value& a, const Value& b) {
  auto fail = [&](const std::string& why) {
    return ::testing::AssertionFailure() << why;
  };
  if (a.is_null() != b.is_null()) return fail("null flag differs");
  if (a.is_null()) return ::testing::AssertionSuccess();
  if (a.is_bool() != b.is_bool() || a.is_int64() != b.is_int64() ||
      a.is_double() != b.is_double() || a.is_string() != b.is_string() ||
      a.is_uncertain() != b.is_uncertain()) {
    return fail("value type differs");
  }
  if (a.is_bool() && a.bool_value() != b.bool_value()) {
    return fail("bool payload differs");
  }
  if (a.is_int64() && a.int64_value() != b.int64_value()) {
    return fail("int64 payload differs");
  }
  if (a.is_double() &&
      DoubleBits(a.double_value()) != DoubleBits(b.double_value())) {
    return fail("double bits differ: " + std::to_string(a.double_value()) +
                " vs " + std::to_string(b.double_value()));
  }
  if (a.is_string() && a.string_value() != b.string_value()) {
    return fail("string payload differs");
  }
  if (a.is_uncertain()) {
    const Uncertain& ua = a.uncertain_value();
    const Uncertain& ub = b.uncertain_value();
    if (DoubleBits(ua.mean) != DoubleBits(ub.mean) ||
        DoubleBits(ua.stderr_) != DoubleBits(ub.stderr_)) {
      return fail("uncertain payload differs");
    }
  }
  return ::testing::AssertionSuccess();
}

// Bit-exact array equality: schema shape, chunk-origin set, per-chunk
// presence bitmaps, and every present cell's values (incl. null flags).
void ExpectArraysIdentical(const MemArray& a, const MemArray& b,
                           const std::string& label) {
  SCOPED_TRACE(label);
  const ArraySchema& sa = a.schema();
  const ArraySchema& sb = b.schema();
  ASSERT_EQ(sa.name(), sb.name());
  ASSERT_EQ(sa.ndims(), sb.ndims());
  for (size_t d = 0; d < sa.ndims(); ++d) {
    EXPECT_EQ(sa.dim(d).name, sb.dim(d).name);
    EXPECT_EQ(sa.dim(d).low, sb.dim(d).low);
    EXPECT_EQ(sa.dim(d).high, sb.dim(d).high);
  }
  ASSERT_EQ(sa.nattrs(), sb.nattrs());
  for (size_t at = 0; at < sa.nattrs(); ++at) {
    EXPECT_EQ(sa.attr(at).name, sb.attr(at).name);
    EXPECT_EQ(sa.attr(at).type, sb.attr(at).type);
  }

  ASSERT_EQ(a.CellCount(), b.CellCount());
  ASSERT_EQ(a.ChunkCount(), b.ChunkCount()) << "chunk maps differ in size";
  auto ita = a.chunks().begin();
  auto itb = b.chunks().begin();
  for (; ita != a.chunks().end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first) << "chunk origins differ";
    const Chunk& ca = *ita->second;
    const Chunk& cb = *itb->second;
    ASSERT_EQ(ca.box(), cb.box());
    ASSERT_EQ(ca.present_count(), cb.present_count());
    const int64_t cap = ca.cell_capacity();
    for (int64_t rank = 0; rank < cap; ++rank) {
      ASSERT_EQ(ca.IsPresent(rank), cb.IsPresent(rank))
          << "presence bitmap differs at rank " << rank;
      if (!ca.IsPresent(rank)) continue;
      for (size_t at = 0; at < ca.nattrs(); ++at) {
        ASSERT_EQ(ca.block(at).IsNull(rank), cb.block(at).IsNull(rank))
            << "null mask differs at rank " << rank << " attr " << at;
        EXPECT_TRUE(
            ValuesIdentical(ca.block(at).Get(rank), cb.block(at).Get(rank)))
            << "rank " << rank << " attr " << at;
      }
    }
  }
}

// One operator invocation under test: runs against a ctx with the given
// pool and returns its Result.
using OpRun = std::function<Result<MemArray>(const ExecContext&)>;

class ParallelDifferentialTest : public ::testing::Test {
 protected:
  ExecContext CtxWith(ThreadPool* pool) {
    ExecContext ctx;
    ctx.functions = &fns_;
    ctx.aggregates = &aggs_;
    ctx.pool = pool;
    return ctx;
  }

  // The differential assertion: serial (no pool) vs width 1/2/8 pools.
  // All four must succeed with bit-identical arrays, or all four must
  // fail with the same Status code and message.
  void RunDifferential(const std::string& label, const OpRun& op) {
    Result<MemArray> serial = op(CtxWith(nullptr));
    for (int width : {1, 2, 8}) {
      ThreadPool pool(width);
      Result<MemArray> par = op(CtxWith(&pool));
      const std::string tag = label + " @width " + std::to_string(width);
      ASSERT_EQ(serial.ok(), par.ok()) << tag << ": ok-ness diverged ("
                                       << (serial.ok()
                                               ? par.status().ToString()
                                               : serial.status().ToString())
                                       << ")";
      if (!serial.ok()) {
        EXPECT_EQ(serial.status().code(), par.status().code()) << tag;
        EXPECT_EQ(serial.status().message(), par.status().message()) << tag;
        continue;
      }
      ExpectArraysIdentical(serial.value(), par.value(), tag);
    }
  }

  // Every input shape the suite exercises. Edge shapes: ragged (50 % 16
  // != 0 leaves partial boundary chunks), single-chunk, and empty.
  std::vector<std::pair<std::string, MemArray>> Inputs2D() {
    std::vector<std::pair<std::string, MemArray>> in;
    in.emplace_back("sky", bench::MakeSkyImage(48, 16, 5, 7));
    in.emplace_back("sparse", bench::MakeSparseArray(64, 16, 500, 11));
    in.emplace_back("ragged", bench::MakeSkyImage(50, 16, 3, 13));
    in.emplace_back("single_chunk", bench::MakeSkyImage(12, 16, 2, 17));
    ArraySchema empty_schema(
        "empty", {{"I", 1, 64, 16}, {"J", 1, 64, 16}},
        {{"flux", DataType::kDouble, true, false}});
    in.emplace_back("empty", MemArray(empty_schema));
    return in;
  }

  FunctionRegistry fns_;
  AggregateRegistry aggs_;
};

// ------------------------- content operators ---------------------------

TEST_F(ParallelDifferentialTest, Filter) {
  for (auto& [name, a] : Inputs2D()) {
    const std::string attr = a.schema().attr(0).name;
    RunDifferential("Filter/" + name, [&](const ExecContext& ctx) {
      return Filter(ctx, a, Gt(Ref(attr), Lit(12.0)));
    });
    RunDifferential("Filter_dims/" + name, [&](const ExecContext& ctx) {
      return Filter(ctx, a, And(Le(Ref("I"), Lit(int64_t{30})),
                                Gt(Ref("J"), Lit(int64_t{5}))));
    });
  }
}

TEST_F(ParallelDifferentialTest, Apply) {
  for (auto& [name, a] : Inputs2D()) {
    const std::string attr = a.schema().attr(0).name;
    RunDifferential("Apply/" + name, [&](const ExecContext& ctx) {
      return Apply(ctx, a, "scaled", DataType::kDouble,
                   Mul(Ref(attr), Lit(2.5)));
    });
  }
}

TEST_F(ParallelDifferentialTest, Project) {
  for (auto& [name, a] : Inputs2D()) {
    const std::string attr = a.schema().attr(0).name;
    // Widen to two attributes first so Project actually selects.
    RunDifferential("Project/" + name,
                    [&](const ExecContext& ctx) -> Result<MemArray> {
      ASSIGN_OR_RETURN(MemArray widened,
                       Apply(ctx, a, "twice", DataType::kDouble,
                             Add(Ref(attr), Ref(attr))));
      return Project(ctx, widened, {"twice"});
    });
  }
}

TEST_F(ParallelDifferentialTest, Subsample) {
  for (auto& [name, a] : Inputs2D()) {
    // Exact per-dimension box (pruning fast path) and a half-open range.
    RunDifferential("Subsample_box/" + name, [&](const ExecContext& ctx) {
      return Subsample(ctx, a, And(Ge(Ref("I"), Lit(int64_t{10})),
                                   Le(Ref("I"), Lit(int64_t{40}))));
    });
    RunDifferential("Subsample_edge/" + name, [&](const ExecContext& ctx) {
      return Subsample(ctx, a, Eq(Ref("J"), Lit(int64_t{16})));
    });
  }
}

// Cjoin is Filter over CrossProduct, so it runs chunk-parallel; a
// non-exact Subsample (a UDF) asks its bound predicate which present
// cells of the pruned sub-box to keep. Both must be width-independent
// with pruning on and off.
TEST_F(ParallelDifferentialTest, CjoinAndUdfSubsample) {
  MemArray sky = bench::MakeSkyImage(24, 8, 3, 59);
  MemArray tiny = bench::MakeSkyImage(6, 4, 1, 61);
  const ExprPtr typed = Lt(Ref("flux", 0), Ref("flux", 1));
  const ExprPtr untyped = And(typed, Call("even", {Ref("J", 1)}));
  const ExprPtr even = Call("even", {Ref("I")});
  const ExprPtr even_boxed = And(Ge(Ref("I"), Lit(int64_t{10})), even);
  for (bool pruning : {true, false}) {
    const std::string tag = pruning ? "/pruned" : "/unpruned";
    auto with = [pruning](ExecContext ctx) {
      ctx.enable_chunk_pruning = pruning;
      return ctx;
    };
    for (const ExprPtr& pred : {typed, untyped}) {
      RunDifferential("Cjoin" + tag + "/" + pred->ToString(),
                      [&](const ExecContext& ctx) {
                        return Cjoin(with(ctx), sky, tiny, pred);
                      });
    }
    for (auto& [name, a] : Inputs2D()) {
      for (const ExprPtr& pred : {even, even_boxed}) {
        RunDifferential("Subsample" + tag + "/" + pred->ToString() + "/" +
                            name,
                        [&](const ExecContext& ctx) {
                          return Subsample(with(ctx), a, pred);
                        });
      }
    }
  }
}

// The fallback evaluates exactly the cells of the pruned sub-box: a UDF
// that fails only outside it succeeds with pruning on, and fails with the
// same Status at every width with pruning off.
TEST_F(ParallelDifferentialTest, SubsampleUdfFailingOutsidePrunedBox) {
  ASSERT_TRUE(fns_
                  .Register(UserFunction(
                      "even_upto_20",
                      FunctionSignature{{DataType::kInt64},
                                        {DataType::kBool}},
                      [](const std::vector<Value>& args)
                          -> Result<std::vector<Value>> {
                        const int64_t i = args[0].int64_value();
                        if (i > 20) {
                          return Status::Invalid("even_upto_20: too big");
                        }
                        return std::vector<Value>{Value(i % 2 == 0)};
                      }))
                  .ok());
  MemArray sky = bench::MakeSkyImage(48, 16, 4, 67);
  // The UDF comes first, so no short circuit protects the cells above 20.
  const ExprPtr pred = And(Call("even_upto_20", {Ref("I")}),
                           Le(Ref("I"), Lit(int64_t{20})));
  for (bool pruning : {true, false}) {
    ExecContext serial = CtxWith(nullptr);
    serial.enable_chunk_pruning = pruning;
    Result<MemArray> r = Subsample(serial, sky, pred);
    EXPECT_EQ(r.ok(), pruning) << r.status().ToString();
    RunDifferential(pruning ? "UdfOutsideBox/pruned" : "UdfOutsideBox/unpruned",
                    [&](const ExecContext& c) {
                      ExecContext ctx = c;
                      ctx.enable_chunk_pruning = pruning;
                      return Subsample(ctx, sky, pred);
                    });
  }
}

TEST_F(ParallelDifferentialTest, WindowAggregate) {
  // Windows cross chunk boundaries: cross-chunk reads must be identical.
  MemArray sky = bench::MakeSkyImage(32, 8, 4, 19);
  RunDifferential("Window/sky", [&](const ExecContext& ctx) {
    return WindowAggregate(ctx, sky, {2, 2}, "avg", "flux");
  });
  MemArray series = bench::MakeTimeSeries(300, 32, 23);
  RunDifferential("Window/series", [&](const ExecContext& ctx) {
    return WindowAggregate(ctx, series, {5}, "sum", "v");
  });
}

// FP determinism is the hard part of parallel aggregation: per-chunk
// partials merged in chunk-map order must reproduce bit patterns exactly,
// for every aggregate including the non-trivially-merged stddev/avg.
TEST_F(ParallelDifferentialTest, AggregateAllFunctions) {
  for (auto& [name, a] : Inputs2D()) {
    for (const char* agg :
         {"sum", "count", "avg", "min", "max", "stddev"}) {
      RunDifferential("Agg_" + std::string(agg) + "_grand/" + name,
                      [&, agg](const ExecContext& ctx) {
                        return Aggregate(ctx, a, {}, agg, "*");
                      });
      RunDifferential("Agg_" + std::string(agg) + "_groupI/" + name,
                      [&, agg](const ExecContext& ctx) {
                        return Aggregate(ctx, a, {"I"}, agg, "*");
                      });
    }
  }
}

TEST_F(ParallelDifferentialTest, AggregateMulti) {
  for (auto& [name, a] : Inputs2D()) {
    const std::string attr = a.schema().attr(0).name;
    RunDifferential("AggMulti/" + name, [&](const ExecContext& ctx) {
      return AggregateMulti(
          ctx, a, {"J"},
          {{"sum", attr}, {"count", "*"}, {"avg", attr}, {"stddev", attr}});
    });
  }
}

TEST_F(ParallelDifferentialTest, UncertainAggregates) {
  MemArray sky = bench::MakeSkyImage(48, 16, 4, 29);
  for (const char* agg : {"usum", "uavg"}) {
    RunDifferential("Agg_" + std::string(agg),
                    [&, agg](const ExecContext& ctx) {
                      return Aggregate(ctx, sky, {"I"}, agg, "flux");
                    });
  }
}

// Regrid runs on the grouped-aggregation core, one part per chunk. With
// {4, 4} every block sits inside one chunk; with {3, 5} blocks straddle
// the 16-cell chunks, so their per-chunk partials meet in the merge, whose
// fixed chunk-map order must keep double sums bit-identical at any width.
TEST_F(ParallelDifferentialTest, RegridIsWidthIndependent) {
  MemArray sky = bench::MakeSkyImage(48, 16, 4, 31);
  RunDifferential("Regrid/sky", [&](const ExecContext& ctx) {
    return Regrid(ctx, sky, {4, 4}, "avg", "flux");
  });
  for (const char* agg : {"count", "sum", "avg"}) {
    RunDifferential("Regrid/straddling/" + std::string(agg),
                    [&](const ExecContext& ctx) {
                      return Regrid(ctx, sky, {3, 5}, agg, "flux");
                    });
  }
}

// A query cancelled before a grouped aggregate starts aborts it with
// Cancelled at every width, before the first morsel. The serial
// remapping operators poll the same flag before each input chunk.
TEST_F(ParallelDifferentialTest, PreCancelledGroupedAggregatesAbort) {
  MemArray sky = bench::MakeSkyImage(48, 16, 4, 53);
  const std::atomic<bool> cancel{true};
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ExecContext ctx = CtxWith(p);
    ctx.cancel = &cancel;
    EXPECT_TRUE(Aggregate(ctx, sky, {"I"}, "sum", "flux")
                    .status()
                    .IsCancelled());
    EXPECT_TRUE(AggregateMulti(ctx, sky, {}, {{"count", "*"}, {"avg", "flux"}})
                    .status()
                    .IsCancelled());
    EXPECT_TRUE(Regrid(ctx, sky, {4, 4}, "avg", "flux").status().IsCancelled());
  }

  MemArray tiny = bench::MakeSkyImage(4, 2, 1, 7);
  MemArray lifted = AddDimension(CtxWith(nullptr), sky, "K").ValueOrDie();
  ExecContext ctx = CtxWith(nullptr);
  ctx.cancel = &cancel;
  EXPECT_TRUE(Reshape(ctx, sky, {"I", "J"}, {{"L", 1, 48 * 48, 256}})
                  .status()
                  .IsCancelled());
  EXPECT_TRUE(Sjoin(ctx, sky, tiny, {{"I", "I"}}).status().IsCancelled());
  EXPECT_TRUE(AddDimension(ctx, sky, "K").status().IsCancelled());
  EXPECT_TRUE(RemoveDimension(ctx, lifted, "K").status().IsCancelled());
  EXPECT_TRUE(Concat(ctx, sky, sky, "I").status().IsCancelled());
  EXPECT_TRUE(CrossProduct(ctx, sky, tiny).status().IsCancelled());
  EXPECT_TRUE(Cjoin(ctx, sky, tiny, Lt(Ref("flux", 0), Ref("flux", 1)))
                  .status()
                  .IsCancelled());
}

// ------------------- deterministic failure (satellite) ------------------

// A UDF that fails on a specific cell, mid-morsel: the pool must cancel
// the remaining morsels and every width must report the SAME Status the
// serial engine reports (lowest-failing-chunk rule). ASan runs this to
// prove the cancelled run leaks nothing.
TEST_F(ParallelDifferentialTest, FailingUdfPropagatesFirstStatus) {
  ASSERT_TRUE(fns_
                  .Register(UserFunction(
                      "fail_above",
                      FunctionSignature{{DataType::kDouble},
                                        {DataType::kDouble}},
                      [](const std::vector<Value>& args)
                          -> Result<std::vector<Value>> {
                        double v = args[0].double_value();
                        if (v > 40.0) {
                          return Status::Invalid(
                              "fail_above: value out of range");
                        }
                        return std::vector<Value>{Value(v)};
                      }))
                  .ok());
  // Sky images have bright sources well above 40, spread across chunks.
  MemArray sky = bench::MakeSkyImage(48, 16, 6, 37);
  RunDifferential("FailingUdf/apply", [&](const ExecContext& ctx) {
    return Apply(ctx, sky, "checked", DataType::kDouble,
                 Call("fail_above", {Ref("flux")}));
  });
  RunDifferential("FailingUdf/filter", [&](const ExecContext& ctx) {
    return Filter(ctx, sky, Gt(Call("fail_above", {Ref("flux")}), Lit(0.0)));
  });
}

// Empty-input failure shape: no morsels at all, everything still agrees.
TEST_F(ParallelDifferentialTest, ErrorsOnBadArgumentsAgree) {
  MemArray sky = bench::MakeSkyImage(16, 8, 2, 41);
  RunDifferential("BadAgg", [&](const ExecContext& ctx) {
    return Aggregate(ctx, sky, {}, "no_such_agg", "*");
  });
  RunDifferential("BadAttr", [&](const ExecContext& ctx) {
    return Project(ctx, sky, {"no_such_attr"});
  });
}

// ------------------------- pipeline composition -------------------------

// A realistic filter -> apply -> aggregate pipeline, every stage pooled:
// divergence anywhere would compound, so this catches cross-operator
// assembly bugs the per-op tests cannot.
TEST_F(ParallelDifferentialTest, PipelineFilterApplyAggregate) {
  MemArray sky = bench::MakeSkyImage(48, 16, 5, 43);
  RunDifferential("Pipeline", [&](const ExecContext& ctx) -> Result<MemArray> {
    ASSIGN_OR_RETURN(MemArray filtered,
                     Filter(ctx, sky, Gt(Ref("flux"), Lit(10.0))));
    ASSIGN_OR_RETURN(MemArray applied,
                     Apply(ctx, filtered, "db", DataType::kDouble,
                           Mul(Ref("flux"), Lit(0.1))));
    return Aggregate(ctx, applied, {"I"}, "sum", "db");
  });
}

// --------------------------- scalar vs batch ---------------------------
//
// Filter and Apply bind their expression once and run typed column
// kernels when it is numeric (DESIGN.md §8). The reference here is the
// cell-at-a-time engine they replaced, kept test-local: every present
// cell through Expr::Eval, written with AttributeBlock::Set. Batch output
// must match it in chunk keys, presence, every Get(), each block's
// constant-stderr flag and the SerializeChunk bytes of every chunk.

enum class Mapped { kFilter, kApply };

// With `sides`, `a` is their cross product and the oracle is Cjoin's: each
// cell's coordinates and attributes split into the sides, side by side.
Result<MemArray> ScalarOracle(const FunctionRegistry* fns, Mapped kind,
                              const MemArray& a, const ExprPtr& e,
                              const AttributeDesc& applied = {},
                              std::vector<const ArraySchema*> sides = {}) {
  const ArraySchema& schema = a.schema();
  std::vector<AttributeDesc> attrs = schema.attrs();
  std::string name = sides.empty() ? schema.name() + "_filter"
                                   : sides[0]->name() + "_cjoin";
  if (sides.empty()) sides.push_back(&schema);
  if (kind == Mapped::kApply) {
    attrs.push_back(applied);
    name = schema.name() + "_apply";
  }
  MemArray out(ArraySchema(name, schema.dims(), attrs));
  EvalContext ectx;
  ectx.functions = fns;
  std::vector<Coordinates> coords(sides.size());
  std::vector<std::vector<Value>> vals(sides.size());
  for (size_t s = 0; s < sides.size(); ++s) {
    ectx.sides.push_back({sides[s], &coords[s], &vals[s]});
  }
  Status st;
  a.ForEachCell([&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
    std::vector<Value> cell;
    for (size_t at = 0; at < chunk.nattrs(); ++at) {
      cell.push_back(chunk.block(at).Get(rank));
    }
    size_t d = 0;
    size_t at = 0;
    for (size_t s = 0; s < sides.size(); ++s) {
      coords[s].assign(c.begin() + static_cast<ptrdiff_t>(d),
                       c.begin() + static_cast<ptrdiff_t>(d + sides[s]->ndims()));
      d += sides[s]->ndims();
      vals[s].assign(cell.begin() + static_cast<ptrdiff_t>(at),
                     cell.begin() +
                         static_cast<ptrdiff_t>(at + sides[s]->nattrs()));
      at += sides[s]->nattrs();
    }
    Result<Value> v = e->Eval(ectx);
    if (!v.ok()) {
      st = v.status();
      return false;
    }
    Chunk* oc = out.GetOrCreateChunk(out.ChunkOriginFor(c));
    const bool keep = kind == Mapped::kApply ||
                      (v.value().is_bool() && v.value().bool_value());
    for (size_t k = 0; k < cell.size(); ++k) {
      oc->block(k).Set(rank, keep ? cell[k] : Value::Null());
    }
    if (kind == Mapped::kApply) oc->block(cell.size()).Set(rank, v.value());
    oc->MarkPresent(rank);
    return true;
  });
  RETURN_NOT_OK(st);
  return out;
}

// 0 = absent cell, 1 = NULL, 2 = a value.
int Pick(Rng* rng, int absent_pct, int null_pct) {
  const int r = static_cast<int>(rng->Uniform(100));
  if (r < absent_pct) return 0;
  return r < absent_pct + null_pct ? 1 : 2;
}

// A ragged 20 x 13 array (8 x 5 chunks) of every attribute kind with
// NULLs and absent cells: int64 (with zeros), double (with 0.0, -0.0),
// float, string, bool, and an uncertain double whose error bar is 0.5
// where d > 0 and 0.25 elsewhere.
MemArray MixedArray(uint64_t seed, int absent_pct) {
  ArraySchema schema("mixed", {{"I", 1, 20, 8}, {"J", 1, 13, 5}},
                     {{"i", DataType::kInt64, true, false},
                      {"d", DataType::kDouble, true, false},
                      {"f", DataType::kFloat, true, false},
                      {"s", DataType::kString, true, false},
                      {"b", DataType::kBool, true, false},
                      {"u", DataType::kDouble, true, true}});
  MemArray a(schema);
  Rng rng(seed);
  const double specials[] = {0.0, -0.0, 1.5, -2.25, 1e15, 7.0};
  for (int64_t i = 1; i <= 20; ++i) {
    for (int64_t j = 1; j <= 13; ++j) {
      if (Pick(&rng, absent_pct, 0) == 0) continue;
      auto maybe = [&](Value v) {
        return Pick(&rng, 0, 12) == 1 ? Value::Null() : std::move(v);
      };
      const double d = rng.Uniform(4) == 0
                           ? specials[rng.Uniform(6)]
                           : static_cast<double>(rng.UniformInt(-40, 40)) / 4;
      std::vector<Value> cell = {
          maybe(Value(rng.UniformInt(-5, 5))),
          maybe(Value(d)),
          maybe(Value(static_cast<double>(static_cast<float>(d / 3)))),
          maybe(Value(std::string(1, "abc"[rng.Uniform(3)]))),
          maybe(Value(rng.Uniform(2) == 0)),
          maybe(Value(Uncertain(d, d > 0 ? 0.5 : 0.25)))};
      EXPECT_TRUE(a.SetCell({i, j}, cell).ok());
    }
  }
  return a;
}

// An 11 x 9 array (4 x 4 chunks) of IEEE and int64 extremes, with
// NULLs: NaN, +-inf, +-0, +-1e300, 9.3e18 and the smallest denormal;
// INT64_MIN/MAX and 2^53 + 1; float NaN and +-inf.
MemArray SpecialsArray(uint64_t seed) {
  ArraySchema schema("specials", {{"I", 1, 11, 4}, {"J", 1, 9, 4}},
                     {{"i", DataType::kInt64, true, false},
                      {"d", DataType::kDouble, true, false},
                      {"f", DataType::kFloat, true, false}});
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double ds[] = {nan, inf, -inf, 0.0, -0.0, 1e300, -1e300, 2.5, -7.0,
                       9.3e18, 5e-324};
  const int64_t is[] = {INT64_MAX, INT64_MIN, 0, -1, 1, 7,
                        (int64_t{1} << 53) + 1};
  const double fs[] = {nan, inf, -inf, 3.5, 0.0};
  MemArray a(schema);
  Rng rng(seed);
  for (int64_t i = 1; i <= 11; ++i) {
    for (int64_t j = 1; j <= 9; ++j) {
      auto maybe = [&](Value v) {
        return Pick(&rng, 0, 10) == 1 ? Value::Null() : std::move(v);
      };
      std::vector<Value> cell = {maybe(Value(is[rng.Uniform(7)])),
                                 maybe(Value(ds[rng.Uniform(11)])),
                                 maybe(Value(fs[rng.Uniform(5)]))};
      EXPECT_TRUE(a.SetCell({i, j}, cell).ok());
    }
  }
  return a;
}

// A 9 x 7 array (4 x 3 chunks) of a double, a nested array (NULL in some
// cells) and a string, with absent cells.
MemArray NestedArrayInput(uint64_t seed) {
  ArraySchema schema("nested", {{"I", 1, 9, 4}, {"J", 1, 7, 3}},
                     {{"d", DataType::kDouble, true, false},
                      {"n", DataType::kArray, true, false},
                      {"s", DataType::kString, true, false}});
  MemArray a(schema);
  Rng rng(seed);
  for (int64_t i = 1; i <= 9; ++i) {
    for (int64_t j = 1; j <= 7; ++j) {
      if (Pick(&rng, 20, 0) == 0) continue;
      auto nested = std::make_shared<NestedArray>();
      nested->shape = {2};
      nested->values = {Value(static_cast<double>(i)),
                        Value(static_cast<double>(j))};
      std::vector<Value> cell = {
          Value(static_cast<double>(rng.UniformInt(-8, 8)) / 2),
          Pick(&rng, 0, 25) == 1 ? Value::Null() : Value(nested),
          Value(std::string(1, "xyz"[rng.Uniform(3)]))};
      EXPECT_TRUE(a.SetCell({i, j}, cell).ok());
    }
  }
  return a;
}

// A rows x cols array (chunks of 3 x 2) of an int64 and a double, some
// NULL; one side of a Cjoin.
MemArray CjoinSide(const std::string& name, int64_t rows, int64_t cols,
                   uint64_t seed) {
  ArraySchema schema(name, {{"I", 1, rows, 3}, {"J", 1, cols, 2}},
                     {{"k", DataType::kInt64, true, false},
                      {"d", DataType::kDouble, true, false}});
  MemArray a(schema);
  Rng rng(seed);
  for (int64_t i = 1; i <= rows; ++i) {
    for (int64_t j = 1; j <= cols; ++j) {
      auto maybe = [&](Value v) {
        return Pick(&rng, 0, 15) == 1 ? Value::Null() : std::move(v);
      };
      std::vector<Value> cell = {
          maybe(Value(rng.UniformInt(-3, 3))),
          maybe(Value(static_cast<double>(rng.UniformInt(-20, 20)) / 4))};
      EXPECT_TRUE(a.SetCell({i, j}, cell).ok());
    }
  }
  return a;
}

::testing::AssertionResult SameBytesAndStderr(const MemArray& want,
                                              const MemArray& got) {
  auto w = want.chunks().begin();
  auto g = got.chunks().begin();
  for (; w != want.chunks().end() && g != got.chunks().end(); ++w, ++g) {
    for (size_t at = 0; at < w->second->nattrs(); ++at) {
      const AttributeBlock& bw = w->second->block(at);
      const AttributeBlock& bg = g->second->block(at);
      if (bw.uncertain() &&
          bw.has_constant_stderr() != bg.has_constant_stderr()) {
        return ::testing::AssertionFailure()
               << "constant-stderr flag differs in chunk "
               << CoordsToString(w->first) << " attr " << at;
      }
    }
    if (SerializeChunk(*w->second) != SerializeChunk(*g->second)) {
      return ::testing::AssertionFailure()
             << "SerializeChunk bytes differ in chunk "
             << CoordsToString(w->first);
    }
  }
  return ::testing::AssertionSuccess();
}

class ScalarVsBatchTest : public ParallelDifferentialTest {
 protected:
  // `run` at widths 1, 2 and 8 against the oracle's `want`: both succeed
  // with identical arrays, or both fail with the same Status.
  void Expect(const std::string& label, const Result<MemArray>& want,
              const std::function<Result<MemArray>(const ExecContext&)>& run) {
    for (int width : {1, 2, 8}) {
      ThreadPool pool(width);
      Result<MemArray> got = run(CtxWith(&pool));
      const std::string tag = label + " @width " + std::to_string(width);
      ASSERT_EQ(want.ok(), got.ok())
          << tag << ": "
          << (want.ok() ? got.status() : want.status()).ToString();
      if (!want.ok()) {
        EXPECT_EQ(want.status().code(), got.status().code()) << tag;
        EXPECT_EQ(want.status().message(), got.status().message()) << tag;
        continue;
      }
      ExpectArraysIdentical(want.value(), got.value(), tag);
      EXPECT_TRUE(SameBytesAndStderr(want.value(), got.value())) << tag;
    }
  }

  // The oracle against Filter or Apply.
  void Check(const std::string& label, const MemArray& a, Mapped kind,
             const ExprPtr& e,
             AttributeDesc applied = {"out", DataType::kDouble, true, false}) {
    SCOPED_TRACE(label + " on " + a.schema().name() + ": " + e->ToString());
    Expect(label, ScalarOracle(&fns_, kind, a, e, applied),
           [&](const ExecContext& ctx) {
             return kind == Mapped::kFilter
                        ? Filter(ctx, a, e)
                        : Apply(ctx, a, applied.name, applied.type, e,
                                applied.uncertain);
           });
  }

  // The oracle over the engine's cross product against Cjoin.
  void CheckCjoin(const std::string& label, const MemArray& a,
                  const MemArray& b, const ExprPtr& e) {
    SCOPED_TRACE(label + ": " + e->ToString());
    const MemArray cross = CrossProduct(CtxWith(nullptr), a, b).ValueOrDie();
    Expect(label,
           ScalarOracle(&fns_, Mapped::kFilter, cross, e, {},
                        {&a.schema(), &b.schema()}),
           [&](const ExecContext& ctx) { return Cjoin(ctx, a, b, e); });
  }

  void CheckBoth(const std::string& label, const MemArray& a,
                 const ExprPtr& e) {
    Check("Filter/" + label, a, Mapped::kFilter, e);
    Check("Apply/" + label, a, Mapped::kApply, e);
  }

  std::vector<MemArray> MixedInputs() {
    std::vector<MemArray> in;
    in.push_back(MixedArray(TestSeed(61), /*absent_pct=*/0));   // dense
    in.push_back(MixedArray(TestSeed(67), /*absent_pct=*/30));  // sparse
    return in;
  }
};

TEST_F(ScalarVsBatchTest, NumericKernels) {
  const std::vector<std::pair<std::string, ExprPtr>> exprs = {
      {"int_add", Add(Ref("i"), Lit(int64_t{3}))},
      {"int_mul_dim", Mul(Ref("i"), Ref("J"))},
      {"int_div_zero", Div(Lit(int64_t{7}), Ref("i"))},
      {"int_mod_zero", Mod(Ref("I"), Ref("i"))},
      {"int_div_neg", Div(Ref("i"), Lit(int64_t{-1}))},
      {"double_div_zero", Div(Lit(1.0), Ref("d"))},
      {"double_mod_zero", Mod(Ref("d"), Ref("d"))},
      {"double_chain", Sub(Mul(Ref("d"), Lit(1.7)), Lit(17.0))},
      {"mixed", Add(Mul(Ref("i"), Ref("d")), Ref("I"))},
      {"mixed_div", Div(Ref("i"), Lit(2.0))},
      {"float", Sub(Ref("f"), Lit(0.1))},
      {"dims", Add(Ref("I"), Mul(Ref("J"), Lit(int64_t{100})))},
      {"qualified", Add(Ref("d", 0), Ref("i"))},
      {"cmp", Gt(Ref("d"), Lit(0.0))},
      {"cmp_int", Le(Ref("i"), Ref("J"))},
      {"cmp_mixed", Eq(Ref("i"), Ref("d"))},
      {"cmp_dims", Eq(Mod(Ref("I"), Lit(int64_t{3})), Lit(int64_t{0}))},
      {"and_null",
       And(Gt(Ref("d"), Lit(0.0)), Lt(Ref("i"), Lit(int64_t{2})))},
      {"or_null",
       Or(Lt(Ref("d"), Lit(-1.0)), Ne(Ref("i"), Lit(int64_t{0})))},
      {"not_null", Not(Ge(Ref("f"), Ref("d")))},
      {"bool_literal",
       And(Lit(Value(true)), Gt(Ref("i"), Lit(int64_t{0})))},
      {"nested_logic",
       Or(And(Gt(Ref("I"), Lit(int64_t{4})), Not(Lt(Ref("d"), Ref("f")))),
          Eq(Div(Ref("i"), Ref("i")), Lit(int64_t{1})))},
      {"not_a_predicate", Mul(Ref("d"), Lit(2.0))},
  };
  for (const MemArray& a : MixedInputs()) {
    for (const auto& [label, e] : exprs) CheckBoth(label, a, e);
  }
}

// The kernel's result column lands in every declared output type with
// AttributeBlock::Set's coercions (and an uncertain output's error bar).
TEST_F(ScalarVsBatchTest, ApplyStoresIntoEveryType) {
  const MemArray a = MixedInputs()[1];
  const std::vector<ExprPtr> exprs = {Add(Ref("i"), Lit(int64_t{1})),
                                      Mul(Ref("d"), Lit(3.0)),
                                      Gt(Ref("d"), Lit(0.0))};
  for (DataType t : {DataType::kDouble, DataType::kInt64, DataType::kFloat,
                     DataType::kBool, DataType::kString}) {
    for (bool uncertain : {false, true}) {
      if (uncertain && !IsNumeric(t)) continue;
      for (const ExprPtr& e : exprs) {
        Check(std::string("store_") + DataTypeName(t) +
                  (uncertain ? "_uncertain" : ""),
              a, Mapped::kApply, e, {"out", t, true, uncertain});
      }
    }
  }
}

// Strings, bools read from attributes, uncertain values and NULL
// literals take the Value path through the same bound slots.
TEST_F(ScalarVsBatchTest, ValuePathFallbacks) {
  const std::vector<std::pair<std::string, ExprPtr>> exprs = {
      {"string_eq", Eq(Ref("s"), Lit(Value(std::string("a"))))},
      {"bool_attr", Ref("b")},
      {"bool_attr_and", And(Ref("b"), Gt(Ref("d"), Lit(0.0)))},
      {"not_bool_attr", Not(Ref("b"))},
      {"uncertain_add", Add(Ref("u"), Lit(1.0))},
      {"uncertain_cmp", Gt(Ref("u"), Lit(0.0))},
      {"null_literal", Add(Ref("d"), Lit(Value::Null()))},
      {"not_of_number", Not(Ref("d"))},
  };
  for (const MemArray& a : MixedInputs()) {
    for (const auto& [label, e] : exprs) CheckBoth(label, a, e);
  }
}

// The uncertain attribute's error bar is 0.5 on kept cells (d > 0) and
// 0.25 on rejected ones: Filter's output block must collapse to the
// constant 0.5 exactly as the scalar engine's does, while Apply keeps
// every cell and so the materialized column.
TEST_F(ScalarVsBatchTest, UncertainPassThroughKeepsStderrEncoding) {
  for (const MemArray& a : MixedInputs()) {
    const ExprPtr keep = Gt(Ref("d"), Lit(0.0));
    Check("Filter/uncertain", a, Mapped::kFilter, keep);
    Check("Apply/uncertain", a, Mapped::kApply, keep);
    ExecContext ctx = CtxWith(nullptr);
    MemArray kept = Filter(ctx, a, keep).ValueOrDie();
    const size_t u = a.schema().FindAttr("u").value();
    bool any_constant = false;
    for (const auto& [origin, chunk] : kept.chunks()) {
      any_constant = any_constant || chunk->block(u).has_constant_stderr();
    }
    EXPECT_TRUE(any_constant);
  }
}

// Unknown names fail lazily with Resolve's NotFound: on the first
// non-empty chunk, never on an empty input, never behind a short circuit.
TEST_F(ScalarVsBatchTest, UnknownNamesFailLazily) {
  ArraySchema empty_schema("empty", {{"I", 1, 64, 16}, {"J", 1, 64, 16}},
                           {{"flux", DataType::kDouble, true, false}});
  const MemArray empty(empty_schema);
  const MemArray sky = bench::MakeSkyImage(48, 16, 5, 7);
  for (const MemArray* a : {&sky, &empty}) {
    CheckBoth("unknown", *a, Gt(Ref("nope"), Lit(0.0)));
    CheckBoth("other_side", *a, Gt(Ref("flux", 1), Lit(0.0)));
    CheckBoth("short_circuit", *a, And(Lit(Value(false)), Ref("nope")));
  }
  ExecContext ctx = CtxWith(nullptr);
  EXPECT_TRUE(Filter(ctx, empty, Ref("nope")).ok());
  Status st = Filter(ctx, sky, Ref("nope")).status();
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "unknown dimension or attribute 'nope'");
}

// The first error of a failing UDF comes from the lowest failing chunk,
// at every width, exactly as the scalar engine reports it.
TEST_F(ScalarVsBatchTest, FailingUdfFirstErrorFromLowestChunk) {
  ASSERT_TRUE(fns_
                  .Register(UserFunction(
                      "fail_above_30",
                      FunctionSignature{{DataType::kDouble},
                                        {DataType::kDouble}},
                      [](const std::vector<Value>& args)
                          -> Result<std::vector<Value>> {
                        const double v = args[0].double_value();
                        if (v > 30.0) {
                          return Status::Invalid("fail_above_30: " +
                                                 std::to_string(v));
                        }
                        return std::vector<Value>{Value(v)};
                      }))
                  .ok());
  const MemArray sky = bench::MakeSkyImage(48, 16, 6, 37);
  CheckBoth("udf", sky, Gt(Call("fail_above_30", {Ref("flux")}), Lit(0.0)));
  CheckBoth("missing_udf", sky, Call("no_such_fn", {Ref("flux")}));
}

// The workload shapes the serial-vs-parallel axis covers.
TEST_F(ScalarVsBatchTest, WorkloadShapes) {
  for (auto& [name, a] : Inputs2D()) {
    const std::string attr = a.schema().attr(0).name;
    CheckBoth(name + "/cook", a, Sub(Mul(Ref(attr), Lit(1.7)), Lit(17.0)));
    CheckBoth(name + "/threshold", a, Gt(Ref(attr), Lit(12.0)));
    CheckBoth(name + "/dims", a,
              And(Le(Ref("I"), Lit(int64_t{30})),
                  Gt(Ref("J"), Lit(int64_t{5}))));
  }
}

// A literal is a broadcast scalar on either side of a kernel; a zero
// scalar divisor makes the whole column NULL; a literal-only subtree
// (or tree) evaluates as any other.
TEST_F(ScalarVsBatchTest, ScalarOperands) {
  const std::vector<std::pair<std::string, ExprPtr>> exprs = {
      {"scalar_left_sub", Sub(Lit(100.0), Ref("d"))},
      {"scalar_left_div", Div(Lit(int64_t{7}), Ref("i"))},
      {"scalar_zero_dividend", Div(Lit(int64_t{0}), Ref("i"))},
      {"scalar_zero_divisor", Div(Ref("i"), Lit(int64_t{0}))},
      {"scalar_zero_mod", Mod(Ref("I"), Lit(int64_t{0}))},
      {"scalar_zero_double_div", Div(Ref("d"), Lit(0.0))},
      {"scalar_zero_double_mod", Mod(Ref("f"), Lit(-0.0))},
      {"scalar_left_mod", Mod(Lit(0.5), Ref("d"))},
      {"scalar_left_dim", Sub(Lit(int64_t{2}), Ref("I"))},
      {"scalar_left_cmp", Lt(Lit(3.0), Ref("d"))},
      {"literal_subtree", Add(Ref("d"), Mul(Lit(2.0), Lit(3.0)))},
      {"literal_subtree_zero", Add(Ref("i"), Div(Lit(int64_t{4}),
                                                  Lit(int64_t{0})))},
      {"literal_tree", Mul(Lit(2.0), Lit(3.0))},
      {"literal_cmp", Lt(Lit(int64_t{1}), Lit(2.0))},
      {"literal_not", Not(Lit(Value(false)))},
      {"literal_logic", Or(Lit(Value(false)), Lit(Value(true)))},
      {"logic_with_literal", And(Gt(Ref("d"), Lit(0.0)), Lit(Value(true)))},
      {"dims_only", Gt(Ref("J"), Lit(int64_t{6}))},
  };
  for (const MemArray& a : MixedInputs()) {
    for (const auto& [label, e] : exprs) CheckBoth(label, a, e);
  }
}

// NaN, +-inf and the int64 extremes as operands, and doubles that do not
// fit an int64 stored into one (INT64_MIN, as Value::AsInt64 converts).
TEST_F(ScalarVsBatchTest, IeeeSpecialsAndInt64Extremes) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const MemArray a = SpecialsArray(TestSeed(71));
  const std::vector<std::pair<std::string, ExprPtr>> exprs = {
      {"double_mul", Mul(Ref("d"), Lit(2.0))},
      {"self_sub", Sub(Ref("d"), Ref("d"))},
      {"self_div", Div(Ref("d"), Ref("d"))},
      {"mod", Mod(Ref("d"), Lit(3.0))},
      {"inf_literal", Mul(Lit(inf), Ref("d"))},
      {"nan_literal", Add(Ref("d"), Lit(nan))},
      {"nan_cmp", Eq(Ref("d"), Ref("d"))},
      {"inf_cmp", Lt(Ref("f"), Lit(inf))},
      {"int_over_double", Div(Ref("i"), Ref("d"))},
      {"int_wrap", Mul(Ref("i"), Lit(int64_t{2}))},
      {"int_neg", Div(Ref("i"), Lit(int64_t{-1}))},
      {"int_mod_neg", Mod(Ref("i"), Lit(int64_t{-1}))},
      {"float_plus_double", Add(Ref("f"), Ref("d"))},
  };
  for (const auto& [label, e] : exprs) CheckBoth(label, a, e);
  for (const ExprPtr& e : {Mul(Ref("d"), Lit(1e300)), Ref("d"), Ref("f"),
                           Add(Ref("i"), Lit(0.5)), Gt(Ref("d"), Lit(0.0))}) {
    Check("store_int64", a, Mapped::kApply, e,
          {"out", DataType::kInt64, true, false});
  }
}

// A dense chunk with cells removed by DeleteCell keeps their stale
// payloads behind its presence flags; whole columns carry them along.
TEST_F(ScalarVsBatchTest, DeletedCellsKeepStalePayloads) {
  MemArray a = MixedArray(TestSeed(73), /*absent_pct=*/0);
  Rng rng(TestSeed(79));
  for (int64_t i = 1; i <= 20; ++i) {
    for (int64_t j = 1; j <= 13; ++j) {
      if (rng.Uniform(3) == 0) {
        ASSERT_TRUE(a.DeleteCell({i, j}).ok());
      }
    }
  }
  const std::vector<std::pair<std::string, ExprPtr>> exprs = {
      {"cmp", Gt(Ref("d"), Lit(0.0))},
      {"cook", Sub(Mul(Ref("d"), Lit(1.7)), Lit(17.0))},
      {"int", Add(Ref("i"), Ref("J"))},
      {"uncertain", Gt(Ref("u"), Lit(0.0))},
  };
  for (const auto& [label, e] : exprs) CheckBoth(label, a, e);
  for (DataType t : {DataType::kDouble, DataType::kInt64, DataType::kBool}) {
    Check(std::string("store_") + DataTypeName(t), a, Mapped::kApply,
          Mul(Ref("d"), Lit(3.0)), {"out", t, true, false});
  }
}

// Filter keeps a chunk whose every cell it drops: present, all NULL.
TEST_F(ScalarVsBatchTest, FilterDropsWholeChunks) {
  for (const MemArray& a : MixedInputs()) {
    Check("rows_above_8", a, Mapped::kFilter, Gt(Ref("I"), Lit(int64_t{8})));
    Check("nothing", a, Mapped::kFilter, Lt(Ref("d"), Lit(-1e9)));
    Check("false", a, Mapped::kFilter, Lit(Value(false)));
  }
}

// A nested-array attribute passes through cell by cell, NULL cells and
// absent cells included.
TEST_F(ScalarVsBatchTest, NestedArrayPassThrough) {
  const MemArray a = NestedArrayInput(TestSeed(83));
  CheckBoth("cmp", a, Gt(Ref("d"), Lit(0.0)));
  CheckBoth("arith", a, Sub(Lit(1.0), Ref("d")));
  Check("store_int64", a, Mapped::kApply, Ref("I"),
        {"out", DataType::kInt64, true, false});
}

// Cjoin binds typed attributes of both sides, qualified and not.
TEST_F(ScalarVsBatchTest, CjoinOverTypedAttributes) {
  const MemArray a = CjoinSide("A", 5, 4, TestSeed(89));
  const MemArray b = CjoinSide("B", 3, 3, TestSeed(97));
  CheckCjoin("cjoin_lt", a, b, Lt(Ref("d", 0), Ref("d", 1)));
  CheckCjoin("cjoin_sum", a, b,
             Gt(Add(Ref("k", 0), Ref("k", 1)), Lit(int64_t{1})));
  CheckCjoin("cjoin_dims", a, b, Eq(Ref("I", 0), Ref("J", 1)));
  CheckCjoin("cjoin_mixed", a, b,
             And(Ne(Ref("d"), Lit(0.0)),
                 Le(Div(Ref("k", 1), Ref("d", 0)), Lit(1.0))));
}

// ------------------ pushdown vs full read (DESIGN.md §5) -----------------
//
// A Subsample over an array reference reads only SubsampleBox from its
// source; with ExecContext::enable_chunk_pruning off it reads the whole
// extent. Both sides, and the session's own leaf pushdown, must agree
// bit for bit at widths 1, 2 and 4 for stored arrays (overlapping
// rewrites over merged buckets that cross grid chunks), server snapshots,
// catalog arrays and .sdb files, bounded or unbounded.

// 18 x 17 cells in 4 x 5 chunks of int64, string, uncertain double and
// double; J is unbounded when `open`, with cells up to J = 23.
ArraySchema PushdownSchema(const std::string& name, bool open) {
  const int64_t jhigh = open ? kUnboundedDim : 17;
  return ArraySchema(name, {{"I", 1, 18, 4}, {"J", 1, jhigh, 5}},
                     {{"n", DataType::kInt64, true, false},
                      {"s", DataType::kString, true, false},
                      {"u", DataType::kDouble, true, true},
                      {"d", DataType::kDouble, true, false}});
}

MemArray PushdownCells(const ArraySchema& schema, int keep_pct, Rng* rng) {
  const int64_t jmax = schema.dim(1).unbounded() ? 23 : 17;
  MemArray a(schema);
  for (int64_t i = 1; i <= 18; ++i) {
    for (int64_t j = 1; j <= jmax; ++j) {
      if (static_cast<int>(rng->Uniform(100)) >= keep_pct) continue;
      auto maybe = [&](Value v) {
        return rng->Uniform(10) == 0 ? Value::Null() : std::move(v);
      };
      const double x = static_cast<double>(rng->UniformInt(-1000, 1000)) / 8;
      std::vector<Value> cell = {
          maybe(Value(rng->UniformInt(-(int64_t{1} << 40), int64_t{1} << 40))),
          maybe(Value(
              std::string("s").append(std::to_string(rng->Uniform(50))))),
          maybe(Value(Uncertain(x, rng->Uniform(3) == 0 ? 0.5 : 0.125))),
          maybe(Value(x * 3))};
      EXPECT_TRUE(a.SetCell({i, j}, cell).ok());
    }
  }
  return a;
}

// One source kind: the source itself and how a session reaches it.
struct PushdownSource {
  std::string label;
  std::shared_ptr<const ArraySource> source;
  std::function<void(Session*)> attach;
};

class PushdownDifferentialTest : public ParallelDifferentialTest {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("scidb_pushdown_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    storage_ = std::make_unique<StorageManager>(dir_);
  }
  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  // The stored, snapshot, catalog and single-file (.sdb) sources over
  // one seeded array.
  std::vector<PushdownSource> Sources(bool open) {
    const std::string tag = open ? "_open" : "";
    std::vector<PushdownSource> out;
    Rng rng(TestSeed(open ? 401 : 402));

    const ArraySchema stored_schema = PushdownSchema("stored" + tag, open);
    DiskArray* disk = storage_->CreateArray(stored_schema).ValueOrDie();
    const MemArray first = PushdownCells(stored_schema, 90, &rng);
    const MemArray second = PushdownCells(stored_schema, 35, &rng);
    EXPECT_TRUE(disk->WriteAll(first).ok());
    EXPECT_GT(disk->MergeSmallBuckets(1 << 20).ValueOrDie(), 0);
    EXPECT_TRUE(disk->WriteAll(second).ok());
    out.push_back({stored_schema.name(),
                   std::shared_ptr<const ArraySource>(std::shared_ptr<void>(),
                                                      disk),
                   [this](Session* s) { s->AttachStorage(storage_.get()); }});

    const ArraySchema shared_schema = PushdownSchema("shared" + tag, open);
    EXPECT_TRUE(catalog_.Define(shared_schema).ok());
    int64_t pinned = 0;
    for (int t = 0; t < 3; ++t) {
      std::vector<CellUpdate> txn;
      PushdownCells(shared_schema, 40, &rng)
          .ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                           int64_t rank) {
            if (rng.Uniform(6) == 0) {
              txn.push_back(CellUpdate::Delete(c));
              return true;
            }
            std::vector<Value> cell;
            for (size_t at = 0; at < chunk.nattrs(); ++at) {
              cell.push_back(chunk.block(at).Get(rank));
            }
            txn.push_back(CellUpdate::Set(c, std::move(cell)));
            return true;
          });
      const int64_t epoch =
          catalog_.CommitCells(shared_schema.name(), txn).ValueOrDie();
      if (t == 1) pinned = epoch;  // the last commit stays invisible
    }
    out.push_back({shared_schema.name(),
                   catalog_.Source(shared_schema.name(), pinned).ValueOrDie(),
                   [this, pinned](Session* s) {
                     s->set_array_resolver([this, pinned](
                                               const std::string& name) {
                       return catalog_.Source(name, pinned);
                     });
                   }});

    auto mem = std::make_shared<MemArray>(
        PushdownCells(PushdownSchema("catalog" + tag, open), 60, &rng));
    out.push_back({mem->schema().name(), std::make_shared<MemArraySource>(mem),
                   [mem](Session* s) {
                     ASSERT_TRUE(s->RegisterArray(mem).ok());
                   }});

    const ArraySchema sdb_schema = PushdownSchema("sdb" + tag, open);
    const std::string path = dir_ + "/" + sdb_schema.name() + ".sdb";
    EXPECT_TRUE(DiskArray::WriteSingleFile(
                    path, PushdownCells(sdb_schema, 60, &rng))
                    .ok());
    std::shared_ptr<const ArraySource> sdb =
        DiskArray::OpenSingleFile(path).ValueOrDie();
    out.push_back({sdb_schema.name(), sdb, [sdb](Session* s) {
                     s->set_array_resolver([sdb](const std::string&) {
                       return Result<std::shared_ptr<const ArraySource>>(sdb);
                     });
                   }});
    return out;
  }

  // Subsample of what `source` returns for SubsampleBox under `ctx`.
  static Result<MemArray> ReadAndSubsample(const ExecContext& ctx,
                                           const ArraySource& source,
                                           const ExprPtr& pred) {
    ASSIGN_OR_RETURN(MemArray in,
                     source.ReadRegion(SubsampleBox(ctx, source, *pred),
                                       ctx.pool));
    return Subsample(ctx, in, pred);
  }

  static void ExpectSameOutcome(const Result<MemArray>& want,
                                const Result<MemArray>& got,
                                const std::string& tag) {
    ASSERT_EQ(want.ok(), got.ok())
        << tag << ": "
        << (want.ok() ? got.status().ToString() : want.status().ToString());
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code()) << tag;
      EXPECT_EQ(want.status().message(), got.status().message()) << tag;
      return;
    }
    ExpectArraysIdentical(want.value(), got.value(), tag);
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  server::SharedCatalog catalog_;
};

// Interior, chunk-straddling, single-column, empty, past the high-water
// mark (past the bounds when J is bounded), open-ended, a conjunct the
// box cannot capture, and an illegal predicate.
std::vector<std::pair<std::string, ExprPtr>> PushdownPredicates() {
  auto i = [](int64_t v) { return Lit(v); };
  return {
      {"interior", And(And(Ge(Ref("I"), i(2)), Le(Ref("I"), i(3))),
                       And(Ge(Ref("J"), i(2)), Le(Ref("J"), i(3))))},
      {"straddle", And(And(Ge(Ref("I"), i(3)), Le(Ref("I"), i(11))),
                       And(Ge(Ref("J"), i(4)), Le(Ref("J"), i(12))))},
      {"column", Eq(Ref("J"), i(16))},
      {"empty", And(Gt(Ref("I"), i(5)), Lt(Ref("I"), i(3)))},
      {"past_hwm", Gt(Ref("J"), i(30))},
      {"open", Ge(Ref("I"), i(7))},
      {"inexact", And(Eq(Mod(Ref("I"), i(2)), i(0)), Le(Ref("J"), i(9)))},
      {"illegal", Eq(Ref("I"), Ref("J"))},
  };
}

TEST_F(PushdownDifferentialTest, RegionReadMatchesFullRead) {
  for (bool open : {false, true}) {
    for (const PushdownSource& src : Sources(open)) {
      std::vector<std::pair<std::string, Result<MemArray>>> reference;
      for (const auto& [name, pred] : PushdownPredicates()) {
        ExecContext full = CtxWith(nullptr);
        full.enable_chunk_pruning = false;
        reference.emplace_back(name,
                               ReadAndSubsample(full, *src.source, pred));
      }
      for (int width : {1, 2, 4}) {
        ThreadPool pool(width);
        Session session;
        ASSERT_TRUE(session.set_parallelism(width).ok());
        src.attach(&session);
        size_t k = 0;
        for (const auto& [name, pred] : PushdownPredicates()) {
          const std::string tag = src.label + "/" + name + " @width " +
                                  std::to_string(width);
          const Result<MemArray>& want = reference[k++].second;
          ExecContext ctx = CtxWith(&pool);
          ctx.enable_chunk_pruning = false;
          ExpectSameOutcome(want, ReadAndSubsample(ctx, *src.source, pred),
                            tag + " full");
          ctx.enable_chunk_pruning = true;
          ExpectSameOutcome(want, ReadAndSubsample(ctx, *src.source, pred),
                            tag + " pushdown");
          ExpectSameOutcome(
              want,
              session.Eval(binding::Subsample(binding::Array(src.label), pred)),
              tag + " session");
        }
      }
    }
  }
}

}  // namespace
}  // namespace scidb
