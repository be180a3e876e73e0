// Serial-vs-parallel differential harness (ISSUE 3, DESIGN.md §8): every
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
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "exec/operators.h"

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
// Cancelled at every width, before the first morsel.
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

}  // namespace
}  // namespace scidb
