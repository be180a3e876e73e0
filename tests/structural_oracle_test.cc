// Oracle for the typed cell moves of the remapping operators: each of
// Reshape, Sjoin, AddDimension, RemoveDimension, Concat, CrossProduct,
// Cjoin and the cooking composite is compared, cell for cell and bit for
// bit, with a test-local boxed reference — the loop those operators used
// to run, which reads every cell into a std::vector<Value> with Get() and
// writes it with MemArray::SetCell. Inputs mix sparse chunks, cells on
// both sides of chunk boundaries, and int64, nullable double, string and
// uncertain double attributes; error cases must fail with the same
// Status.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "cook/cooking.h"
#include "exec/operators.h"

namespace scidb {
namespace {

// ------------------------------------------------------ boxed reference

std::vector<Value> Row(const Chunk& chunk, int64_t rank) {
  std::vector<Value> row;
  for (size_t at = 0; at < chunk.nattrs(); ++at) {
    row.push_back(chunk.block(at).Get(rank));
  }
  return row;
}

// Writes every present cell of `src` to out at map(c); `map` may fail.
template <typename Map>
Status RefMove(const MemArray& src, MemArray* out, Map map) {
  Status st;
  src.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                      int64_t rank) {
    Result<Coordinates> oc = map(c);
    st = oc.ok() ? out->SetCell(oc.value(), Row(chunk, rank)) : oc.status();
    return st.ok();
  });
  return st;
}

Result<MemArray> RefReshape(const MemArray& a,
                            const std::vector<std::string>& order,
                            const ArraySchema& out_schema) {
  ASSIGN_OR_RETURN(Box in_box, a.schema().Bounds());
  ASSIGN_OR_RETURN(Box out_box, out_schema.Bounds());
  std::vector<size_t> perm;
  Box perm_box;
  for (const std::string& name : order) {
    ASSIGN_OR_RETURN(size_t d, a.schema().DimIndex(name));
    perm.push_back(d);
    perm_box.low.push_back(in_box.low[d]);
    perm_box.high.push_back(in_box.high[d]);
  }
  MemArray out(out_schema);
  RETURN_NOT_OK(RefMove(a, &out, [&](const Coordinates& c) {
    if (!in_box.Contains(c)) {
      return Result<Coordinates>(Status::OutOfRange("outside the bounds"));
    }
    Coordinates pc;
    for (size_t d : perm) pc.push_back(c[d]);
    return Result<Coordinates>(UnrankInBox(out_box, RankInBox(perm_box, pc)));
  }));
  return out;
}

Result<MemArray> RefAddDimension(const MemArray& a,
                                 const ArraySchema& out_schema) {
  MemArray out(out_schema);
  RETURN_NOT_OK(RefMove(a, &out, [](Coordinates c) {
    c.push_back(1);
    return Result<Coordinates>(std::move(c));
  }));
  return out;
}

Result<MemArray> RefRemoveDimension(const MemArray& a, size_t di,
                                    const ArraySchema& out_schema) {
  MemArray out(out_schema);
  RETURN_NOT_OK(RefMove(a, &out, [&](Coordinates c) -> Result<Coordinates> {
    c.erase(c.begin() + static_cast<std::ptrdiff_t>(di));
    if (out.Exists(c)) return Status::Invalid("collapses distinct cells");
    return c;
  }));
  return out;
}

Result<MemArray> RefConcat(const MemArray& a, const MemArray& b, size_t di,
                           int64_t shift, const ArraySchema& out_schema) {
  MemArray out(out_schema);
  for (const MemArray* src : {&a, &b}) {
    const int64_t delta = src == &a ? 0 : shift;
    RETURN_NOT_OK(RefMove(*src, &out, [&](Coordinates c) {
      c[di] += delta;
      return Result<Coordinates>(std::move(c));
    }));
  }
  return out;
}

Result<MemArray> RefSjoin(const MemArray& a, const MemArray& b, size_t ai,
                          size_t bi, const ArraySchema& out_schema) {
  MemArray out(out_schema);
  Status st;
  a.ForEachCell([&](const Coordinates& ca, const Chunk& ach, int64_t ar) {
    b.ForEachCell([&](const Coordinates& cb, const Chunk& bch, int64_t br) {
      if (ca[ai] != cb[bi]) return true;
      Coordinates oc = ca;
      for (size_t d = 0; d < cb.size(); ++d) {
        if (d != bi) oc.push_back(cb[d]);
      }
      std::vector<Value> row = Row(ach, ar);
      for (Value& v : Row(bch, br)) row.push_back(std::move(v));
      st = out.SetCell(oc, row);
      return st.ok();
    });
    return st.ok();
  });
  RETURN_NOT_OK(st);
  return out;
}

// CrossProduct when `pred` is null, else Cjoin: non-matching positions
// hold an all-NULL tuple.
Result<MemArray> RefJoin(const ExecContext& ctx, const MemArray& a,
                         const MemArray& b, const ExprPtr& pred,
                         const ArraySchema& out_schema) {
  MemArray out(out_schema);
  EvalContext ectx;
  ectx.functions = ctx.functions;
  Coordinates ca_bound, cb_bound;
  std::vector<Value> va, vb;
  ectx.sides.push_back({&a.schema(), &ca_bound, &va});
  ectx.sides.push_back({&b.schema(), &cb_bound, &vb});
  Status st;
  a.ForEachCell([&](const Coordinates& ca, const Chunk& ach, int64_t ar) {
    ca_bound = ca;
    va = Row(ach, ar);
    b.ForEachCell([&](const Coordinates& cb, const Chunk& bch, int64_t br) {
      cb_bound = cb;
      vb = Row(bch, br);
      bool match = true;
      if (pred != nullptr) {
        Result<Value> keep = pred->Eval(ectx);
        if (!keep.ok()) {
          st = keep.status();
          return false;
        }
        match = keep.value().is_bool() && keep.value().bool_value();
      }
      Coordinates oc = ca;
      oc.insert(oc.end(), cb.begin(), cb.end());
      std::vector<Value> row(out_schema.nattrs());
      if (match) {
        row = va;
        row.insert(row.end(), vb.begin(), vb.end());
      }
      st = out.SetCell(oc, row);
      return st.ok();
    });
    return st.ok();
  });
  RETURN_NOT_OK(st);
  return out;
}

Result<MemArray> RefComposite(const std::vector<const MemArray*>& passes,
                              size_t crit, const ArraySchema& out_schema) {
  MemArray out(out_schema);
  Status st;
  for (const MemArray* p : passes) {
    p->ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                       int64_t rank) {
      Value candidate = chunk.block(crit).Get(rank);
      auto existing = out.GetCell(c);
      if (existing.has_value()) {
        const Value& best = (*existing)[crit];
        if (candidate.is_null()) return true;
        if (!best.is_null() && !candidate.LessThan(best)) return true;
      }
      st = out.SetCell(c, Row(chunk, rank));
      return st.ok();
    });
    RETURN_NOT_OK(st);
  }
  return out;
}

// --------------------------------------------------------------- inputs

ArraySchema Mixed(const std::string& name, std::vector<DimensionDesc> dims) {
  return ArraySchema(name, std::move(dims),
                     {{"n", DataType::kInt64, true, false},
                      {"f", DataType::kDouble, true, false},
                      {"s", DataType::kString, true, false},
                      {"u", DataType::kDouble, true, true}});
}

// Present with probability `density`; the chunk holding `skip` stays
// empty. f is NULL in about one cell in five; u's error bars vary, so its
// stderr column does not collapse to a constant.
MemArray Fill(const ArraySchema& schema, uint64_t seed, double density,
              const Coordinates& skip = {}) {
  MemArray a(schema);
  Rng rng(seed);
  Box box = schema.Bounds().ValueOrDie();
  Coordinates c = box.low;
  const Coordinates skipped =
      skip.empty() ? Coordinates{} : a.ChunkOriginFor(skip);
  do {
    if (rng.NextDouble() >= density) continue;
    if (!skipped.empty() && a.ChunkOriginFor(c) == skipped) continue;
    Value f = rng.Uniform(5) == 0 ? Value::Null() : Value(rng.NextGaussian());
    SCIDB_CHECK(a.SetCell(c, {Value(rng.UniformInt(-(int64_t{1} << 60),
                                                   int64_t{1} << 60)),
                              f,
                              Value(std::string("s").append(
                                  std::to_string(rng.Next()))),
                              Value(Uncertain(rng.NextGaussian(),
                                              rng.NextDouble()))})
                    .ok());
  } while (NextInBox(box, &c));
  return a;
}

// --------------------------------------------------------------- checks

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

::testing::AssertionResult SameValue(const Value& got, const Value& want) {
  bool same = false;
  if (want.is_null()) {
    same = got.is_null();
  } else if (want.is_int64()) {
    same = got.is_int64() && got.int64_value() == want.int64_value();
  } else if (want.is_double()) {
    same = got.is_double() && Bits(got.double_value()) ==
                                  Bits(want.double_value());
  } else if (want.is_uncertain()) {
    same = got.is_uncertain() &&
           Bits(got.uncertain_value().mean) ==
               Bits(want.uncertain_value().mean) &&
           Bits(got.uncertain_value().stderr_) ==
               Bits(want.uncertain_value().stderr_);
  } else if (want.is_string()) {
    same = got.is_string() && got.string_value() == want.string_value();
  } else if (want.is_bool()) {
    same = got.is_bool() && got.bool_value() == want.bool_value();
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got " << got.ToString() << ", want " << want.ToString();
}

// Same chunks, same presence, and bit-identical Get() and stderr in every
// present cell.
void ExpectSameArray(const MemArray& got, const MemArray& want) {
  EXPECT_TRUE(got.schema() == want.schema());
  ASSERT_EQ(got.ChunkCount(), want.ChunkCount());
  ASSERT_EQ(got.CellCount(), want.CellCount());
  for (const auto& [origin, wc] : want.chunks()) {
    const Chunk* gc = got.FindChunk(origin);
    ASSERT_NE(gc, nullptr) << CoordsToString(origin);
    ASSERT_EQ(gc->box(), wc->box());
    for (int64_t r = 0; r < wc->cell_capacity(); ++r) {
      ASSERT_EQ(gc->IsPresent(r), wc->IsPresent(r))
          << CoordsToString(UnrankInBox(wc->box(), r));
      if (!wc->IsPresent(r)) continue;
      for (size_t at = 0; at < wc->nattrs(); ++at) {
        EXPECT_TRUE(SameValue(gc->block(at).Get(r), wc->block(at).Get(r)))
            << "attr " << at << " at "
            << CoordsToString(UnrankInBox(wc->box(), r));
        if (wc->block(at).uncertain()) {
          EXPECT_EQ(Bits(gc->block(at).GetStderr(r)),
                    Bits(wc->block(at).GetStderr(r)));
        }
      }
    }
  }
}

void ExpectSame(const Result<MemArray>& got, const Result<MemArray>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << "got " << got.status().ToString() << ", want "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  EXPECT_GT(want.value().CellCount(), 0);
  ExpectSameArray(got.value(), want.value());
}

// Moves the array's cells under a narrower declaration of dimension `d`:
// the cells outside [low, high] stay in their chunks, out of bounds.
MemArray Narrowed(MemArray a, size_t d, int64_t low, int64_t high) {
  std::vector<DimensionDesc> dims = a.schema().dims();
  dims[d].low = low;
  dims[d].high = high;
  *a.mutable_schema() =
      ArraySchema(a.schema().name(), std::move(dims), a.schema().attrs());
  return a;
}

class StructuralOracleTest : public ::testing::Test {
 protected:
  StructuralOracleTest() {
    ctx_.functions = &fns_;
    ctx_.aggregates = &aggs_;
  }
  FunctionRegistry fns_;
  AggregateRegistry aggs_;
  ExecContext ctx_;
  // 10 x 7 cells in 4 x 3 chunks: ragged edge chunks, one chunk empty.
  MemArray grid_ = Fill(Mixed("G", {{"I", 1, 10, 4}, {"J", 1, 7, 3}}), 11,
                        0.6, {5, 4});
  MemArray small_ = Fill(Mixed("S", {{"I", 1, 3, 2}, {"K", -1, 2, 3}}), 12,
                         0.7);
};

TEST_F(StructuralOracleTest, Reshape) {
  for (const auto& order : std::vector<std::vector<std::string>>{
           {"I", "J"}, {"J", "I"}}) {
    Result<MemArray> got =
        Reshape(ctx_, grid_, order, {{"L", 0, 69, 8}});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSame(got, RefReshape(grid_, order, got.value().schema()));
  }
  // A cell below or above the declared bounds fails, naming the cell; one
  // above them must not wrap around onto an in-bounds output cell.
  for (const auto& [low, high] :
       std::vector<std::pair<int64_t, int64_t>>{{2, 10}, {1, 9}}) {
    MemArray wide = Narrowed(grid_, 0, low, high);
    Result<MemArray> bad =
        Reshape(ctx_, wide, {"I", "J"}, {{"L", 0, 62, 8}});
    EXPECT_TRUE(bad.status().IsOutOfRange()) << bad.status().ToString();
    const std::string cell = low == 2 ? "[1," : "[10,";
    EXPECT_NE(bad.status().message().find(cell), std::string::npos)
        << bad.status().ToString();
    ExpectSame(bad, RefReshape(wide, {"I", "J"},
                               Mixed("G_reshape", {{"L", 0, 62, 8}})));
  }
}

TEST_F(StructuralOracleTest, AddAndRemoveDimension) {
  Result<MemArray> up = AddDimension(ctx_, grid_, "K");
  ASSERT_TRUE(up.ok());
  ExpectSame(up, RefAddDimension(grid_, up.value().schema()));
  Result<MemArray> down = RemoveDimension(ctx_, up.value(), "K");
  ASSERT_TRUE(down.ok());
  ExpectSame(down, RefRemoveDimension(up.value(), 2, down.value().schema()));
  // Removing J collapses cells of one row onto each other.
  ArraySchema rows = Mixed("G_rmdim", {{"I", 1, 10, 4}});
  Result<MemArray> bad = RemoveDimension(ctx_, grid_, "J");
  EXPECT_TRUE(bad.status().IsInvalid());
  ExpectSame(bad, RefRemoveDimension(grid_, 1, rows));
}

TEST_F(StructuralOracleTest, Concat) {
  MemArray other = Fill(grid_.schema(), 13, 0.5);
  for (const char* dim : {"I", "J"}) {
    Result<MemArray> got = Concat(ctx_, grid_, other, dim);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const size_t di = grid_.schema().DimIndex(dim).ValueOrDie();
    const int64_t shift = grid_.schema().dim(di).extent();
    ExpectSame(got, RefConcat(grid_, other, di, shift, got.value().schema()));
  }
  // Cells past the declared J bound stay past the output's.
  MemArray a = Narrowed(grid_, 1, 1, 5), b = Narrowed(other, 1, 1, 5);
  Result<MemArray> bad = Concat(ctx_, a, b, "I");
  EXPECT_TRUE(bad.status().IsOutOfRange()) << bad.status().ToString();
  ArraySchema out = Mixed("G_concat", {{"I", 1, 20, 4}, {"J", 1, 5, 3}});
  ExpectSame(bad, RefConcat(a, b, 0, 10, out));
}

TEST_F(StructuralOracleTest, Sjoin) {
  Result<MemArray> got = Sjoin(ctx_, grid_, small_, {{"I", "I"}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSame(got, RefSjoin(grid_, small_, 0, 0, got.value().schema()));
}

TEST_F(StructuralOracleTest, CrossProductAndCjoin) {
  MemArray a = Fill(Mixed("A", {{"I", 1, 5, 2}, {"J", 1, 3, 2}}), 14, 0.6);
  Result<MemArray> cross = CrossProduct(ctx_, a, small_);
  ASSERT_TRUE(cross.ok());
  ExpectSame(cross, RefJoin(ctx_, a, small_, nullptr, cross.value().schema()));

  // NULL f on either side makes the predicate NULL: a NULL tuple.
  for (const ExprPtr& pred : {Lt(Ref("f", 0), Ref("f", 1)),
                              Lt(Ref("s", 0), Ref("s", 1)),
                              Gt(Ref("u", 0), Ref("n", 1))}) {
    Result<MemArray> got = Cjoin(ctx_, a, small_, pred);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSame(got, RefJoin(ctx_, a, small_, pred, got.value().schema()));
  }
}

// Cjoin binds its predicate to (A, B) laid side by side, resolving names
// as Expr::Eval does: side 0 before side 1 (unless qualified), dimension
// before attribute. A has attribute x where B has dimension x, and both
// have val. Inputs span several chunks; each predicate runs typed and,
// and'ed with a string test, through the untyped fallback.
TEST_F(StructuralOracleTest, CjoinResolvesNamesAcrossSides) {
  MemArray a(ArraySchema("A", {{"I", 1, 5, 2}, {"J", 1, 3, 2}},
                         {{"x", DataType::kInt64, true, false},
                          {"val", DataType::kDouble, true, false},
                          {"s", DataType::kString, true, false}}));
  MemArray b(ArraySchema("B", {{"x", 1, 4, 2}, {"K", -1, 1, 2}},
                         {{"val", DataType::kDouble, true, false}}));
  Rng rng(15);
  for (MemArray* m : {&a, &b}) {
    Box box = m->schema().Bounds().ValueOrDie();
    Coordinates c = box.low;
    do {
      if (rng.NextDouble() >= 0.7) continue;
      std::vector<Value> row;
      if (m == &a) row.emplace_back(rng.UniformInt(0, 5));
      row.push_back(rng.Uniform(5) == 0 ? Value::Null()
                                        : Value(rng.NextGaussian()));
      if (m == &a) {
        row.emplace_back(std::string(1, "pq"[rng.Uniform(2)]));
      }
      ASSERT_TRUE(m->SetCell(c, row).ok());
    } while (NextInBox(box, &c));
  }
  const ExprPtr untyped = Eq(Ref("s"), Lit(Value(std::string("p"))));

  // Unqualified x is A's attribute, B.x is B's dimension; unqualified val
  // is A's.
  for (const ExprPtr& typed : {Lt(Ref("x"), Ref("x", 1)),
                               Gt(Ref("val"), Lit(0.0)),
                               Lt(Ref("val"), Ref("val", 1))}) {
    for (const ExprPtr& pred : {typed, And(typed, untyped)}) {
      SCOPED_TRACE(pred->ToString());
      Result<MemArray> got = Cjoin(ctx_, a, b, pred);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSame(got, RefJoin(ctx_, a, b, pred, got.value().schema()));
    }
  }

  // A missing side or an unknown name fails NotFound once a cell is
  // evaluated, and not at all over an empty input.
  const MemArray empty(a.schema());
  const ArraySchema joined = CrossProduct(ctx_, a, b).ValueOrDie().schema();
  for (const ExprPtr& missing : {Gt(Ref("val", 2), Lit(0.0)),
                                 Gt(Ref("nope"), Lit(0.0))}) {
    for (const ExprPtr& pred : {missing, And(untyped, missing)}) {
      SCOPED_TRACE(pred->ToString());
      Result<MemArray> got = Cjoin(ctx_, a, b, pred);
      EXPECT_TRUE(got.status().IsNotFound()) << got.status().ToString();
      ExpectSame(got, RefJoin(ctx_, a, b, pred, joined));
      Result<MemArray> none = Cjoin(ctx_, empty, b, pred);
      ASSERT_TRUE(none.ok()) << none.status().ToString();
      EXPECT_EQ(none.value().CellCount(), 0);
    }
  }
}

TEST_F(StructuralOracleTest, Composite) {
  MemArray p1 = Fill(grid_.schema(), 21, 0.5);
  MemArray p2 = Fill(grid_.schema(), 22, 0.5, {1, 1});
  std::vector<const MemArray*> passes = {&grid_, &p1, &p2};
  for (const char* crit : {"n", "f", "s", "u"}) {
    Result<MemArray> got = Composite(passes, crit);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSame(got,
               RefComposite(passes, grid_.schema().AttrIndex(crit).ValueOrDie(),
                            got.value().schema()));
  }
}

// PutCell checks what SetCell checks, with the same messages, plus the
// source attribute types; a failed write creates no chunk.
TEST_F(StructuralOracleTest, PutCellChecksLikeSetCell) {
  const Chunk& src = *grid_.chunks().begin()->second;
  Chunk::CellIterator it(src);
  ASSERT_TRUE(it.valid());
  MemArray out(grid_.schema()), boxed(grid_.schema());
  for (const Coordinates& c : {Coordinates{11, 1}, Coordinates{0, 1},
                               Coordinates{1}}) {
    Status put = PutCell(c, src, it.rank(), &out);
    Status set = boxed.SetCell(c, Row(src, it.rank()));
    EXPECT_EQ(put.code(), set.code()) << CoordsToString(c);
    EXPECT_EQ(put.message(), set.message());
  }
  EXPECT_TRUE(PutCell({1, 1}, src, it.rank(), src, it.rank(), &out)
                  .IsInvalid());  // value arity
  MemArray doubles(ArraySchema(
      "D", grid_.schema().dims(),
      {{"n", DataType::kDouble, true, false},
       {"f", DataType::kDouble, true, false},
       {"s", DataType::kDouble, true, false},
       {"u", DataType::kDouble, true, false}}));
  EXPECT_TRUE(PutCell({1, 1}, src, it.rank(), &doubles).IsInvalid());
  EXPECT_EQ(doubles.ChunkCount(), 0u);
  EXPECT_EQ(out.ChunkCount(), 0u);
  ASSERT_TRUE(PutCell({10, 7}, src, it.rank(), &out).ok());
  EXPECT_TRUE(SameValue(out.GetCell({10, 7})->at(2), Row(src, it.rank())[2]));
}

}  // namespace
}  // namespace scidb
