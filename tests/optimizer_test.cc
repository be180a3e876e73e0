#include <gtest/gtest.h>

#include <functional>

#include "common/macros.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/session.h"

namespace scidb {
namespace {

OpNodePtr ParseQuery(const std::string& text) {
  Statement s = ParseStatement(text).ValueOrDie();
  SCIDB_CHECK(s.kind == Statement::Kind::kQuery);
  return s.query;
}

TEST(OptimizerTest, LeavesMalformedNodesForValidation) {
  // A Filter with no predicate under another Filter: R3 must not merge
  // (and index) it; ValidateOpTree rejects such trees, not the optimizer.
  using namespace binding;
  auto inner = std::make_shared<OpNode>(*Filter(Array("A"), Ref("p")));
  inner->exprs.clear();
  OpNodePtr tree = Filter(inner, Ref("q"));
  OptimizerStats stats;
  Result<OpNodePtr> opt = OptimizeOpTree(tree, &stats);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  EXPECT_EQ(opt.value(), tree);
  EXPECT_EQ(stats.total(), 0);
}

TEST(OptimizerTest, PushesSubsampleBelowFilter) {
  OpNodePtr tree =
      ParseQuery("select Subsample(Filter(A, v > 10), I <= 4)");
  OptimizerStats stats;
  OpNodePtr opt = OptimizeOpTree(tree, &stats).ValueOrDie();
  EXPECT_EQ(stats.subsample_pushdowns, 1);
  // Filter is now on top; subsample sits against the base array.
  EXPECT_EQ(opt->op, "filter");
  ASSERT_EQ(opt->inputs.size(), 1u);
  EXPECT_EQ(opt->inputs[0]->op, "subsample");
  EXPECT_EQ(opt->inputs[0]->inputs[0]->array, "A");
}

TEST(OptimizerTest, MergesCascadedSubsamples) {
  OpNodePtr tree =
      ParseQuery("select Subsample(Subsample(A, I <= 8), J <= 4)");
  OptimizerStats stats;
  OpNodePtr opt = OptimizeOpTree(tree, &stats).ValueOrDie();
  EXPECT_EQ(stats.subsample_merges, 1);
  EXPECT_EQ(opt->op, "subsample");
  EXPECT_EQ(opt->inputs[0]->array, "A");
  // Predicates conjoined.
  EXPECT_NE(opt->exprs[0]->ToString().find("and"), std::string::npos);
}

TEST(OptimizerTest, MergesCascadedFilters) {
  OpNodePtr tree = ParseQuery("select Filter(Filter(A, v > 1), v < 9)");
  OptimizerStats stats;
  OpNodePtr opt = OptimizeOpTree(tree, &stats).ValueOrDie();
  EXPECT_EQ(stats.filter_merges, 1);
  EXPECT_EQ(opt->op, "filter");
  EXPECT_EQ(opt->inputs[0]->array, "A");
}

TEST(OptimizerTest, PushesSubsampleBelowApply) {
  OpNodePtr tree =
      ParseQuery("select Subsample(Apply(A, w, v * 2), I <= 4)");
  OptimizerStats stats;
  OpNodePtr opt = OptimizeOpTree(tree, &stats).ValueOrDie();
  EXPECT_EQ(stats.subsample_pushdowns, 1);
  EXPECT_EQ(opt->op, "apply");
  EXPECT_EQ(opt->inputs[0]->op, "subsample");
}

TEST(OptimizerTest, CollapsesProjectChains) {
  OpNodePtr tree = ParseQuery("select Project(Project(A, p, q, r), q)");
  OptimizerStats stats;
  OpNodePtr opt = OptimizeOpTree(tree, &stats).ValueOrDie();
  EXPECT_EQ(stats.project_collapses, 1);
  EXPECT_EQ(opt->op, "project");
  EXPECT_EQ(opt->inputs[0]->array, "A");
  EXPECT_EQ(opt->names, (std::vector<std::string>{"q"}));
}

TEST(OptimizerTest, ChainsRulesToFixpoint) {
  // Subsample(Subsample(Filter(...))) needs merge + pushdown.
  OpNodePtr tree = ParseQuery(
      "select Subsample(Subsample(Filter(A, v > 0), I <= 8), J <= 4)");
  OptimizerStats stats;
  OpNodePtr opt = OptimizeOpTree(tree, &stats).ValueOrDie();
  EXPECT_GE(stats.total(), 2);
  EXPECT_EQ(opt->op, "filter");
  EXPECT_EQ(opt->inputs[0]->op, "subsample");
  EXPECT_EQ(opt->inputs[0]->inputs[0]->array, "A");
}

TEST(OptimizerTest, LeavesIrreducibleTreesAlone) {
  OpNodePtr tree = ParseQuery("select Aggregate(A, {I}, sum(v))");
  OptimizerStats stats;
  OpNodePtr opt = OptimizeOpTree(tree, &stats).ValueOrDie();
  EXPECT_EQ(stats.total(), 0);
  EXPECT_EQ(opt.get(), tree.get());  // unchanged tree is not copied
  EXPECT_TRUE(OptimizeOpTree(nullptr).status().IsInvalid());
}

class OptimizerSemanticsTest : public ::testing::Test {
 protected:
  OptimizerSemanticsTest() {
    SCIDB_CHECK(session_.Execute("define T (v = double) (I, J)").ok());
    SCIDB_CHECK(session_.Execute("create A as T [12, 12]").ok());
    for (int64_t i = 1; i <= 12; ++i) {
      for (int64_t j = 1; j <= 12; ++j) {
        SCIDB_CHECK(session_
                        .Execute("insert A [" + std::to_string(i) + ", " +
                                 std::to_string(j) + "] values (" +
                                 std::to_string(i * 10 + j) + ".0)")
                        .ok());
      }
    }
  }

  // Runs the statement with and without the optimizer; returns both cell
  // counts plus value agreement on a probe cell.
  void ExpectSameResult(const std::string& stmt) {
    session_.set_optimize(true);
    auto with = session_.Execute(stmt).ValueOrDie();
    session_.set_optimize(false);
    auto without = session_.Execute(stmt).ValueOrDie();
    ASSERT_EQ(with.kind, QueryResult::Kind::kArray);
    EXPECT_EQ(with.array->CellCount(), without.array->CellCount()) << stmt;
    // Every cell matches.
    with.array->ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                                int64_t rank) {
      auto other = without.array->GetCell(c);
      SCIDB_CHECK(other.has_value());
      const Value& mine = chunk.block(0).Get(rank);
      EXPECT_EQ(mine.is_null(), (*other)[0].is_null()) << stmt;
      if (!mine.is_null() && !(*other)[0].is_null()) {
        EXPECT_EQ(mine.ToString(), (*other)[0].ToString()) << stmt;
      }
      return true;
    });
  }

  Session session_;
};

TEST_F(OptimizerSemanticsTest, RewritesPreserveResults) {
  ExpectSameResult("select Subsample(Filter(A, v > 60), I <= 6)");
  ExpectSameResult("select Subsample(Subsample(A, I <= 8), J <= 4)");
  ExpectSameResult("select Filter(Filter(A, v > 30), v < 90)");
  ExpectSameResult("select Subsample(Apply(A, w, v * 2), even(I))");
  ExpectSameResult(
      "select Subsample(Subsample(Filter(A, v > 11), I <= 9), J >= 2)");
}

TEST_F(OptimizerSemanticsTest, PushdownReducesScannedCells) {
  // The optimizer moves the subsample (box-exact, prunable) below the
  // filter, so fewer cells are visited end to end.
  OpNodePtr tree =
      ParseQuery("select Subsample(Filter(A, v > 60), I <= 2 and J <= 2)");
  OpNodePtr opt = OptimizeOpTree(tree).ValueOrDie();

  ExecStats naive_stats, opt_stats;
  // Execute manually to capture stats.
  auto run = [&](const OpNodePtr& root, ExecStats* stats) {
    ExecContext ctx = session_.MakeContext();
    ctx.stats = stats;
    auto arr = session_.GetArray("A").ValueOrDie();
    // Walk the two-level tree by hand (filter/subsample only).
    std::function<Result<MemArray>(const OpNodePtr&)> eval =
        [&](const OpNodePtr& n) -> Result<MemArray> {
      if (n->is_array_ref()) return *arr;
      ASSIGN_OR_RETURN(MemArray in, eval(n->inputs[0]));
      if (n->op == "filter") return Filter(ctx, in, n->exprs[0]);
      return Subsample(ctx, in, n->exprs[0]);
    };
    return eval(root);
  };
  MemArray a = run(tree, &naive_stats).ValueOrDie();
  MemArray b = run(opt, &opt_stats).ValueOrDie();
  EXPECT_EQ(a.CellCount(), b.CellCount());
  EXPECT_LT(opt_stats.cells_visited, naive_stats.cells_visited);
}

}  // namespace
}  // namespace scidb
