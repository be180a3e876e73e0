#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "common/rng.h"
#include "server/shared_catalog.h"
#include "version/history.h"
#include "version/named_version.h"

namespace scidb {
namespace {

ArraySchema Grid(int64_t n = 10) {
  return ArraySchema("remote", {{"x", 1, n, 4}, {"y", 1, n, 4}},
                     {{"v", DataType::kDouble, true, false}});
}

std::vector<CellUpdate> Set1(int64_t x, int64_t y, double v) {
  return {CellUpdate::Set({x, y}, {Value(v)})};
}

// =========================== history (§2.5) ===========================

TEST(HistoryArrayTest, CommitsAppendHistory) {
  HistoryArray a(Grid());
  EXPECT_EQ(a.current_history(), 0);
  EXPECT_EQ(a.Commit(Set1(2, 2, 1.0), 1000).ValueOrDie(), 1);
  EXPECT_EQ(a.Commit(Set1(2, 2, 2.0), 2000).ValueOrDie(), 2);
  EXPECT_EQ(a.current_history(), 2);
  EXPECT_TRUE(a.schema().updatable());
}

TEST(HistoryArrayTest, NoOverwriteOldValuesRemain) {
  // Paper: "a user who starts at [x=2,y=2,history=1] and travels along the
  // history dimension ... will see the history of activity to the cell".
  HistoryArray a(Grid());
  ASSERT_TRUE(a.Commit(Set1(2, 2, 1.0), 1000).ok());
  ASSERT_TRUE(a.Commit(Set1(2, 2, 2.0), 2000).ok());
  ASSERT_TRUE(a.Commit(Set1(9, 9, 99.0), 3000).ok());  // unrelated txn

  EXPECT_EQ((*a.GetCellAt({2, 2}, 1).ValueOrDie())[0].double_value(), 1.0);
  EXPECT_EQ((*a.GetCellAt({2, 2}, 2).ValueOrDie())[0].double_value(), 2.0);
  // History 3 did not touch [2,2]: value carries forward.
  EXPECT_EQ((*a.GetCellAt({2, 2}, 3).ValueOrDie())[0].double_value(), 2.0);
  EXPECT_EQ((*a.GetCellLatest({2, 2}))[0].double_value(), 2.0);
}

TEST(HistoryArrayTest, CellHistoryListsOnlyChanges) {
  HistoryArray a(Grid());
  ASSERT_TRUE(a.Commit(Set1(2, 2, 1.0), 1000).ok());
  ASSERT_TRUE(a.Commit(Set1(5, 5, 5.0), 2000).ok());
  ASSERT_TRUE(a.Commit(Set1(2, 2, 3.0), 3000).ok());
  auto hist = a.CellHistory({2, 2});
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].history, 1);
  EXPECT_EQ(hist[0].values[0].double_value(), 1.0);
  EXPECT_EQ(hist[1].history, 3);
  EXPECT_EQ(hist[1].values[0].double_value(), 3.0);
}

TEST(HistoryArrayTest, DeletionFlags) {
  HistoryArray a(Grid());
  ASSERT_TRUE(a.Commit(Set1(2, 2, 1.0), 1000).ok());
  ASSERT_TRUE(a.Commit({CellUpdate::Delete({2, 2})}, 2000).ok());
  // Deleted at h=2, but h=1 still shows the value — no overwrite.
  EXPECT_TRUE(a.GetCellAt({2, 2}, 1).ValueOrDie().has_value());
  EXPECT_FALSE(a.GetCellAt({2, 2}, 2).ValueOrDie().has_value());
  auto hist = a.CellHistory({2, 2});
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_TRUE(hist[1].deleted);
  // Re-insertion after deletion.
  ASSERT_TRUE(a.Commit(Set1(2, 2, 7.0), 3000).ok());
  EXPECT_EQ((*a.GetCellLatest({2, 2}))[0].double_value(), 7.0);
}

TEST(HistoryArrayTest, WallClockAddressing) {
  // Paper: "the array can be addressed using conventional time".
  HistoryArray a(Grid());
  ASSERT_TRUE(a.Commit(Set1(1, 1, 1.0), 1000).ok());
  ASSERT_TRUE(a.Commit(Set1(1, 1, 2.0), 5000).ok());
  EXPECT_EQ((*a.GetCellAsOf({1, 1}, 1500).ValueOrDie())[0].double_value(),
            1.0);
  EXPECT_EQ((*a.GetCellAsOf({1, 1}, 5000).ValueOrDie())[0].double_value(),
            2.0);
  EXPECT_TRUE(a.GetCellAsOf({1, 1}, 500).status().IsNotFound());
}

TEST(HistoryArrayTest, TimestampMonotonicityEnforced) {
  HistoryArray a(Grid());
  ASSERT_TRUE(a.Commit(Set1(1, 1, 1.0), 2000).ok());
  EXPECT_TRUE(a.Commit(Set1(1, 1, 2.0), 1000).status().IsInvalid());
  EXPECT_TRUE(a.Commit({}, 3000).status().IsInvalid());  // empty txn
}

TEST(HistoryArrayTest, SnapshotAtReplaysLayers) {
  HistoryArray a(Grid());
  ASSERT_TRUE(a.Commit({CellUpdate::Set({1, 1}, {Value(1.0)}),
                        CellUpdate::Set({2, 2}, {Value(2.0)})},
                       1000)
                  .ok());
  ASSERT_TRUE(a.Commit({CellUpdate::Set({1, 1}, {Value(10.0)}),
                        CellUpdate::Delete({2, 2})},
                       2000)
                  .ok());
  MemArray s1 = a.SnapshotAt(1).ValueOrDie();
  EXPECT_EQ(s1.CellCount(), 2);
  EXPECT_EQ((*s1.GetCell({1, 1}))[0].double_value(), 1.0);
  MemArray s2 = a.SnapshotAt(2).ValueOrDie();
  EXPECT_EQ(s2.CellCount(), 1);
  EXPECT_EQ((*s2.GetCell({1, 1}))[0].double_value(), 10.0);
  EXPECT_TRUE(a.SnapshotAt(5).status().IsOutOfRange());
}

TEST(HistoryArrayTest, OutOfBoundsRejected) {
  HistoryArray a(Grid(4));
  EXPECT_FALSE(a.Commit(Set1(9, 9, 1.0), 1000).ok());
  EXPECT_TRUE(a.Commit({CellUpdate::Delete({9, 9})}, 1000).status().IsOutOfRange());
}

// ======================== named versions (§2.11) ========================

TEST(VersionTreeTest, FreshVersionEqualsParent) {
  VersionTree tree(Grid());
  ASSERT_TRUE(tree.Commit("", Set1(3, 3, 30.0), 1000).ok());
  ASSERT_TRUE(tree.CreateVersion("study", "").ok());
  // "At time T, the version V is identical to A."
  auto cell = tree.GetCell("study", {3, 3}).ValueOrDie();
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ((*cell)[0].double_value(), 30.0);
  // And consumes essentially no space.
  EXPECT_EQ(tree.VersionByteSize("study").ValueOrDie(), 0u);
}

TEST(VersionTreeTest, DivergenceIsLocalToVersion) {
  VersionTree tree(Grid());
  ASSERT_TRUE(tree.Commit("", Set1(3, 3, 30.0), 1000).ok());
  ASSERT_TRUE(tree.CreateVersion("study", "").ok());
  ASSERT_TRUE(tree.Commit("study", Set1(3, 3, 42.0), 2000).ok());

  EXPECT_EQ((*tree.GetCell("study", {3, 3}).ValueOrDie())[0].double_value(),
            42.0);
  // The base array is untouched.
  EXPECT_EQ((*tree.GetCell("", {3, 3}).ValueOrDie())[0].double_value(),
            30.0);
}

TEST(VersionTreeTest, VersionPinnedAtCreationTime) {
  VersionTree tree(Grid());
  ASSERT_TRUE(tree.Commit("", Set1(1, 1, 1.0), 1000).ok());
  ASSERT_TRUE(tree.CreateVersion("v", "").ok());
  // Base moves on after T; V must not see it.
  ASSERT_TRUE(tree.Commit("", Set1(1, 1, 99.0), 2000).ok());
  EXPECT_EQ((*tree.GetCell("v", {1, 1}).ValueOrDie())[0].double_value(),
            1.0);
  EXPECT_EQ((*tree.GetCell("", {1, 1}).ValueOrDie())[0].double_value(),
            99.0);
}

TEST(VersionTreeTest, TreeOfVersions) {
  // "In general, hanging off any base array is a tree of named versions."
  VersionTree tree(Grid());
  ASSERT_TRUE(tree.Commit("", Set1(1, 1, 1.0), 1000).ok());
  ASSERT_TRUE(tree.CreateVersion("a", "").ok());
  ASSERT_TRUE(tree.Commit("a", Set1(2, 2, 2.0), 2000).ok());
  ASSERT_TRUE(tree.CreateVersion("b", "a").ok());
  ASSERT_TRUE(tree.Commit("b", Set1(3, 3, 3.0), 3000).ok());

  // b sees its own delta, a's delta, and the base value.
  EXPECT_EQ((*tree.GetCell("b", {3, 3}).ValueOrDie())[0].double_value(), 3.0);
  EXPECT_EQ((*tree.GetCell("b", {2, 2}).ValueOrDie())[0].double_value(), 2.0);
  EXPECT_EQ((*tree.GetCell("b", {1, 1}).ValueOrDie())[0].double_value(), 1.0);
  // a does not see b's delta.
  EXPECT_FALSE(tree.GetCell("a", {3, 3}).ValueOrDie().has_value());
  EXPECT_EQ(tree.ChainDepth("b").ValueOrDie(), 2);
  EXPECT_EQ(tree.ChildrenOf("").size(), 1u);
  EXPECT_EQ(tree.ChildrenOf("a"), (std::vector<std::string>{"b"}));
}

TEST(VersionTreeTest, DeletionHidesParentValue) {
  VersionTree tree(Grid());
  ASSERT_TRUE(tree.Commit("", Set1(4, 4, 4.0), 1000).ok());
  ASSERT_TRUE(tree.CreateVersion("v", "").ok());
  ASSERT_TRUE(tree.Commit("v", {CellUpdate::Delete({4, 4})}, 2000).ok());
  EXPECT_FALSE(tree.GetCell("v", {4, 4}).ValueOrDie().has_value());
  EXPECT_TRUE(tree.GetCell("", {4, 4}).ValueOrDie().has_value());
}

TEST(VersionTreeTest, SnapshotCollapsesChain) {
  VersionTree tree(Grid());
  ASSERT_TRUE(tree.Commit("", {CellUpdate::Set({1, 1}, {Value(1.0)}),
                               CellUpdate::Set({2, 2}, {Value(2.0)})},
                          1000)
                  .ok());
  ASSERT_TRUE(tree.CreateVersion("v", "").ok());
  ASSERT_TRUE(tree.Commit("v", {CellUpdate::Set({2, 2}, {Value(20.0)}),
                                CellUpdate::Delete({1, 1}),
                                CellUpdate::Set({3, 3}, {Value(3.0)})},
                          2000)
                  .ok());
  MemArray snap = tree.Snapshot("v").ValueOrDie();
  EXPECT_EQ(snap.CellCount(), 2);
  EXPECT_EQ((*snap.GetCell({2, 2}))[0].double_value(), 20.0);
  EXPECT_EQ((*snap.GetCell({3, 3}))[0].double_value(), 3.0);
  EXPECT_FALSE(snap.Exists({1, 1}));
}

TEST(VersionTreeTest, MaterializeCutsChain) {
  VersionTree tree(Grid());
  ASSERT_TRUE(tree.Commit("", Set1(1, 1, 1.0), 1000).ok());
  ASSERT_TRUE(tree.CreateVersion("v", "").ok());
  ASSERT_TRUE(tree.Commit("v", Set1(2, 2, 2.0), 2000).ok());
  size_t before = tree.VersionByteSize("v").ValueOrDie();
  ASSERT_TRUE(tree.MaterializeVersion("v").ok());
  EXPECT_EQ(tree.ChainDepth("v").ValueOrDie(), 1);
  // Still sees both cells, now from its own storage.
  EXPECT_EQ((*tree.GetCell("v", {1, 1}).ValueOrDie())[0].double_value(), 1.0);
  EXPECT_EQ((*tree.GetCell("v", {2, 2}).ValueOrDie())[0].double_value(), 2.0);
  // Materialization traded space for chain-free reads (space is at least
  // what the delta alone took; chunk-capacity granularity can make the
  // two equal for tiny arrays).
  EXPECT_GE(tree.VersionByteSize("v").ValueOrDie(), before);
  EXPECT_EQ(tree.Snapshot("v").ValueOrDie().CellCount(), 2);
}

TEST(VersionTreeTest, Validation) {
  VersionTree tree(Grid());
  EXPECT_TRUE(tree.CreateVersion("", "").IsInvalid());
  ASSERT_TRUE(tree.CreateVersion("v", "").ok());
  EXPECT_TRUE(tree.CreateVersion("v", "").IsAlreadyExists());
  EXPECT_TRUE(tree.CreateVersion("w", "missing").IsNotFound());
  EXPECT_TRUE(tree.GetCell("missing", {1, 1}).status().IsNotFound());
  EXPECT_FALSE(tree.HasVersion("zz"));
  EXPECT_TRUE(tree.HasVersion("v"));
}

TEST(VersionTreeTest, SpaceGrowsOnlyWithDivergence) {
  VersionTree tree(Grid(100));
  // A large base...
  std::vector<CellUpdate> big;
  for (int64_t i = 1; i <= 100; ++i) {
    big.push_back(CellUpdate::Set({i, i}, {Value(static_cast<double>(i))}));
  }
  ASSERT_TRUE(tree.Commit("", big, 1000).ok());
  ASSERT_TRUE(tree.CreateVersion("v", "").ok());
  // ...a tiny divergence.
  ASSERT_TRUE(tree.Commit("v", Set1(1, 1, -1.0), 2000).ok());
  size_t base_bytes = tree.VersionByteSize("").ValueOrDie();
  size_t v_bytes = tree.VersionByteSize("v").ValueOrDie();
  EXPECT_LT(v_bytes, base_bytes / 10);
}

// ====================== snapshot oracle (§2.5, §2.11) ==================
//
// The reference is the per-cell replay snapshots used before they were
// built from typed chunk copies: every delta cell boxed into Values and
// set, oldest layer first, then that layer's deletion flags.

constexpr int64_t kLatest = std::numeric_limits<int64_t>::max();

// x is bounded, y unbounded. The mixed schema has a nullable double v,
// an uncertain u and a string s (the two block kinds whose representation
// depends on every value ever set); the numeric one, int64 n and double d,
// is the schema whose snapshots copy whole delta chunks.
ArraySchema OracleSchema(bool numeric, const std::string& name = "oracle") {
  std::vector<AttributeDesc> attrs =
      numeric ? std::vector<AttributeDesc>{{"n", DataType::kInt64, true, false},
                                           {"d", DataType::kDouble, true, false}}
              : std::vector<AttributeDesc>{{"v", DataType::kDouble, true, false},
                                           {"u", DataType::kDouble, true, true},
                                           {"s", DataType::kString, true, false}};
  return ArraySchema(name, {{"x", 1, 12, 4}, {"y", 1, kUnboundedDim, 4}},
                     std::move(attrs));
}

// A non-null `region` replays only the cells inside it.
void ReplayLayers(const HistoryArray& h, int64_t upto, MemArray* out,
                  const Box* region = nullptr) {
  std::vector<Value> cell;
  for (int64_t i = 1; i <= std::min(upto, h.current_history()); ++i) {
    h.layer_delta(i).ForEachCell(
        [&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
          if (region != nullptr && !region->Contains(c)) return true;
          cell.clear();
          for (size_t a = 0; a < chunk.nattrs(); ++a) {
            cell.push_back(chunk.block(a).Get(rank));
          }
          EXPECT_TRUE(out->SetCell(c, cell).ok());
          return true;
        });
    for (const Coordinates& c : h.layer_deletions(i)) {
      if (region != nullptr && !region->Contains(c)) continue;
      (void)out->DeleteCell(c);  // status-ignored: a never-present cell
                                 // is a no-op at snapshot level
    }
  }
}

// About one value in five is NULL.
std::vector<Value> RandomCell(const ArraySchema& schema, Rng* rng) {
  std::vector<Value> cell;
  for (const AttributeDesc& attr : schema.attrs()) {
    if (rng->Uniform(5) == 0) {
      cell.emplace_back();
      continue;
    }
    const int64_t x = rng->UniformInt(0, 99);
    if (attr.type == DataType::kString) {
      cell.emplace_back(std::string(static_cast<size_t>(x % 24 + 1),
                                    static_cast<char>('a' + rng->Uniform(26))));
    } else if (attr.uncertain) {
      // Two error bars, so some chunks keep the constant-stderr collapse.
      cell.emplace_back(Uncertain(static_cast<double>(x),
                                  rng->Uniform(4) == 0 ? 1.0 : 0.5));
    } else if (attr.type == DataType::kInt64) {
      cell.emplace_back(x);
    } else {
      cell.emplace_back(static_cast<double>(x));
    }
  }
  return cell;
}

// Sets, deletes, re-inserts, set-then-delete, delete-then-set and
// set-then-set of one cell inside the transaction, and now and then a
// deletion of every cell of one grid chunk.
std::vector<CellUpdate> RandomTxn(const ArraySchema& schema, Rng* rng) {
  std::vector<CellUpdate> txn;
  const int64_t n = rng->UniformInt(1, 8);
  for (int64_t k = 0; k < n; ++k) {
    Coordinates c{rng->UniformInt(1, 12), rng->UniformInt(1, 20)};
    switch (rng->Uniform(6)) {
      case 0:
        txn.push_back(CellUpdate::Delete(c));
        break;
      case 1:
        txn.push_back(CellUpdate::Set(c, RandomCell(schema, rng)));
        txn.push_back(CellUpdate::Delete(c));
        break;
      case 2:
        txn.push_back(CellUpdate::Delete(c));
        txn.push_back(CellUpdate::Set(c, RandomCell(schema, rng)));
        break;
      case 3:
        txn.push_back(CellUpdate::Set(c, RandomCell(schema, rng)));
        txn.push_back(CellUpdate::Set(c, RandomCell(schema, rng)));
        break;
      default:
        txn.push_back(CellUpdate::Set(c, RandomCell(schema, rng)));
        break;
    }
  }
  if (rng->Uniform(4) == 0) {
    const int64_t x0 = 1 + 4 * static_cast<int64_t>(rng->Uniform(3));
    const int64_t y0 = 1 + 4 * static_cast<int64_t>(rng->Uniform(5));
    for (int64_t x = x0; x < x0 + 4; ++x) {
      for (int64_t y = y0; y < y0 + 4; ++y) {
        txn.push_back(CellUpdate::Delete({x, y}));
      }
    }
  }
  return txn;
}

// Same chunks, presence, null flags and values of present cells, and the
// same constant-stderr flag per block.
void ExpectSameSnapshot(const MemArray& got, const MemArray& want) {
  ASSERT_EQ(got.ChunkCount(), want.ChunkCount());
  for (const auto& [origin, w] : want.chunks()) {
    SCOPED_TRACE("chunk " + CoordsToString(origin));
    const Chunk* g = got.FindChunk(origin);
    ASSERT_NE(g, nullptr);
    ASSERT_EQ(g->box(), w->box());
    ASSERT_EQ(g->present_count(), w->present_count());
    for (size_t a = 0; a < w->nattrs(); ++a) {
      EXPECT_EQ(g->block(a).has_constant_stderr(),
                w->block(a).has_constant_stderr())
          << "attr " << a;
    }
    for (int64_t r = 0; r < w->cell_capacity(); ++r) {
      ASSERT_EQ(g->IsPresent(r), w->IsPresent(r)) << "rank " << r;
      if (!w->IsPresent(r)) continue;
      for (size_t a = 0; a < w->nattrs(); ++a) {
        const AttributeBlock& gb = g->block(a);
        const AttributeBlock& wb = w->block(a);
        ASSERT_EQ(gb.IsNull(r), wb.IsNull(r)) << "rank " << r;
        if (wb.IsNull(r)) continue;
        if (wb.type() == DataType::kString) {
          EXPECT_EQ(gb.Get(r).string_value(), wb.Get(r).string_value());
        } else if (wb.type() == DataType::kInt64) {
          EXPECT_EQ(gb.GetInt64(r), wb.GetInt64(r)) << "rank " << r;
        } else {
          EXPECT_EQ(gb.GetDouble(r), wb.GetDouble(r)) << "rank " << r;
          if (wb.uncertain()) {
            EXPECT_EQ(gb.GetStderr(r), wb.GetStderr(r)) << "rank " << r;
          }
        }
      }
    }
  }
}

// Both oracle schemas: the mixed one and the numeric one.
constexpr bool kSchemas[] = {false, true};

std::string SchemaLabel(bool numeric) {
  return numeric ? "numeric schema" : "mixed schema";
}

TEST(SnapshotOracleTest, HistorySnapshotsMatchPerCellReplay) {
  for (bool numeric : kSchemas) {
    for (uint64_t seed : {161u, 162u, 163u}) {
      SCOPED_TRACE(SchemaLabel(numeric) + ", seed " + std::to_string(seed));
      Rng rng(TestSeed(seed));
      HistoryArray a(OracleSchema(numeric));
      for (int64_t t = 1; t <= 14; ++t) {
        ASSERT_TRUE(a.Commit(RandomTxn(a.schema(), &rng), 1000 * t).ok());
      }
      for (int64_t h = 0; h <= a.current_history(); ++h) {
        SCOPED_TRACE("history " + std::to_string(h));
        MemArray want(a.schema());
        ReplayLayers(a, h, &want);
        ExpectSameSnapshot(a.SnapshotAt(h).ValueOrDie(), want);
        // Region snapshots: inside one chunk, across chunk corners, past
        // the high-water mark of the unbounded y, and empty.
        for (const Box& box :
             {Box({2, 2}, {3, 3}), Box({3, 2}, {10, 9}),
              Box({1, 1}, {12, kUnboundedDim}), Box({5, 30}, {9, 40}),
              Box({6, 1}, {5, 20})}) {
          SCOPED_TRACE("region " + box.ToString());
          MemArray region_want(a.schema());
          ReplayLayers(a, h, &region_want, &box);
          ExpectSameSnapshot(a.SnapshotAt(h, box).ValueOrDie(), region_want);
        }
      }
    }
  }
}

// The test's own record of the version tree: parent and pinned history
// per version, and whether MaterializeVersion cut the chain.
struct Pin {
  std::string parent;
  int64_t history = 0;
  bool materialized = false;
  int64_t last_ts = 0;
};

MemArray OracleSnapshot(const VersionTree& tree,
                        const std::map<std::string, Pin>& pins,
                        const std::string& name, int64_t history) {
  const HistoryArray& own = *tree.VersionHistory(name).ValueOrDie();
  MemArray out(own.schema());
  if (!name.empty() && !pins.at(name).materialized) {
    const Pin& p = pins.at(name);
    out = OracleSnapshot(tree, pins, p.parent, p.history);
  }
  ReplayLayers(own, history, &out);
  return out;
}

void CheckVersionChains(bool numeric, uint64_t seed) {
  Rng rng(TestSeed(seed));
  const ArraySchema schema = OracleSchema(numeric);
  VersionTree tree(schema);
  std::map<std::string, Pin> pins;
  int64_t ts = 1000;
  auto commit = [&](const std::string& name, int txns) {
    for (int i = 0; i < txns; ++i) {
      ts += 10;
      ASSERT_TRUE(tree.Commit(name, RandomTxn(schema, &rng), ts).ok());
      if (!name.empty()) pins[name].last_ts = ts;
    }
  };
  auto create = [&](const std::string& name, const std::string& parent) {
    ASSERT_TRUE(tree.CreateVersion(name, parent).ok());
    const HistoryArray* p = tree.VersionHistory(parent).ValueOrDie();
    pins[name] = {parent, p->current_history()};
  };
  // Chains one ("a"), two ("b") and three ("c") deep; every parent
  // keeps committing after its child was pinned.
  commit("", 5);
  create("a", "");
  commit("a", 4);
  commit("", 3);
  create("b", "a");
  commit("b", 4);
  commit("a", 2);
  create("c", "b");
  commit("c", 4);
  commit("b", 2);
  const std::vector<std::string> names = {"", "a", "b", "c"};
  auto check_all = [&] {
    for (const std::string& name : names) {
      SCOPED_TRACE("version '" + name + "'");
      ExpectSameSnapshot(tree.Snapshot(name).ValueOrDie(),
                         OracleSnapshot(tree, pins, name, kLatest));
    }
  };
  check_all();
  EXPECT_EQ(tree.ChainDepth("c").ValueOrDie(), 3);

  // Parent first is refused while a child is pinned to the parent: its
  // collapsed layer would show the child the parent's later commits.
  for (const auto& [parent, child] :
       std::vector<std::pair<std::string, std::string>>{{"a", "b"},
                                                        {"b", "c"}}) {
    SCOPED_TRACE("materialize '" + parent + "' before '" + child + "'");
    const Status st = tree.MaterializeVersion(parent);
    EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
    EXPECT_NE(st.message().find("'" + child + "'"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(tree.ChainDepth(parent).ValueOrDie(), parent == "a" ? 1 : 2);
    check_all();
  }

  // Leaf first, so no materialized version is still a pinned parent.
  for (const std::string name : {"c", "b", "a"}) {
    SCOPED_TRACE("materialize '" + name + "'");
    const MemArray full = OracleSnapshot(tree, pins, name, kLatest);
    // The reference materialization: one Commit of the boxed cells.
    HistoryArray ref(schema);
    std::vector<CellUpdate> updates;
    full.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                         int64_t rank) {
      std::vector<Value> cell;
      for (size_t a = 0; a < chunk.nattrs(); ++a) {
        cell.push_back(chunk.block(a).Get(rank));
      }
      updates.push_back(CellUpdate::Set(c, cell));
      return true;
    });
    if (!updates.empty()) {
      ASSERT_TRUE(ref.Commit(updates, pins[name].last_ts).ok());
    }

    ASSERT_TRUE(tree.MaterializeVersion(name).ok());
    pins[name].materialized = true;
    const HistoryArray& got = *tree.VersionHistory(name).ValueOrDie();
    EXPECT_EQ(tree.VersionByteSize(name).ValueOrDie(), ref.ByteSize());
    EXPECT_EQ(tree.ChainDepth(name).ValueOrDie(), 1);
    EXPECT_EQ(got.current_history(), ref.current_history());
    EXPECT_EQ(got.wall_clock().recorded(), ref.wall_clock().recorded());
    if (ref.current_history() > 0) {
      EXPECT_EQ(got.layer_delta(1).ChunkCount(),
                ref.layer_delta(1).ChunkCount());
      EXPECT_EQ(got.wall_clock().Forward({1}).ValueOrDie()[0].int64_value(),
                pins[name].last_ts);
    }
    MemArray want(schema);
    ReplayLayers(ref, kLatest, &want);
    ExpectSameSnapshot(tree.Snapshot(name).ValueOrDie(), want);
    check_all();
  }
}

TEST(SnapshotOracleTest, VersionChainsMatchPerCellReplay) {
  for (bool numeric : kSchemas) {
    for (uint64_t seed : {171u, 172u, 173u}) {
      SCOPED_TRACE(SchemaLabel(numeric) + ", seed " + std::to_string(seed));
      CheckVersionChains(numeric, seed);
    }
  }
}

TEST(SnapshotOracleTest, SharedCatalogEpochCutsMatchPerCellReplay) {
  for (bool numeric : kSchemas) {
    SCOPED_TRACE(SchemaLabel(numeric));
    Rng rng(TestSeed(numeric ? 182 : 181));
    server::SharedCatalog catalog;
    std::map<std::string, HistoryArray> mirror;
    std::map<std::string, std::vector<int64_t>> epochs;
    for (const std::string name : {"a", "b"}) {
      ASSERT_TRUE(catalog.Define(OracleSchema(numeric, name)).ok());
      mirror.emplace(name, HistoryArray(OracleSchema(numeric, name)));
    }
    for (int i = 0; i < 16; ++i) {
      const std::string name = rng.Uniform(3) == 0 ? "b" : "a";
      std::vector<CellUpdate> txn =
          RandomTxn(mirror.at(name).schema(), &rng);
      const int64_t epoch = catalog.CommitCells(name, txn).ValueOrDie();
      ASSERT_TRUE(mirror.at(name).Commit(txn, epoch).ok());
      epochs[name].push_back(epoch);
    }
    for (int64_t e = 0; e <= catalog.epoch(); ++e) {
      for (const auto& [name, history] : mirror) {
        SCOPED_TRACE(name + " at epoch " + std::to_string(e));
        const std::vector<int64_t>& cuts = epochs[name];
        const int64_t h =
            std::upper_bound(cuts.begin(), cuts.end(), e) - cuts.begin();
        MemArray want(history.schema());
        ReplayLayers(history, h, &want);
        ExpectSameSnapshot(catalog.SnapshotAt(name, e).ValueOrDie(), want);
      }
    }
  }
}

}  // namespace
}  // namespace scidb
