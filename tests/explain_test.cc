#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "query/session.h"
#include "server/shared_catalog.h"
#include "storage/storage_manager.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir = (fs::temp_directory_path() /
                     ("scidb_explain_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// A session with a small in-memory array A holding three cells.
void Populate(Session* session) {
  ASSERT_TRUE(session->Execute("define T (v = double) (I, J)").ok());
  ASSERT_TRUE(session->Execute("create A as T [8, 8]").ok());
  ASSERT_TRUE(session->Execute("insert A [1, 1] values (1.5)").ok());
  ASSERT_TRUE(session->Execute("insert A [2, 3] values (2.5)").ok());
  ASSERT_TRUE(session->Execute("insert A [5, 7] values (4.0)").ok());
}

TEST(ExplainTest, PlainExplainPrintsOptimizedPlan) {
  Session session;
  Populate(&session);
  Result<QueryResult> r =
      session.Execute("explain select Aggregate(Filter(A, v > 1), {I}, sum(v))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().kind, QueryResult::Kind::kExplain);
  EXPECT_EQ(r.value().trace, nullptr);  // plain explain executes nothing
  EXPECT_EQ(r.value().message,
            "aggregate [{I} sum(v)]\n"
            "  filter [(v > 1)]\n"
            "    scan A\n");
}

TEST(ExplainTest, AnalyzeTreeShapeMatchesPlainExplain) {
  Session session;
  Populate(&session);
  const std::string query = "Aggregate(Filter(A, v > 1), {I}, sum(v))";

  Result<QueryResult> plain = session.Execute("explain select " + query);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  Result<QueryResult> analyzed =
      session.Execute("explain analyze select " + query);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_NE(analyzed.value().trace, nullptr);

  // Same labels, same nesting: the annotated tree renders to exactly the
  // plain plan when the annotations are stripped.
  EXPECT_EQ(analyzed.value().trace->ToString(false), plain.value().message);
  EXPECT_EQ(session.last_trace(), analyzed.value().trace);
}

TEST(ExplainTest, AnalyzeTimingsWithInjectedClock) {
  Session session;
  Populate(&session);

  // Fake clock: every read advances 1 us, so each span's wall time is
  // exactly 1000 * (clock reads inside it) — deterministic and positive.
  uint64_t now = 0;
  session.set_clock([&now]() {
    now += 1000;
    return now;
  });

  Result<QueryResult> r = session.Execute(
      "explain analyze select Aggregate(Filter(A, v > 1), {}, sum(v))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::shared_ptr<const QueryTrace> trace = r.value().trace;
  ASSERT_NE(trace, nullptr);

  EXPECT_GT(trace->parse_ns, 0u);
  EXPECT_GT(trace->optimize_ns, 0u);
  EXPECT_GT(trace->execute_ns, 0u);
  EXPECT_EQ(trace->parse_ns % 1000, 0u);  // the fake clock ticks in us

  // Wall times are non-negative and monotone: a parent span encloses all
  // of its children, so it can never be shorter than their sum.
  const TraceNode* agg = &trace->root;
  ASSERT_EQ(agg->children.size(), 1u);
  const TraceNode* filter = agg->children[0].get();
  ASSERT_EQ(filter->children.size(), 1u);
  const TraceNode* scan = filter->children[0].get();

  EXPECT_GT(agg->wall_ns, 0u);
  EXPECT_GT(filter->wall_ns, 0u);
  EXPECT_GT(scan->wall_ns, 0u);
  EXPECT_GE(agg->wall_ns, filter->wall_ns + scan->wall_ns);
  EXPECT_GE(filter->wall_ns, scan->wall_ns);
  EXPECT_GE(trace->execute_ns, agg->wall_ns);

  // Cell counts ride along: 3 cells scanned, 3 kept by filter (false
  // cells become NULL, not absent), 1 aggregate output.
  EXPECT_EQ(scan->out_cells, 3);
  EXPECT_EQ(filter->out_cells, 3);
  EXPECT_EQ(agg->out_cells, 1);

  // Restoring the real clock must not break subsequent statements.
  session.set_clock(nullptr);
  EXPECT_TRUE(session.Execute("select Filter(A, v > 1)").ok());
}

TEST(ExplainTest, AnalyzeExistsTracesInputAndVerdict) {
  Session session;
  Populate(&session);
  Result<QueryResult> r =
      session.Execute("explain analyze select Exists(A, 1, 1)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().trace, nullptr);
  const TraceNode& root = r.value().trace->root;
  const double* verdict = root.FindNote("exists");
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(*verdict, 1.0);
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0]->label, "scan A");
}

TEST(ExplainTest, ParserRejectsExplainWithoutQuery) {
  Session session;
  EXPECT_FALSE(session.Execute("explain").ok());
  EXPECT_FALSE(session.Execute("explain analyze").ok());
}

// The acceptance scenario: filter + aggregate over a chunked array that
// lives on disk behind the chunk cache. The second run is cache-resident
// and the trace must say so.
TEST(ExplainTest, AnalyzeStoredArrayReportsCacheHitRatio) {
  StorageManager sm(TempDir("cache"));
  ArraySchema schema("S", {{"I", 1, 8, 4}, {"J", 1, 8, 4}},
                     {{"v", DataType::kDouble, true, false}});
  MemArray data(schema);
  for (int64_t i = 1; i <= 8; ++i) {
    for (int64_t j = 1; j <= 8; ++j) {
      ASSERT_TRUE(
          data.SetCell({i, j}, {Value(static_cast<double>(i * j))}).ok());
    }
  }
  Result<DiskArray*> da = sm.CreateArray(schema);
  ASSERT_TRUE(da.ok()) << da.status().ToString();
  ASSERT_TRUE(da.value()->WriteAll(data).ok());
  da.value()->EnableCache(1 << 20);

  Session session;
  session.AttachStorage(&sm);
  const std::string query =
      "explain analyze select Aggregate(Filter(S, v > 10), {}, count(*))";

  // Cold: every bucket is a cache miss read from disk.
  Result<QueryResult> cold = session.Execute(query);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const TraceNode* scan =
      cold.value().trace->root.children[0]->children[0].get();
  EXPECT_EQ(scan->label, "scan S");
  EXPECT_EQ(scan->out_cells, 64);
  ASSERT_NE(scan->FindNote("cache_misses"), nullptr);
  EXPECT_GT(*scan->FindNote("cache_misses"), 0.0);
  ASSERT_NE(scan->FindNote("cache_hit_ratio"), nullptr);
  EXPECT_EQ(*scan->FindNote("cache_hit_ratio"), 0.0);
  ASSERT_NE(scan->FindNote("disk_bytes_read"), nullptr);
  EXPECT_GT(*scan->FindNote("disk_bytes_read"), 0.0);

  // Warm: same buckets, all served from the cache, zero disk bytes.
  Result<QueryResult> warm = session.Execute(query);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  scan = warm.value().trace->root.children[0]->children[0].get();
  ASSERT_NE(scan->FindNote("cache_hit_ratio"), nullptr);
  EXPECT_EQ(*scan->FindNote("cache_hit_ratio"), 1.0);
  EXPECT_EQ(*scan->FindNote("disk_bytes_read"), 0.0);

  // The rendered output carries the acceptance-visible annotations.
  EXPECT_NE(warm.value().message.find("wall "), std::string::npos);
  EXPECT_NE(warm.value().message.find("cells"), std::string::npos);
  EXPECT_NE(warm.value().message.find("cache_hit_ratio 1"),
            std::string::npos);

  // And the registry saw the same traffic, programmatically.
  const MetricsSnapshot snap = session.MetricsSnapshot();
  const MetricsSnapshot::Entry* hits =
      snap.find("scidb.storage.cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_GT(hits->value, 0);
  const MetricsSnapshot::Entry* ops = snap.find("scidb.exec.op.aggregate");
  ASSERT_NE(ops, nullptr);
  EXPECT_GT(ops->value, 0);
  const MetricsSnapshot::Entry* lat = snap.find("scidb.query.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, MetricsSnapshot::Kind::kHistogram);
  EXPECT_GT(lat->count, 0);
}

// A Subsample straight over an array reference reads only its box: the
// scan says which box it read and how many cells came back, a stored
// array reads fewer bytes than a full scan, and the cache and disk notes
// stay. Scans under any other operator read everything and carry no
// region note.
TEST(ExplainTest, AnalyzeSubsampleReportsRegionRead) {
  StorageManager sm(TempDir("region"));
  ArraySchema schema("R", {{"I", 1, 8, 4}, {"J", 1, 8, 4}},
                     {{"v", DataType::kDouble, true, false}});
  MemArray data(schema);
  for (int64_t i = 1; i <= 8; ++i) {
    for (int64_t j = 1; j <= 8; ++j) {
      ASSERT_TRUE(
          data.SetCell({i, j}, {Value(static_cast<double>(i * j))}).ok());
    }
  }
  DiskArray* da = sm.CreateArray(schema).ValueOrDie();
  ASSERT_TRUE(da->WriteAll(data).ok());
  da->EnableCache(1 << 20);

  Session session;
  session.AttachStorage(&sm);
  Populate(&session);
  auto scan_of = [&](const std::string& query) -> const TraceNode* {
    Result<QueryResult> r = session.Execute("explain analyze select " + query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return nullptr;
    const TraceNode* node = &session.last_trace()->root;
    while (!node->children.empty()) node = node->children[0].get();
    return node;
  };
  auto has_region_note = [](const TraceNode* n) {
    for (const auto& [key, value] : n->notes) {
      if (key.rfind("region", 0) == 0) return true;
    }
    return false;
  };

  const TraceNode* full = scan_of("Filter(R, v > 0)");
  ASSERT_NE(full, nullptr);
  EXPECT_FALSE(has_region_note(full));
  const double full_bytes = *full->FindNote("disk_bytes_read");
  // Drop the cache so the region read goes to disk again.
  da->EnableCache(0);
  da->EnableCache(1 << 20);

  const TraceNode* stored = scan_of("Subsample(R, I <= 4 and J >= 5)");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->label, "scan R");
  EXPECT_EQ(stored->out_cells, 16);
  ASSERT_NE(stored->FindNote("region [1,5]..[4,8]"), nullptr);
  EXPECT_EQ(*stored->FindNote("region [1,5]..[4,8]"), 16.0);
  ASSERT_NE(stored->FindNote("disk_bytes_read"), nullptr);
  EXPECT_GT(*stored->FindNote("disk_bytes_read"), 0.0);
  EXPECT_LT(*stored->FindNote("disk_bytes_read"), full_bytes / 2);
  ASSERT_NE(stored->FindNote("cache_misses"), nullptr);
  EXPECT_EQ(*stored->FindNote("cache_misses"), 1.0);  // one of 4 buckets

  // A catalog array: the box is cut from the predicate the same way.
  const TraceNode* catalog = scan_of("Subsample(A, I = 2)");
  ASSERT_NE(catalog, nullptr);
  ASSERT_NE(catalog->FindNote("region [2,1]..[2,8]"), nullptr);
  EXPECT_EQ(*catalog->FindNote("region [2,1]..[2,8]"), 1.0);
  EXPECT_EQ(catalog->FindNote("disk_bytes_read"), nullptr);

  // Nothing can match: the empty box reads nothing.
  const TraceNode* empty = scan_of("Subsample(R, I > 8)");
  ASSERT_NE(empty, nullptr);
  ASSERT_NE(empty->FindNote("region [9,1]..[8,8]"), nullptr);
  EXPECT_EQ(*empty->FindNote("region [9,1]..[8,8]"), 0.0);
  EXPECT_EQ(*empty->FindNote("disk_bytes_read"), 0.0);
}

// A shared array resolved through the query-server hook keeps its
// `snapshot` note and gets the region note under a Subsample.
TEST(ExplainTest, AnalyzeSnapshotSubsampleReportsRegionRead) {
  server::SharedCatalog catalog;
  ASSERT_TRUE(catalog
                  .Define(ArraySchema("H", {{"I", 1, 8, 4}, {"J", 1, 8, 4}},
                                      {{"v", DataType::kDouble, true, false}}))
                  .ok());
  ASSERT_TRUE(catalog
                  .CommitCells("H", {CellUpdate::Set({1, 1}, {Value(1.0)}),
                                     CellUpdate::Set({6, 6}, {Value(2.0)})})
                  .ok());
  Session session;
  session.set_array_resolver([&](const std::string& name) {
    return catalog.Source(name, catalog.epoch());
  });
  Result<QueryResult> r =
      session.Execute("explain analyze select Subsample(H, I >= 5)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().trace->root.children.size(), 1u);
  const TraceNode& scan = *r.value().trace->root.children[0];
  EXPECT_EQ(scan.label, "scan H");
  ASSERT_NE(scan.FindNote("snapshot"), nullptr);
  ASSERT_NE(scan.FindNote("region [5,1]..[8,8]"), nullptr);
  EXPECT_EQ(*scan.FindNote("region [5,1]..[8,8]"), 1.0);
  EXPECT_EQ(scan.out_cells, 1);
}

// Storage fallback works for plain (untraced) queries too.
TEST(ExplainTest, StorageBackedArrayUsableWithoutExplain) {
  StorageManager sm(TempDir("plain"));
  ArraySchema schema("D", {{"I", 1, 4, 2}},
                     {{"v", DataType::kDouble, true, false}});
  MemArray data(schema);
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(data.SetCell({i}, {Value(static_cast<double>(i))}).ok());
  }
  Result<DiskArray*> da = sm.CreateArray(schema);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(da.value()->WriteAll(data).ok());

  Session session;
  // Without storage attached the name does not resolve.
  EXPECT_FALSE(session.Execute("select Filter(D, v > 2)").ok());
  session.AttachStorage(&sm);
  Result<QueryResult> r = session.Execute("select Filter(D, v > 2)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().array->CellCount(), 4);  // filter keeps NULLed cells
}

}  // namespace
}  // namespace scidb
