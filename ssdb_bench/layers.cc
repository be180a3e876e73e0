#include "layers.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "grid/cluster.h"
#include "net/frame.h"
#include "net/tcp_transport.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "server/query_client.h"
#include "server/query_server.h"
#include "server/shared_catalog.h"
#include "storage/chunk_serde.h"
#include "storage/codec.h"
#include "storage/storage_manager.h"

namespace ssdb {

using scidb::ExprPtr;

namespace {

// Every per-layer metric name, in the order BENCHMARK.json lists them.
const std::vector<std::string>& LayerMetricNames() {
  static const std::vector<std::string> names = {
      "query.parse_us",
      "query.optimize_us",
      "exec.filter_mcells_per_s",
      "exec.apply_mcells_per_s",
      "exec.aggregate_mcells_per_s",
      "exec.regrid_mcells_per_s",
      "exec.window_mcells_per_s",
      "exec.subsample_mcells_per_s",
      "exec.expr_eval_ns_per_cell",
      "exec.speedup_w2",
      "exec.morsels_per_op",
      "common.pool_dispatch_us",
      "storage.read_all_mcells_per_s",
      "storage.decode_mb_per_s",
      "storage.cache_hit_ratio",
      "storage.bytes_read_per_op",
      "storage.encode_mb_per_s",
      "storage.compression_ratio",
      "storage.loader_flushes_per_op",
      "storage.bytes_written_per_cell",
      "storage.merge_ms",
      "version.commit_us",
      "version.snapshot_ms",
      "net.frame_encode_mb_per_s",
      "net.frame_decode_mb_per_s",
      "net.crc32_mb_per_s",
      "net.rpcs_per_op",
      "net.bytes_per_op",
      "net.retries_per_op",
      "server.submit_us",
      "server.time_to_done_us",
      "server.polls_per_query",
      "server.fetch_release_us",
      "server.chunks_per_query",
      "server.busy_rejects_per_query",
      "server.scheduler_slices_per_query",
      "grid.load_ms",
      "grid.aggregate_ms",
      "grid.subsample_ms",
      "grid.bytes_stored_per_cell",
      "grid.load_imbalance_bytes",
      "trace.ops_per_s_untraced",
      "trace.ops_per_s_traced",
      "trace.overhead_pct",
  };
  return names;
}

}  // namespace

double MeanSpan(const Tracer& t, const std::string& name,
                double ns_per_unit) {
  uint64_t total = 0;
  int64_t count = 0;
  t.Totals(name, &total, &count);
  return count > 0 ? static_cast<double>(total) / ns_per_unit /
                         static_cast<double>(count)
                   : 0;
}

namespace {

// Work units per second of the spans named `name`: `units` per span,
// scaled by 1e-6 (M units/s).
double Rate(const Tracer& t, const std::string& name, double units) {
  const double mean_s = MeanSpan(t, name, 1e9);
  return mean_s > 0 ? units / mean_s / 1e6 : 0;
}

template <typename T>
T Must(scidb::Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "probe failed: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

void MustOk(const scidb::Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "probe failed: %s\n", st.ToString().c_str());
    std::abort();
  }
}

scidb::Box Domain(const scidb::ArraySchema& s) {
  return scidb::Box({s.dim(0).low, s.dim(1).low},
                    {s.dim(0).high, s.dim(1).high});
}

// The first chunk of a 2-D array as a region.
Region FirstChunk(const MemArray& a) {
  const scidb::Box& b = a.chunks().begin()->second->box();
  return Region{b.low[0], b.high[0], b.low[1], b.high[1]};
}

void ProbeQuery(const ProbeInput& in, Tracer* tracer) {
  for (int rep = 0; rep < 100; ++rep) {
    for (const std::string& s : in.statements) {
      scidb::Result<scidb::Statement> stmt = scidb::Status::Internal("not run");
      {
        Tracer::Scope span(tracer, "query.parse");
        stmt = scidb::ParseStatement(s);
      }
      const scidb::Statement parsed = Must(std::move(stmt));
      if (parsed.query == nullptr) continue;
      Tracer::Scope span(tracer, "query.optimize");
      Must(scidb::OptimizeOpTree(parsed.query));
    }
  }
}

void ProbeExec(const MemArray& a, Tracer* tracer, RunRecord* rec) {
  using namespace scidb;
  const ExecContext ctx = DirectContext();
  const double cells = static_cast<double>(a.CellCount());
  const ExprPtr pred = Gt(Ref("flux"), Lit(20.0));
  const Box dom = Domain(a.schema());
  const int64_t mid = (dom.low[0] + dom.high[0]) / 2;
  const ExprPtr half = Le(Ref("I"), Lit(mid));
  for (int rep = 0; rep < 3; ++rep) {
    {
      Tracer::Scope s(tracer, "exec.filter");
      Must(Filter(ctx, a, pred));
    }
    {
      Tracer::Scope s(tracer, "exec.apply");
      Must(Apply(ctx, a, "cal", DataType::kDouble,
                 Sub(Mul(Ref("flux"), Lit(1.7)), Lit(17.0))));
    }
    {
      Tracer::Scope s(tracer, "exec.aggregate");
      Must(Aggregate(ctx, a, {}, "avg", "flux"));
    }
    {
      Tracer::Scope s(tracer, "exec.regrid");
      Must(Regrid(ctx, a, {8, 8}, "avg", "flux"));
    }
    {
      Tracer::Scope s(tracer, "exec.window");
      Must(WindowAggregate(ctx, a, {1, 1}, "avg", "flux"));
    }
    {
      Tracer::Scope s(tracer, "exec.subsample");
      Must(Subsample(ctx, a, half));
    }
  }
  rec->layers["exec.filter_mcells_per_s"] = Rate(*tracer, "exec.filter", cells);
  rec->layers["exec.apply_mcells_per_s"] = Rate(*tracer, "exec.apply", cells);
  rec->layers["exec.aggregate_mcells_per_s"] =
      Rate(*tracer, "exec.aggregate", cells);
  rec->layers["exec.regrid_mcells_per_s"] = Rate(*tracer, "exec.regrid", cells);
  rec->layers["exec.window_mcells_per_s"] = Rate(*tracer, "exec.window", cells);
  rec->layers["exec.subsample_mcells_per_s"] =
      Rate(*tracer, "exec.subsample", cells);

  // Expr::Eval over the filter predicate, one present cell at a time.
  std::vector<Coordinates> coords;
  std::vector<std::vector<Value>> attrs;
  a.ForEachCell([&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
    coords.push_back(c);
    attrs.push_back({chunk.block(0).Get(rank)});
    return true;
  });
  EvalContext ectx;
  ectx.sides.resize(1);
  ectx.sides[0].schema = &a.schema();
  int64_t evaluated = 0;
  {
    Tracer::Scope s(tracer, "exec.expr_eval");
    for (size_t i = 0; i < coords.size(); ++i) {
      ectx.sides[0].coords = &coords[i];
      ectx.sides[0].attrs = &attrs[i];
      Result<Value> v = pred->Eval(ectx);
      if (v.ok()) ++evaluated;
    }
  }
  if (evaluated != static_cast<int64_t>(coords.size())) {
    std::fprintf(stderr, "probe failed: predicate evaluation error\n");
    std::abort();
  }
  rec->layers["exec.expr_eval_ns_per_cell"] =
      MeanSpan(*tracer, "exec.expr_eval", 1.0) / cells;

  // Filter+Aggregate at width 1 and width 2.
  ThreadPool pool(2);
  ExecContext wide = ctx;
  wide.pool = &pool;
  for (int rep = 0; rep < 3; ++rep) {
    const ExecContext* widths[] = {&ctx, &wide};
    for (const ExecContext* c : widths) {
      Tracer::Scope s(tracer, c == &ctx ? "exec.filter_agg_w1"
                                        : "exec.filter_agg_w2");
      Must(Aggregate(*c, Must(Filter(*c, a, pred)), {}, "count", "flux"));
    }
  }
  rec->layers["exec.speedup_w2"] =
      MeanSpan(*tracer, "exec.filter_agg_w1", 1.0) /
      MeanSpan(*tracer, "exec.filter_agg_w2", 1.0);
  auto empty = [](int64_t) { return Status::OK(); };
  for (int rep = 0; rep < 2000; ++rep) {
    Tracer::Scope s(tracer, "common.pool_dispatch");
    MustOk(pool.ParallelFor(2, empty));
  }
  rec->layers["common.pool_dispatch_us"] =
      MeanSpan(*tracer, "common.pool_dispatch", 1e3);
}

void ProbeStorageAndNet(const ProbeInput& in, Tracer* tracer,
                        RunRecord* rec) {
  using namespace scidb;
  const MemArray& a = *in.array;
  std::vector<std::vector<uint8_t>> raw, packed;
  double raw_bytes = 0;
  for (const auto& [origin, chunk] : a.chunks()) {
    raw.push_back(SerializeChunk(*chunk));
    raw_bytes += static_cast<double>(raw.back().size());
  }
  for (int rep = 0; rep < 3; ++rep) {
    packed.clear();
    for (const auto& [origin, chunk] : a.chunks()) {
      Tracer::Scope s(tracer, "storage.encode");
      packed.push_back(Compress(CodecType::kLz, SerializeChunk(*chunk)));
    }
    for (const auto& p : packed) {
      Tracer::Scope s(tracer, "storage.decode");
      Must(DeserializeChunk(Must(Decompress(p)), a.schema().attrs()));
    }
    for (const auto& payload : raw) {
      net::Frame f;
      f.type = net::MessageType::kChunkPut;
      f.payload = payload;
      std::vector<uint8_t> wire;
      {
        Tracer::Scope s(tracer, "net.frame_encode");
        wire = net::EncodeFrame(f);
      }
      {
        Tracer::Scope s(tracer, "net.frame_decode");
        Must(net::DecodeFrame(wire));
      }
      Tracer::Scope s(tracer, "net.crc32");
      volatile uint32_t crc = net::Crc32(payload.data(), payload.size());
      (void)crc;
    }
  }
  const double per_chunk = raw_bytes / static_cast<double>(raw.size());
  rec->layers["storage.encode_mb_per_s"] =
      Rate(*tracer, "storage.encode", per_chunk);
  rec->layers["storage.decode_mb_per_s"] =
      Rate(*tracer, "storage.decode", per_chunk);
  rec->layers["net.frame_encode_mb_per_s"] =
      Rate(*tracer, "net.frame_encode", per_chunk);
  rec->layers["net.frame_decode_mb_per_s"] =
      Rate(*tracer, "net.frame_decode", per_chunk);
  rec->layers["net.crc32_mb_per_s"] = Rate(*tracer, "net.crc32", per_chunk);

  // Stored scan through a cache a quarter of the decoded size.
  StorageManager sm(in.dir + "/probe");
  DiskArray* whole = Must(sm.CreateArray(a.schema(), CodecType::kLz));
  MustOk(whole->WriteAll(a));
  whole->EnableCache(a.ByteSize() / 4);
  for (int rep = 0; rep < 3; ++rep) {
    Tracer::Scope s(tracer, "storage.read_all");
    Must(whole->ReadAll(nullptr));
  }
  rec->layers["storage.read_all_mcells_per_s"] = Rate(
      *tracer, "storage.read_all", static_cast<double>(a.CellCount()));
  if (rec->layers.count("storage.merge_ms") == 0) {
    // One merge pass where every one-chunk bucket is small and every
    // merged pair is not: each bucket merges once.
    const StorageStats st = whole->stats();
    const int64_t small = st.bytes_written * 3 / (2 * st.buckets_written);
    {
      Tracer::Scope s(tracer, "storage.merge");
      Must(whole->MergeSmallBuckets(small));
    }
    rec->layers["storage.merge_ms"] = MeanSpan(*tracer, "storage.merge", 1e6);
  }
}

void ProbeVersion(const MemArray& a, Tracer* tracer, RunRecord* rec) {
  using namespace scidb;
  server::SharedCatalog cat;
  ArraySchema schema = a.schema();
  schema.set_updatable(true);
  MustOk(cat.Define(schema));
  std::vector<CellUpdate> all;
  a.ForEachCell([&](const Coordinates& c, const Chunk& chunk, int64_t r) {
    all.push_back(CellUpdate::Set(c, {chunk.block(0).Get(r)}));
    return true;
  });
  Must(cat.CommitCells(schema.name(), all));
  for (int k = 0; k < 64; ++k) {
    std::vector<CellUpdate> batch;
    for (int j = 0; j < 4; ++j) {
      batch.push_back(all[static_cast<size_t>((k * 4 + j) * 37) % all.size()]);
    }
    Tracer::Scope s(tracer, "version.commit");
    Must(cat.CommitCells(schema.name(), batch));
  }
  for (int rep = 0; rep < 3; ++rep) {
    Tracer::Scope s(tracer, "version.snapshot");
    Must(cat.SnapshotAt(schema.name(), cat.epoch()));
  }
  rec->layers["version.commit_us"] = MeanSpan(*tracer, "version.commit", 1e3);
  rec->layers["version.snapshot_ms"] =
      MeanSpan(*tracer, "version.snapshot", 1e6);
}

// One server query split at the client API: Submit, the Poll loop until
// done, then Await (fetch + release), each under its own span. `polls`
// accumulates completion polls, Await's own included.
scidb::Result<scidb::server::QueryClient::Outcome> TracedQuery(
    scidb::server::QueryClient* client, const std::string& statement,
    Tracer* tracer, int* polls) {
  uint64_t qid = 0;
  {
    Tracer::Scope s(tracer, "server.submit");
    ASSIGN_OR_RETURN(qid, client->Submit(statement));
  }
  {
    Tracer::Scope s(tracer, "server.time_to_done");
    for (;;) {
      ++*polls;
      ASSIGN_OR_RETURN(scidb::net::QueryDoneResponse done, client->Poll(qid));
      if (done.done != 0) break;
      // The client library's own pause between completion polls.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  Tracer::Scope s(tracer, "server.fetch_release");
  ++*polls;  // Await re-polls once before fetching
  return client->Await(qid);
}

// Records a probe's result check as one attempted op of the run: a
// wrong result fails the run like a wrong op does.
void Check(bool same, const std::string& what, const std::string& why,
           RunRecord* rec) {
  if (same) {
    rec->outcomes.push_back(0);
  } else {
    rec->Fail(2, what + ": " + why);
  }
}

// Front door: `n` single-chunk snapshot reads (Subsample + Aggregate) of
// the workload's array through a QueryServer with default Options on
// loopback TCP. Each read is checked against SharedCatalog::SnapshotAt
// at the epoch the server reported.
void ProbeServer(const MemArray& array, int n, Tracer* tracer,
                 RunRecord* rec) {
  using namespace scidb;
  net::LoopbackTcpTransport transport;
  server::QueryServer srv(&transport, 0, server::QueryServer::Options{});
  MustOk(srv.Start());
  ArraySchema schema = array.schema();
  schema.set_name("Probe");
  schema.set_updatable(true);
  MustOk(srv.catalog()->Define(schema));
  std::vector<CellUpdate> all;
  array.ForEachCell([&](const Coordinates& c, const Chunk& chunk, int64_t r) {
    all.push_back(CellUpdate::Set(c, {chunk.block(0).Get(r)}));
    return true;
  });
  Must(srv.catalog()->CommitCells("Probe", all));
  server::QueryClient client(&transport, 1, 0);
  MustOk(client.Bind());
  const Region region = FirstChunk(array);
  const std::string stmt = "select Aggregate(Subsample(Probe, " +
                           region.Aql() + "), {}, avg(flux))";
  const int64_t queries0 = CounterValue("scidb.server.queries");
  const int64_t rejects0 = CounterValue("scidb.server.admission_rejects");
  const int64_t slices0 = CounterValue("scidb.server.scheduler_slices");
  int polls = 0;
  double chunks = 0;
  std::vector<server::QueryClient::Outcome> reads;
  for (int i = 0; i < n; ++i) {
    reads.push_back(Must(TracedQuery(&client, stmt, tracer, &polls)));
    MustOk(reads.back().status);
    chunks += static_cast<double>(reads.back().chunks_fetched);
  }
  const double queries = static_cast<double>(
      CounterValue("scidb.server.queries") - queries0);
  rec->layers["server.submit_us"] = MeanSpan(*tracer, "server.submit", 1e3);
  rec->layers["server.time_to_done_us"] =
      MeanSpan(*tracer, "server.time_to_done", 1e3);
  rec->layers["server.fetch_release_us"] =
      MeanSpan(*tracer, "server.fetch_release", 1e3);
  rec->layers["server.polls_per_query"] = polls / static_cast<double>(n);
  rec->layers["server.chunks_per_query"] = chunks / n;
  rec->layers["server.busy_rejects_per_query"] =
      static_cast<double>(CounterValue("scidb.server.admission_rejects") -
                          rejects0) /
      queries;
  rec->layers["server.scheduler_slices_per_query"] =
      static_cast<double>(CounterValue("scidb.server.scheduler_slices") -
                          slices0) /
      queries;
  const ExecContext ctx = DirectContext();
  for (const server::QueryClient::Outcome& out : reads) {
    const MemArray snap =
        Must(srv.catalog()->SnapshotAt("Probe", out.snapshot_epoch));
    const MemArray expected = Must(Aggregate(
        ctx, Must(Subsample(ctx, snap, region.Pred())), {}, "avg", "flux"));
    std::string why = "no array";
    Check(out.array != nullptr && SameCells(*out.array, expected, &why),
          "server read", why, rec);
  }
  srv.Shutdown();
}

// Grid: `n` ops of the grid_scatter shape on the workload's array, a
// 4-node DistributedArray with k = 2 over the threaded transport: Load,
// then ParallelAggregate and ParallelSubsample, each checked against the
// local kernels. The net.* counts are per op.
void ProbeGrid(const MemArray& array, int n, Tracer* tracer, RunRecord* rec) {
  using namespace scidb;
  GridNetOptions net;
  net.transport = GridNetOptions::TransportKind::kThreaded;
  net.replication = 2;
  DistributedArray grid(array.schema(),
                        std::make_shared<FixedGridPartitioner>(
                            Domain(array.schema()),
                            std::vector<int64_t>{2, 2}),
                        net);
  const ExecContext ctx = DirectContext();
  const ExprPtr pred = FirstChunk(array).Pred();
  const MemArray expect_agg = Must(Aggregate(ctx, array, {"I"}, "avg", "flux"));
  const MemArray expect_sub = Must(Subsample(ctx, array, pred));
  const int64_t rpcs0 = HistogramCount("scidb.net.rpc_latency_us");
  const int64_t bytes0 = CounterValue("scidb.net.bytes_sent");
  const int64_t retries0 = CounterValue("scidb.net.retries");
  std::vector<MemArray> aggs, subs;
  for (int i = 0; i < n; ++i) {
    {
      Tracer::Scope s(tracer, "grid.load");
      MustOk(grid.Load(array, i));
    }
    {
      Tracer::Scope s(tracer, "grid.aggregate");
      aggs.push_back(Must(grid.ParallelAggregate(ctx, {"I"}, "avg", "flux")));
    }
    Tracer::Scope s(tracer, "grid.subsample");
    subs.push_back(Must(grid.ParallelSubsample(ctx, pred)));
  }
  const double ops = n;
  rec->layers["net.rpcs_per_op"] =
      static_cast<double>(HistogramCount("scidb.net.rpc_latency_us") - rpcs0) /
      ops;
  rec->layers["net.bytes_per_op"] =
      static_cast<double>(CounterValue("scidb.net.bytes_sent") - bytes0) / ops;
  rec->layers["net.retries_per_op"] =
      static_cast<double>(CounterValue("scidb.net.retries") - retries0) / ops;
  rec->layers["grid.load_ms"] = MeanSpan(*tracer, "grid.load", 1e6);
  rec->layers["grid.aggregate_ms"] = MeanSpan(*tracer, "grid.aggregate", 1e6);
  rec->layers["grid.subsample_ms"] = MeanSpan(*tracer, "grid.subsample", 1e6);
  double stored = 0;
  for (const NodeStats& st : grid.node_stats()) {
    stored += static_cast<double>(st.bytes_stored);
  }
  rec->layers["grid.bytes_stored_per_cell"] =
      stored / static_cast<double>(array.CellCount());
  rec->layers["grid.load_imbalance_bytes"] = grid.LoadImbalanceBytes();
  for (int i = 0; i < n; ++i) {
    std::string why;
    Check(SameCells(aggs[static_cast<size_t>(i)], expect_agg, &why),
          "grid aggregate", why, rec);
    Check(SameCells(subs[static_cast<size_t>(i)], expect_sub, &why),
          "grid subsample", why, rec);
  }
}

}  // namespace

void ProbeLayers(const ProbeInput& in, Tracer* tracer, RunRecord* rec) {
  tracer->set_enabled(true);
  {
    Tracer::Scope s(tracer, "probe.query");
    ProbeQuery(in, tracer);
  }
  rec->layers["query.parse_us"] = MeanSpan(*tracer, "query.parse", 1e3);
  rec->layers["query.optimize_us"] = MeanSpan(*tracer, "query.optimize", 1e3);
  {
    Tracer::Scope s(tracer, "probe.exec");
    ProbeExec(*in.array, tracer, rec);
  }
  {
    Tracer::Scope s(tracer, "probe.storage_net");
    ProbeStorageAndNet(in, tracer, rec);
  }
  {
    Tracer::Scope s(tracer, "probe.version");
    ProbeVersion(*in.array, tracer, rec);
  }
  // The ops of the gated workloads pass through neither the query server
  // nor the grid; those layers are timed on the same input here.
  {
    Tracer::Scope s(tracer, "probe.server");
    ProbeServer(*in.array, 20, tracer, rec);
  }
  {
    Tracer::Scope s(tracer, "probe.grid");
    ProbeGrid(*in.array, 3, tracer, rec);
  }
  tracer->set_enabled(false);
  // Count metrics of layers the op loop did not pass through.
  for (const std::string& name : LayerMetricNames()) {
    if (name.rfind("trace.", 0) == 0) continue;  // set by main
    rec->layers.emplace(name, 0.0);
  }
  std::ofstream out(in.spans_out);
  out << tracer->SpansJson();
}

}  // namespace ssdb
