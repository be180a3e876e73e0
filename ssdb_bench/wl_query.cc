// ssdb_query: one session at `set parallelism = 2` over a seeded sky
// image stored LZ-coded in a DiskArray. One op is one pass of the SS-DB
// task chain in AQL; each statement cooks the stored image (Apply
// calibration) and scans it through a chunk cache smaller than the
// decoded image, so every scan decodes.
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "layers.h"
#include "query/session.h"
#include "storage/storage_manager.h"

namespace ssdb {
namespace {

constexpr int64_t kN = 384;      // image side: 147456 input cells
constexpr int64_t kChunk = 48;   // 8 x 8 = 64 chunks
// Regions are chunk-aligned so every seed's pass costs the same.
constexpr int64_t kWindowChunks = 2;
constexpr int64_t kRegionChunks = 3;
constexpr int kRegions = 4;
constexpr const char* kCook = "Apply(Raw, cal, flux * 1.7 - 17.0)";
constexpr double kThreshold = 60.0;
// Set-ups timed before the measurement, and one more after every
// kRebuildEvery ops of the untraced measurement.
constexpr int kSetupRounds = 4;
constexpr int kRebuildEvery = 2;

// Everything set-up builds. The scratch directory is declared first so
// the storage manager (which flushes on destruction) goes away before it.
struct World {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<scidb::StorageManager> storage;
  scidb::DiskArray* disk = nullptr;
  MemArray image;
  std::unique_ptr<scidb::Session> session;
};

std::unique_ptr<World> Setup(uint64_t seed, const std::string& dir) {
  auto w = std::make_unique<World>();
  w->storage = std::make_unique<scidb::StorageManager>(dir);
  w->image = MakeSky("Raw", kN, kChunk, seed);
  auto disk = w->storage->CreateArray(w->image.schema(),
                                      scidb::CodecType::kLz);
  if (!disk.ok()) std::abort();
  w->disk = disk.value();
  if (!w->disk->WriteAll(w->image).ok() || !w->disk->Flush().ok()) {
    std::abort();
  }
  // A quarter of the decoded image: a full scan always misses.
  w->disk->EnableCache(w->image.ByteSize() / 4);
  w->session = std::make_unique<scidb::Session>();
  w->session->AttachStorage(w->storage.get());
  if (!w->session->Execute("set parallelism = 2").ok()) std::abort();
  return w;
}

struct Task {
  std::string name;  // span name: ssdb.<task>
  std::string aql;
  MemArray expected;
};

std::vector<std::vector<Task>> BuildPasses(const MemArray& image,
                                           uint64_t seed) {
  using namespace scidb;
  const ExecContext ctx = DirectContext();
  auto must = [](Result<MemArray> r) {
    if (!r.ok()) std::abort();
    return std::move(r).value();
  };
  const MemArray cooked =
      must(Apply(ctx, image, "cal", DataType::kDouble,
                 Sub(Mul(Ref("flux"), Lit(1.7)), Lit(17.0))));
  const MemArray detect = must(Aggregate(
      ctx, must(Filter(ctx, cooked, Gt(Ref("cal"), Lit(kThreshold)))), {},
      "count", "cal"));
  const MemArray regrid = must(Regrid(ctx, cooked, {8, 8}, "avg", "cal"));
  Rng rng(MixSeed(seed, 7));
  std::vector<std::vector<Task>> passes;
  for (int r = 0; r < kRegions; ++r) {
    auto aligned = [&](int64_t chunks) {
      auto start = [&] {
        return 1 + kChunk * rng.UniformInt(0, kN / kChunk - chunks);
      };
      const int64_t i0 = start();
      const int64_t j0 = start();
      return Region{i0, i0 + chunks * kChunk - 1, j0, j0 + chunks * kChunk - 1};
    };
    const Region win = aligned(kWindowChunks);
    const Region reg = aligned(kRegionChunks);
    std::vector<Task> pass;
    pass.push_back({"ssdb.detect",
                    "select Aggregate(Filter(" + std::string(kCook) +
                        ", cal > 60.0), {}, count(cal))",
                    detect});
    pass.push_back({"ssdb.regrid",
                    "select Regrid(" + std::string(kCook) +
                        ", [8, 8], avg(cal))",
                    regrid});
    pass.push_back(
        {"ssdb.window",
         "select Window(Subsample(" + std::string(kCook) + ", " + win.Aql() +
             "), [1, 1], avg(cal))",
         must(WindowAggregate(ctx, must(Subsample(ctx, cooked, win.Pred())),
                              {1, 1}, "avg", "cal"))});
    pass.push_back(
        {"ssdb.region",
         "select Aggregate(Subsample(" + std::string(kCook) + ", " +
             reg.Aql() + "), {}, avg(cal))",
         must(Aggregate(ctx, must(Subsample(ctx, cooked, reg.Pred())), {},
                        "avg", "cal"))});
    passes.push_back(std::move(pass));
  }
  return passes;
}

// One op: every task of one pass. Records the op's engine time (checks
// excluded) or its failure in `rec`.
void RunPass(World* w, const std::vector<Task>& pass, Tracer* tracer,
             RunRecord* rec) {
  double ms = 0;
  for (const Task& t : pass) {
    scidb::Result<scidb::QueryResult> r = scidb::Status::Internal("not run");
    {
      Tracer::Scope span(tracer, t.name.c_str());
      const uint64_t t0 = NowNs();
      r = w->session->Execute(t.aql);
      ms += static_cast<double>(NowNs() - t0) / 1e6;
    }
    if (!r.ok() || r.value().array == nullptr) {
      rec->Fail(1, t.name + ": " +
                       (r.ok() ? "no array" : r.status().ToString()));
      return;
    }
    std::string why;
    bool same = false;
    {
      Unmeasured check(rec);
      same = SameCells(*r.value().array, t.expected, &why);
    }
    if (!same) {
      rec->Fail(2, t.name + ": " + why);
      return;
    }
  }
  rec->Ok(ms);
}

}  // namespace

void RunQuery(const Args& args, RunRecord* rec) {
  auto make = [&](const std::string& dir) { return Setup(args.seed, dir); };
  std::unique_ptr<World> w;
  TimedSetups("query", kSetupRounds, rec, &w, make);
  const auto passes = BuildPasses(w->image, args.seed);
  const double cells = static_cast<double>(w->image.CellCount());
  rec->stored_bytes_per_cell =
      static_cast<double>(w->disk->LiveBytes()) / cells;
  rec->input = std::to_string(kN) + "x" + std::to_string(kN) +
                        " image, chunk " + std::to_string(kChunk) +
                        ", 4 stored scans per op";
  // Warm-up: one untimed pass (lazy pool start, allocator growth).
  RunRecord warm;
  RunPass(w.get(), passes[0], nullptr, &warm);

  Tracer tracer(false);
  // The halves of a traced run.
  auto loop = [&](double seconds, RunRecord* r) {
    TimedLoop(seconds, 12, r, [&](int i) {
      RunPass(w.get(), passes[static_cast<size_t>(i % kRegions)], &tracer,
              r);
    });
  };
  if (!args.trace) {
    TimedLoop(args.seconds, 12, rec, [&](int i) {
      if (i > 0 && i % kRebuildEvery == 0) {
        Unmeasured rebuild(rec);
        TimedSetups("query", 1, rec, &w, make);
      }
      RunPass(w.get(), passes[static_cast<size_t>(i % kRegions)], &tracer,
              rec);
    });
  } else {
    RunRecord plain;
    loop(args.seconds / 2, &plain);
    const auto stats0 = w->disk->stats();
    const auto cache0 = w->disk->cache()->stats();
    const int64_t morsels0 = CounterValue("scidb.exec.morsels");
    tracer.set_enabled(true);
    loop(args.seconds / 2, rec);
    tracer.set_enabled(false);
    const double ops = static_cast<double>(rec->outcomes.size());
    const auto stats1 = w->disk->stats();
    const auto cache1 = w->disk->cache()->stats();
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double misses = static_cast<double>(cache1.misses - cache0.misses);
    rec->layers["trace.ops_per_s_untraced"] =
        static_cast<double>(plain.latency_ms.size()) / plain.wall_s;
    rec->layers["exec.morsels_per_op"] =
        static_cast<double>(CounterValue("scidb.exec.morsels") - morsels0) /
        ops;
    rec->layers["storage.cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    rec->layers["storage.bytes_read_per_op"] =
        static_cast<double>(stats1.bytes_read - stats0.bytes_read) / ops;
    rec->layers["storage.bytes_written_per_cell"] =
        static_cast<double>(stats1.bytes_written) / cells;
    rec->layers["storage.compression_ratio"] =
        static_cast<double>(stats1.bytes_logical) /
        static_cast<double>(stats1.bytes_written);
    ProbeInput in;
    in.array = &w->image;
    for (const Task& t : passes[0]) in.statements.push_back(t.aql);
    in.dir = w->dir->path();
    in.spans_out = args.out + ".spans.json";
    ProbeLayers(in, &tracer, rec);
    rec->Absorb(plain);
  }
  rec->Absorb(warm);
  rec->input_cells = cells * static_cast<double>(rec->latency_ms.size());
}

}  // namespace ssdb
