// ssdb_ingest: one thread streams observation-epoch tiles, in
// time-major order, through a StreamLoader into an LZ DiskArray whose
// memory budget forces several flushes per tile. Each tile is read back
// with ReadRegion and checked; a MergeSmallBuckets pass runs every
// kMergeEvery epochs on that fixed schedule (no timer thread).
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "layers.h"
#include "storage/storage_manager.h"

namespace ssdb {
namespace {

constexpr int64_t kTile = 384;  // tile side: 147456 cells per epoch
constexpr int64_t kChunk = 96;  // 4 x 4 chunks per tile
constexpr int kTileKinds = 4;   // distinct seeded tiles, cycled
constexpr int kMergeEvery = 4;
// Buckets below this size are merge candidates: the partial-chunk
// fragments a flush leaves behind, not the full chunks.
constexpr int64_t kSmallBucketBytes = 2 << 10;
// Epochs per DiskArray: the array is replaced on this fixed schedule so
// per-op cost does not grow with run length.
constexpr int kEpochsPerArray = 16;
// Set-ups timed before the measurement, and kRebuildRounds more at
// every array replacement of the untraced measurement.
constexpr int kSetupRounds = 4;
constexpr int kRebuildRounds = 2;

scidb::ArraySchema TileSchema(int generation) {
  return scidb::ArraySchema(
      "Tiles" + std::to_string(generation),
      {{"t", 1, 1 << 30, 1}, {"I", 1, kTile, kChunk}, {"J", 1, kTile, kChunk}},
      {{"flux", scidb::DataType::kDouble, true, false}});
}

struct World {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<scidb::StorageManager> storage;
  std::vector<MemArray> tiles;        // 2-D (I, J) sources
  std::vector<std::vector<double>> values;  // row-major flux per tile
  scidb::DiskArray* disk = nullptr;
  int generation = 0;
  size_t budget = 0;
  int64_t check_bytes_read = 0;  // read by the untimed whole-array checks
};

void NewArray(World* w) {
  if (w->disk != nullptr) {
    if (!w->storage->DropArray(w->disk->schema().name()).ok()) std::abort();
  }
  auto disk = w->storage->CreateArray(TileSchema(++w->generation),
                                      scidb::CodecType::kLz);
  if (!disk.ok()) std::abort();
  w->disk = disk.value();
}

std::unique_ptr<World> Setup(uint64_t seed, const std::string& dir) {
  auto w = std::make_unique<World>();
  w->storage = std::make_unique<scidb::StorageManager>(dir);
  for (int k = 0; k < kTileKinds; ++k) {
    w->tiles.push_back(MakeSky("Tile", kTile, kChunk, scidb::MixSeed(seed, k)));
    std::vector<double> v(static_cast<size_t>(kTile * kTile));
    w->tiles.back().ForEachCell(
        [&](const scidb::Coordinates& c, const scidb::Chunk& chunk,
            int64_t rank) {
          v[static_cast<size_t>((c[0] - 1) * kTile + (c[1] - 1))] =
              chunk.block(0).GetDouble(rank);
          return true;
        });
    w->values.push_back(std::move(v));
  }
  // Four and a half chunks: a row of chunks fits, so the loader flushes
  // once per chunk row (four times per tile).
  w->budget = w->tiles[0].ByteSize() * 9 / 32;
  NewArray(w.get());
  return w;
}

// Checks that `got` holds exactly epoch k of the current array with the
// values streamed for it. Epoch k of the array is global epoch
// e - t + k, where op `e` wrote epoch t.
bool SameEpoch(const World& w, const MemArray& got, int64_t e, int64_t t,
               int64_t k, std::string* why) {
  if (got.CellCount() != kTile * kTile) {
    *why = "read-back has " + std::to_string(got.CellCount()) + " cells";
    return false;
  }
  const std::vector<double>& v =
      w.values[static_cast<size_t>((e - t + k) % kTileKinds)];
  bool same = true;
  got.ForEachCell([&](const scidb::Coordinates& c, const scidb::Chunk& chunk,
                      int64_t rank) {
    same = c[0] == k && !chunk.block(0).IsNull(rank) &&
           chunk.block(0).GetDouble(rank) ==
               v[static_cast<size_t>((c[1] - 1) * kTile + c[2] - 1)];
    return same;
  });
  if (!same) *why = "read-back value differs from the streamed tile";
  return same;
}

// One op: stream epoch `e` (1-based), read it back, check it, and run
// the scheduled merge pass. Records the op's outcome in `rec`. The last
// epoch of an array, whose op runs a merge, is followed by an untimed
// read-back of every epoch of the array, which checks every merge made
// into it.
void RunEpoch(World* w, int64_t e, Tracer* tracer, RunRecord* rec,
              int64_t* flushes) {
  const std::vector<double>& v =
      w->values[static_cast<size_t>(e % kTileKinds)];
  const int64_t t = (e - 1) % kEpochsPerArray + 1;
  const uint64_t t0 = NowNs();
  if (t == 1 && e > 1) {
    Tracer::Scope s(tracer, "storage.new_array");
    NewArray(w);
  }
  {
    Tracer::Scope s(tracer, "storage.load");
    scidb::StreamLoader loader(w->disk, w->budget);
    std::vector<scidb::Value> cell(1);
    for (int64_t i = 1; i <= kTile; ++i) {
      for (int64_t j = 1; j <= kTile; ++j) {
        cell[0] = scidb::Value(v[static_cast<size_t>((i - 1) * kTile + j - 1)]);
        scidb::Status st = loader.Append({t, i, j}, cell);
        if (!st.ok()) return rec->Fail(1, "append: " + st.ToString());
      }
    }
    scidb::Status st = loader.Finish();
    if (!st.ok()) return rec->Fail(1, "finish: " + st.ToString());
    *flushes += loader.flushes();
  }
  scidb::Result<MemArray> back = scidb::Status::Internal("not run");
  {
    Tracer::Scope s(tracer, "storage.read_region");
    back = w->disk->ReadRegion(scidb::Box({t, 1, 1}, {t, kTile, kTile}));
  }
  if (e % kMergeEvery == 0) {
    Tracer::Scope s(tracer, "storage.merge");
    scidb::Result<int> merged = w->disk->MergeSmallBuckets(kSmallBucketBytes);
    if (!merged.ok()) return rec->Fail(1, "merge: " + merged.status().ToString());
  }
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  Unmeasured check(rec);
  if (!back.ok()) return rec->Fail(1, "read: " + back.status().ToString());
  std::string why;
  if (!SameEpoch(*w, back.value(), e, t, t, &why)) {
    return rec->Fail(2, why);
  }
  // One epoch at a time, so the check adds little to peak memory.
  for (int64_t k = 1; t == kEpochsPerArray && k <= t; ++k) {
    const int64_t read0 = w->disk->stats().bytes_read;
    auto one = w->disk->ReadRegion(scidb::Box({k, 1, 1}, {k, kTile, kTile}));
    w->check_bytes_read += w->disk->stats().bytes_read - read0;
    if (!one.ok()) return rec->Fail(1, "read: " + one.status().ToString());
    if (!SameEpoch(*w, one.value(), e, t, k, &why)) {
      return rec->Fail(2, "after merges: " + why);
    }
  }
  rec->Ok(ms);
}

}  // namespace

void RunIngest(const Args& args, RunRecord* rec) {
  auto make = [&](const std::string& dir) { return Setup(args.seed, dir); };
  std::unique_ptr<World> w;
  TimedSetups("ingest", kSetupRounds, rec, &w, make);
  rec->input = std::to_string(kTile) + "x" + std::to_string(kTile) +
                        " tile per op, chunk " + std::to_string(kChunk) +
                        ", merge every " + std::to_string(kMergeEvery) +
                        " epochs";
  int64_t epoch = 0;
  int64_t flushes = 0;
  Tracer tracer(false);
  // Warm-up: one untimed array generation.
  RunRecord warm;
  for (int i = 0; i < kEpochsPerArray; ++i) {
    RunEpoch(w.get(), ++epoch, nullptr, &warm, &flushes);
  }
  const double tile_cells = static_cast<double>(kTile * kTile);
  if (!args.trace) {
    TimedLoop(args.seconds, 40, rec, [&](int) {
      if (epoch % kEpochsPerArray == 0) {
        // The next epoch starts a new array: start it in a new world.
        Unmeasured rebuild(rec);
        TimedSetups("ingest", kRebuildRounds, rec, &w, make);
      }
      RunEpoch(w.get(), ++epoch, &tracer, rec, &flushes);
    });
  } else {
    RunRecord plain;
    TimedLoop(args.seconds / 2, 40, &plain, [&](int) {
      RunEpoch(w.get(), ++epoch, &tracer, &plain, &flushes);
    });
    rec->layers["trace.ops_per_s_untraced"] =
        static_cast<double>(plain.latency_ms.size()) / plain.wall_s;
    flushes = 0;
    int64_t written = 0, logical = 0, read = 0;
    // Byte counters are per DiskArray; sum them across replacements.
    int generation = w->generation;
    auto s0 = w->disk->stats();
    const int64_t check0 = w->check_bytes_read;
    tracer.set_enabled(true);
    TimedLoop(args.seconds / 2, 40, rec, [&](int) {
      RunEpoch(w.get(), ++epoch, &tracer, rec, &flushes);
      if (w->generation != generation) {
        s0 = scidb::StorageStats{};
        generation = w->generation;
      }
      const auto s1 = w->disk->stats();
      written += s1.bytes_written - s0.bytes_written;
      logical += s1.bytes_logical - s0.bytes_logical;
      read += s1.bytes_read - s0.bytes_read;
      s0 = s1;
    });
    tracer.set_enabled(false);
    read -= w->check_bytes_read - check0;
    const double ops = static_cast<double>(rec->outcomes.size());
    rec->layers["storage.loader_flushes_per_op"] =
        static_cast<double>(flushes) / ops;
    rec->layers["storage.bytes_written_per_cell"] =
        static_cast<double>(written) / (ops * tile_cells);
    rec->layers["storage.compression_ratio"] =
        static_cast<double>(logical) / static_cast<double>(written);
    rec->layers["storage.bytes_read_per_op"] = static_cast<double>(read) / ops;
    rec->layers["storage.merge_ms"] = MeanSpan(tracer, "storage.merge", 1e6);
    ProbeInput in;
    in.array = &w->tiles[0];
    in.statements = {"select Subsample(Tiles1, t = 1)",
                     "select Aggregate(Subsample(Tiles1, t = 1), {}, "
                     "avg(flux))"};
    in.dir = w->dir->path();
    in.spans_out = args.out + ".spans.json";
    ProbeLayers(in, &tracer, rec);
    rec->Absorb(plain);
  }
  rec->Absorb(warm);
  rec->input_cells = tile_cells * static_cast<double>(rec->latency_ms.size());
  rec->stored_bytes_per_cell =
      static_cast<double>(w->disk->LiveBytes()) /
      (tile_cells * static_cast<double>((epoch - 1) % kEpochsPerArray + 1));
}

}  // namespace ssdb
