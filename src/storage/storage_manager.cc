#include "storage/storage_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "array/schema_serde.h"
#include "common/byte_io.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "storage/chunk_serde.h"

namespace scidb {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kManifestMagic = 0x53434D46;  // "SCMF"
constexpr uint32_t kSingleFileMagic = 0x53444246;  // "SDBF"
constexpr uint64_t kTrailerBytes = 12;  // u64 manifest offset + u32 magic

// Process-wide storage metrics (naming per DESIGN.md §7), registered once.
struct StorageMetrics {
  Counter* buckets_written;
  Counter* buckets_read;
  Counter* bytes_written;
  Counter* bytes_read;
  Counter* bytes_logical;
  Histogram* bucket_read_latency_us;

  static const StorageMetrics& Get() {
    static auto* const m = new StorageMetrics{
        Metrics::Instance().counter("scidb.storage.buckets_written"),
        Metrics::Instance().counter("scidb.storage.buckets_read"),
        Metrics::Instance().counter("scidb.storage.bytes_written"),
        Metrics::Instance().counter("scidb.storage.bytes_read"),
        Metrics::Instance().counter("scidb.storage.bytes_logical"),
        Metrics::Instance().histogram(
            "scidb.storage.bucket_read_latency_us"),
    };
    return *m;
  }
};

// `size` bytes at `offset` of the open file `f` (named `path`).
Result<std::vector<uint8_t>> ReadRange(std::ifstream& f,
                                       const std::string& path,
                                       uint64_t offset, uint64_t size) {
  std::vector<uint8_t> bytes(size);
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(size));
  if (!f) return Status::IOError("short read from " + path);
  return bytes;
}

// `size` bytes at `offset` of the open descriptor `fd` (named `path`).
Result<std::vector<uint8_t>> PreadRange(int fd, const std::string& path,
                                        uint64_t offset, uint64_t size) {
  std::vector<uint8_t> bytes(size);
  uint64_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, bytes.data() + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError("short read from " + path);
    done += static_cast<uint64_t>(n);
  }
  return bytes;
}

// Writes `bytes` to `path`, opened with `mode` (append or truncate).
Status WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes,
                  std::ios::openmode mode) {
  std::ofstream f(path, std::ios::binary | mode);
  if (!f) return Status::IOError("cannot open " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- DiskArray

DiskArray::~DiskArray() {
  // Persist the manifest on teardown; never for a shell object that failed
  // to open (no schema), which must not overwrite or leave a manifest.
  // Destructors have no error channel, so a failed flush is reported to
  // stderr instead of silently discarded; callers needing a hard
  // guarantee call Flush() themselves and check the Status.
  if (schema_.ndims() > 0) {
    Status st = Flush();
    if (!st.ok()) {
      std::cerr << "WARN DiskArray::~DiskArray flush failed: "
                << st.ToString() << std::endl;
    }
  }
  if (data_fd_ >= 0) ::close(data_fd_);
}

Status DiskArray::OpenDataFile() {
  if (data_fd_ >= 0) ::close(data_fd_);
  data_fd_ = ::open(data_path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (data_fd_ < 0) return Status::IOError("cannot open " + data_path_);
  return Status::OK();
}

Status DiskArray::AppendPayload(const std::vector<uint8_t>& payload,
                                uint64_t* offset) {
  RETURN_NOT_OK(WriteBytes(data_path_, payload, std::ios::app));
  *offset = data_end_;
  data_end_ += payload.size();
  return Status::OK();
}

Status DiskArray::CheckWritable() const {
  if (!read_only()) return Status::OK();
  return Status::FailedPrecondition("array '" + schema_.name() +
                                    "' was opened read-only");
}

Status DiskArray::WriteBucket(const Chunk& chunk) {
  RETURN_NOT_OK(CheckWritable());
  return AppendBucket(chunk);
}

Status DiskArray::AppendBucket(const Chunk& chunk) {
  if (chunk.present_count() == 0) return Status::OK();  // nothing to store
  std::vector<uint8_t> raw = SerializeChunk(chunk);
  std::vector<uint8_t> payload = Compress(codec_, raw);
  uint64_t offset = 0;
  RETURN_NOT_OK(AppendPayload(payload, &offset));

  BucketMeta meta;
  meta.id = next_id_++;
  meta.box = chunk.box();
  const std::vector<uint8_t>& present = chunk.presence();
  auto is_set = [](uint8_t b) { return b != 0; };
  meta.first_rank =
      std::find_if(present.begin(), present.end(), is_set) - present.begin();
  meta.last_rank =
      present.rend() - std::find_if(present.rbegin(), present.rend(), is_set) -
      1;
  meta.offset = offset;
  meta.size = payload.size();
  meta.cells = chunk.present_count();
  rtree_.Insert(meta.box, meta.id);
  buckets_.emplace(meta.id, std::move(meta));

  {
    MutexLock lk(stats_mu_);
    ++stats_.buckets_written;
    stats_.bytes_written += static_cast<int64_t>(payload.size());
    stats_.bytes_logical += static_cast<int64_t>(raw.size());
  }
  const StorageMetrics& m = StorageMetrics::Get();
  m.buckets_written->Inc();
  m.bytes_written->Inc(static_cast<int64_t>(payload.size()));
  m.bytes_logical->Inc(static_cast<int64_t>(raw.size()));
  return Status::OK();
}

Status DiskArray::WriteAll(const MemArray& array) {
  if (!(array.schema() == schema_)) {
    return Status::Invalid("array schema does not match DiskArray '" +
                           schema_.name() + "'");
  }
  for (const auto& [origin, chunk] : array.chunks()) {
    RETURN_NOT_OK(WriteBucket(*chunk));
  }
  return Status::OK();
}

void DiskArray::EnableCache(size_t byte_budget) {
  if (byte_budget == 0) {
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<ChunkCache>(byte_budget);
}

Result<std::shared_ptr<const Chunk>> DiskArray::ReadBucket(
    const BucketMeta& meta) const {
  if (cache_ != nullptr) {
    if (auto hit = cache_->Get(meta.id); hit != nullptr) return hit;
  }
  uint64_t t0 = SteadyNowNs();
  if (data_fd_ < 0) return Status::IOError("cannot open " + data_path_);
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                   PreadRange(data_fd_, data_path_, meta.offset, meta.size));
  {
    MutexLock lk(stats_mu_);
    ++stats_.buckets_read;
    stats_.bytes_read += static_cast<int64_t>(meta.size);
  }
  const StorageMetrics& m = StorageMetrics::Get();
  m.buckets_read->Inc();
  m.bytes_read->Inc(static_cast<int64_t>(meta.size));
  m.bucket_read_latency_us->Record(
      static_cast<int64_t>((SteadyNowNs() - t0) / 1000));
  ASSIGN_OR_RETURN(
      std::vector<uint8_t> raw,
      Decompress(payload, MaxSerializedChunkBytes(meta.box, schema_.attrs())));
  ASSIGN_OR_RETURN(Chunk chunk, DeserializeChunk(raw, schema_.attrs()));
  auto shared = std::make_shared<const Chunk>(std::move(chunk));
  if (cache_ != nullptr) cache_->Put(meta.id, shared);
  return shared;
}

Result<MemArray> DiskArray::ReadBox(const Box& box, ThreadPool* pool) const {
  // Phase 1 (parallel when a pool is supplied): read + decompress +
  // deserialize every bucket the box touches into an id-ordered slot
  // vector. ReadBucket is safe concurrently — pread on the shared
  // descriptor keeps no file position, the stat counters are
  // mutex-guarded, and the cache synchronizes itself.
  std::vector<uint64_t> ids = rtree_.Search(box);
  std::sort(ids.begin(), ids.end());
  std::vector<const BucketMeta*> metas;
  metas.reserve(ids.size());
  for (uint64_t id : ids) {
    auto it = buckets_.find(id);
    if (it == buckets_.end()) {
      return Status::Internal("r-tree references missing bucket " +
                              std::to_string(id));
    }
    metas.push_back(&it->second);
  }
  std::vector<std::shared_ptr<const Chunk>> slots(metas.size());
  auto read_one = [&](int64_t i) -> Status {
    ASSIGN_OR_RETURN(slots[static_cast<size_t>(i)],
                     ReadBucket(*metas[static_cast<size_t>(i)]));
    return Status::OK();
  };
  // Phase 2 (always single-threaded): copy the cells inside the box in
  // bucket-id order, so a later bucket overwrites the cells it holds,
  // then drop the decoded bucket.
  MemArray out(schema_);
  auto copy_one = [&](int64_t i) -> Status {
    std::shared_ptr<const Chunk> chunk =
        std::move(slots[static_cast<size_t>(i)]);
    if (!chunk->box().Intersects(box)) return Status::OK();
    return CopyCells(*chunk, chunk->box().Intersect(box), &out);
  };
  const int64_t n = static_cast<int64_t>(metas.size());
  if (pool != nullptr) {
    RETURN_NOT_OK(pool->ParallelFor(n, read_one));
    for (int64_t i = 0; i < n; ++i) RETURN_NOT_OK(copy_one(i));
  } else {
    // Serially the phases interleave: one decoded bucket at a time.
    for (int64_t i = 0; i < n; ++i) {
      RETURN_NOT_OK(read_one(i));
      RETURN_NOT_OK(copy_one(i));
    }
  }
  return out;
}

Result<std::optional<std::vector<Value>>> DiskArray::ReadCell(
    const Coordinates& c) const {
  ASSIGN_OR_RETURN(MemArray cell, ReadRegion(Box(c, c)));
  return cell.GetCell(c);
}

Result<int> DiskArray::MergeSmallBuckets(int64_t small_bytes) {
  RETURN_NOT_OK(CheckWritable());
  // Plan: group small buckets into pairs that are box-adjacent along one
  // dimension and identical along the others ("combine buckets into
  // larger ones", §2.8).
  auto adjacent = [](const Box& a, const Box& b) -> int {
    int join_dim = -1;
    for (size_t d = 0; d < a.ndims(); ++d) {
      if (a.low[d] == b.low[d] && a.high[d] == b.high[d]) continue;
      if (join_dim >= 0) return -1;  // differs in two dims
      if (a.high[d] + 1 == b.low[d] || b.high[d] + 1 == a.low[d]) {
        join_dim = static_cast<int>(d);
      } else {
        return -1;
      }
    }
    return join_dim;
  };

  int merges = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    const BucketMeta* first = nullptr;
    const BucketMeta* second = nullptr;
    for (auto it = buckets_.begin(); it != buckets_.end() && !second; ++it) {
      if (static_cast<int64_t>(it->second.size) > small_bytes) continue;
      for (auto jt = std::next(it); jt != buckets_.end(); ++jt) {
        if (static_cast<int64_t>(jt->second.size) > small_bytes) continue;
        if (adjacent(it->second.box, jt->second.box) >= 0) {
          first = &it->second;
          second = &jt->second;
          break;
        }
      }
    }
    if (second == nullptr) break;

    const uint64_t id_a = first->id;
    const uint64_t id_b = second->id;
    // The merged bucket becomes the newest, so a cell that a bucket newer
    // than its source holds (other than the pair itself, which merges in
    // id order) is left out: it is shadowed, and carrying it would bring
    // the stale value back.
    auto newer_than = [&](const BucketMeta& src, const Chunk& chunk)
        -> Result<std::vector<std::shared_ptr<const Chunk>>> {
      std::vector<std::shared_ptr<const Chunk>> newer;
      for (auto it = buckets_.upper_bound(src.id); it != buckets_.end();
           ++it) {
        const BucketMeta& m = it->second;
        if (it->first == id_b || !m.box.Intersects(src.box)) continue;
        // Read it only if one of the source's cells lies between its
        // first and last present cells.
        bool may_hold = false;
        for (Chunk::CellIterator cell(chunk); cell.valid() && !may_hold;
             cell.Next()) {
          const Coordinates c = cell.coords();
          if (!m.box.Contains(c)) continue;
          const int64_t rank = RankInBox(m.box, c);
          may_hold = rank >= m.first_rank && rank <= m.last_rank;
        }
        if (!may_hold) continue;
        ASSIGN_OR_RETURN(std::shared_ptr<const Chunk> n, ReadBucket(m));
        newer.push_back(std::move(n));
      }
      return newer;
    };
    ASSIGN_OR_RETURN(std::shared_ptr<const Chunk> a, ReadBucket(*first));
    ASSIGN_OR_RETURN(std::shared_ptr<const Chunk> b, ReadBucket(*second));
    ASSIGN_OR_RETURN(auto newer_a, newer_than(*first, *a));
    ASSIGN_OR_RETURN(auto newer_b, newer_than(*second, *b));
    Box merged_box = a->box();
    merged_box.ExpandToInclude(b->box());
    Chunk merged(merged_box, schema_.attrs());
    for (const auto& [src, newer] : {std::pair{a.get(), &newer_a},
                                     std::pair{b.get(), &newer_b}}) {
      for (Chunk::CellIterator it(*src); it.valid(); it.Next()) {
        Coordinates c = it.coords();
        if (std::any_of(newer->begin(), newer->end(),
                        [&c](const std::shared_ptr<const Chunk>& n) {
                          return n->IsPresentAt(c);
                        })) {
          continue;
        }
        int64_t rank = RankInBox(merged_box, c);
        for (size_t at = 0; at < merged.nattrs(); ++at) {
          merged.block(at).CopyCell(src->block(at), it.rank(), rank);
        }
        merged.MarkPresent(rank);
      }
    }
    // A bucket the manifest knows about must be indexed; failure here
    // means the R-tree and bucket table have diverged (index corruption).
    SCIDB_CHECK(rtree_.Remove(first->box, id_a))
        << "bucket " << id_a << " missing from R-tree";
    SCIDB_CHECK(rtree_.Remove(second->box, id_b))
        << "bucket " << id_b << " missing from R-tree";
    buckets_.erase(id_a);
    buckets_.erase(id_b);
    if (cache_ != nullptr) {
      cache_->Invalidate(id_a);
      cache_->Invalidate(id_b);
    }
    RETURN_NOT_OK(WriteBucket(merged));
    ++merges;
    {
      MutexLock lk(stats_mu_);
      ++stats_.merges;
    }
    progress = true;
  }

  // Reclaim dead space when more than half the data file is garbage.
  int64_t live = LiveBytes();
  if (merges > 0 && data_end_ > 0 &&
      live * 2 < static_cast<int64_t>(data_end_)) {
    RETURN_NOT_OK(CompactDataFile());
  }
  if (merges > 0) RETURN_NOT_OK(Flush());
  return merges;
}

int64_t DiskArray::LiveBytes() const {
  int64_t live = 0;
  for (const auto& [id, meta] : buckets_) {
    live += static_cast<int64_t>(meta.size);
  }
  return live;
}

Status DiskArray::CompactDataFile() {
  std::string tmp = data_path_ + ".compact";
  {
    std::ifstream in(data_path_, std::ios::binary);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!in || !out) return Status::IOError("compaction open failed");
    uint64_t new_off = 0;
    for (auto& [id, meta] : buckets_) {
      std::vector<char> buf(meta.size);
      in.seekg(static_cast<std::streamoff>(meta.offset));
      in.read(buf.data(), static_cast<std::streamsize>(meta.size));
      if (!in) return Status::IOError("compaction read failed");
      out.write(buf.data(), static_cast<std::streamsize>(meta.size));
      if (!out) return Status::IOError("compaction write failed");
      meta.offset = new_off;
      new_off += meta.size;
    }
    data_end_ = new_off;
  }
  std::error_code ec;
  fs::rename(tmp, data_path_, ec);
  if (ec) return Status::IOError("compaction rename failed: " + ec.message());
  return OpenDataFile();
}

void DiskArray::EncodeManifest(ByteWriter* w) const {
  w->PutU32(kManifestMagic);
  EncodeSchema(schema_, w);
  w->PutU8(static_cast<uint8_t>(codec_));
  w->PutU64(next_id_);
  w->PutU64(data_end_);
  w->PutVarint(buckets_.size());
  for (const auto& [id, meta] : buckets_) {
    w->PutU64(meta.id);
    w->PutVarint(meta.box.ndims());
    for (size_t d = 0; d < meta.box.ndims(); ++d) {
      w->PutSignedVarint(meta.box.low[d]);
      w->PutSignedVarint(meta.box.high[d]);
    }
    w->PutU64(meta.offset);
    w->PutU64(meta.size);
    w->PutSignedVarint(meta.cells);
  }
}

Status DiskArray::DecodeManifest(const std::vector<uint8_t>& bytes,
                                 uint64_t payload_end) {
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kManifestMagic) return Status::Corruption("bad manifest");
  // schema_ is set last: a half-loaded array has none, so its destructor
  // leaves the manifest on disk as it was.
  ASSIGN_OR_RETURN(ArraySchema schema, DecodeSchema(&r));
  ASSIGN_OR_RETURN(uint8_t codec, r.GetU8());
  if (codec > static_cast<uint8_t>(CodecType::kLz)) {
    return Status::Corruption("manifest: unknown codec " +
                              std::to_string(codec));
  }
  codec_ = static_cast<CodecType>(codec);
  ASSIGN_OR_RETURN(next_id_, r.GetU64());
  ASSIGN_OR_RETURN(data_end_, r.GetU64());
  if (data_end_ > payload_end) {
    return Status::Corruption("manifest: payloads end past the data");
  }
  ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    BucketMeta meta;
    auto bad = [&](const char* why) {
      return Status::Corruption("manifest: bucket " + std::to_string(meta.id) +
                                why);
    };
    ASSIGN_OR_RETURN(meta.id, r.GetU64());
    if (meta.id >= next_id_ || buckets_.count(meta.id) != 0) {
      return bad(" has a bad id");
    }
    ASSIGN_OR_RETURN(uint64_t ndims, r.GetVarint());
    if (ndims != schema.ndims()) return bad(" has the wrong arity");
    meta.box.low.resize(ndims);
    meta.box.high.resize(ndims);
    for (uint64_t d = 0; d < ndims; ++d) {
      ASSIGN_OR_RETURN(meta.box.low[d], r.GetSignedVarint());
      ASSIGN_OR_RETURN(meta.box.high[d], r.GetSignedVarint());
      if (meta.box.low[d] > meta.box.high[d]) return bad(" has an empty box");
    }
    ASSIGN_OR_RETURN(meta.offset, r.GetU64());
    ASSIGN_OR_RETURN(meta.size, r.GetU64());
    if (meta.size > data_end_ || meta.offset > data_end_ - meta.size) {
      return bad(" lies past the payloads");
    }
    ASSIGN_OR_RETURN(meta.cells, r.GetSignedVarint());
    rtree_.Insert(meta.box, meta.id);
    buckets_.emplace(meta.id, std::move(meta));
  }
  if (r.remaining() != 0) return Status::Corruption("manifest: trailing bytes");
  schema_ = std::move(schema);
  return Status::OK();
}

Status DiskArray::Flush() {
  if (read_only()) return Status::OK();
  ByteWriter w;
  EncodeManifest(&w);
  const std::string tmp = manifest_path_ + ".tmp";
  RETURN_NOT_OK(WriteBytes(tmp, w.data(), std::ios::trunc));
  std::error_code ec;
  fs::rename(tmp, manifest_path_, ec);
  if (ec) return Status::IOError("manifest rename failed: " + ec.message());
  return Status::OK();
}

Status DiskArray::LoadManifest() {
  std::ifstream f(manifest_path_, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + manifest_path_);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  std::error_code ec;
  const uint64_t data_size = fs::file_size(data_path_, ec);
  if (ec) return Status::IOError("cannot stat " + data_path_);
  return DecodeManifest(bytes, data_size);
}

Status DiskArray::WriteSingleFile(const std::string& path,
                                  const MemArray& array, CodecType codec) {
  DiskArray out;  // no manifest file: payloads and manifest share `path`
  out.schema_ = array.schema();
  out.data_path_ = path;
  out.codec_ = codec;
  RETURN_NOT_OK(WriteBytes(path, {}, std::ios::trunc));
  for (const auto& [origin, chunk] : array.chunks()) {
    RETURN_NOT_OK(out.AppendBucket(*chunk));
  }
  ByteWriter w;
  out.EncodeManifest(&w);
  w.PutU64(out.data_end_);
  w.PutU32(kSingleFileMagic);
  return WriteBytes(path, w.data(), std::ios::app);
}

Result<std::unique_ptr<DiskArray>> DiskArray::OpenSingleFile(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  const std::streamoff end = f ? static_cast<std::streamoff>(f.tellg()) : -1;
  if (end < 0) return Status::IOError("cannot open " + path);
  const uint64_t file_size = static_cast<uint64_t>(end);
  const Status foreign = Status::Corruption(path + " is not a SciDB file");
  if (file_size < kTrailerBytes) return foreign;
  ASSIGN_OR_RETURN(std::vector<uint8_t> trailer,
                   ReadRange(f, path, file_size - kTrailerBytes,
                             kTrailerBytes));
  ByteReader r(trailer);
  ASSIGN_OR_RETURN(uint64_t manifest_offset, r.GetU64());
  ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kSingleFileMagic ||
      manifest_offset > file_size - kTrailerBytes) {
    return foreign;
  }
  ASSIGN_OR_RETURN(
      std::vector<uint8_t> manifest,
      ReadRange(f, path, manifest_offset,
                file_size - kTrailerBytes - manifest_offset));
  auto arr = std::unique_ptr<DiskArray>(new DiskArray());
  arr->data_path_ = path;
  RETURN_NOT_OK(arr->DecodeManifest(manifest, manifest_offset));
  RETURN_NOT_OK(arr->OpenDataFile());
  return arr;
}

// -------------------------------------------------------- StorageManager

StorageManager::StorageManager(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

StorageManager::~StorageManager() {
  // Same policy as ~DiskArray: report, don't drop.
  Status st = FlushAll();
  if (!st.ok()) {
    std::cerr << "WARN StorageManager::~StorageManager flush failed: "
              << st.ToString() << std::endl;
  }
}

Result<DiskArray*> StorageManager::CreateArray(const ArraySchema& schema,
                                               CodecType codec) {
  RETURN_NOT_OK(schema.Validate());
  if (arrays_.count(schema.name())) {
    return Status::AlreadyExists("array '" + schema.name() +
                                 "' already open");
  }
  // Checked before the DiskArray exists: its destructor would flush an
  // empty manifest over the one on disk.
  if (fs::exists(dir_ + "/" + schema.name() + ".manifest")) {
    return Status::AlreadyExists("array '" + schema.name() +
                                 "' exists on disk; use OpenArray");
  }
  auto arr = std::unique_ptr<DiskArray>(new DiskArray());
  arr->data_path_ = dir_ + "/" + schema.name() + ".data";
  // Truncate any stale data file. Opened before the schema is set, so a
  // failure leaves a shell that flushes no manifest.
  std::ofstream(arr->data_path_, std::ios::binary | std::ios::trunc);
  RETURN_NOT_OK(arr->OpenDataFile());
  arr->schema_ = schema;
  arr->manifest_path_ = dir_ + "/" + schema.name() + ".manifest";
  arr->codec_ = codec;
  DiskArray* ptr = arr.get();
  arrays_.emplace(schema.name(), std::move(arr));
  return ptr;
}

Result<DiskArray*> StorageManager::OpenArray(const std::string& name) {
  auto it = arrays_.find(name);
  if (it != arrays_.end()) return it->second.get();
  if (!fs::exists(dir_ + "/" + name + ".manifest")) {
    return Status::NotFound("no array '" + name + "' in " + dir_);
  }
  auto arr = std::unique_ptr<DiskArray>(new DiskArray());
  arr->data_path_ = dir_ + "/" + name + ".data";
  arr->manifest_path_ = dir_ + "/" + name + ".manifest";
  RETURN_NOT_OK(arr->LoadManifest());
  RETURN_NOT_OK(arr->OpenDataFile());
  DiskArray* ptr = arr.get();
  arrays_.emplace(name, std::move(arr));
  return ptr;
}

Result<DiskArray*> StorageManager::OpenOrCreateArray(
    const ArraySchema& schema, CodecType codec) {
  auto opened = OpenArray(schema.name());
  if (opened.ok()) return opened;
  return CreateArray(schema, codec);
}

Status StorageManager::DropArray(const std::string& name) {
  auto it = arrays_.find(name);
  std::string data = dir_ + "/" + name + ".data";
  std::string manifest = dir_ + "/" + name + ".manifest";
  if (it == arrays_.end() && !fs::exists(manifest)) {
    return Status::NotFound("no array '" + name + "'");
  }
  arrays_.erase(name);
  std::error_code ec;
  fs::remove(data, ec);
  fs::remove(manifest, ec);
  return Status::OK();
}

std::vector<std::string> StorageManager::ArrayNames() const {
  std::vector<std::string> names;
  for (const auto& [name, arr] : arrays_) names.push_back(name);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::string fn = entry.path().filename().string();
    const std::string suffix = ".manifest";
    if (fn.size() > suffix.size() &&
        fn.substr(fn.size() - suffix.size()) == suffix) {
      std::string name = fn.substr(0, fn.size() - suffix.size());
      if (!arrays_.count(name)) names.push_back(name);
    }
  }
  return names;
}

Status StorageManager::FlushAll() {
  for (auto& [name, arr] : arrays_) {
    RETURN_NOT_OK(arr->Flush());
  }
  return Status::OK();
}

// ---------------------------------------------------------- StreamLoader

StreamLoader::StreamLoader(DiskArray* target, size_t memory_budget)
    : target_(target), memory_budget_(memory_budget),
      buffer_(target->schema()) {}

Status StreamLoader::Append(const Coordinates& c,
                            const std::vector<Value>& values) {
  if (finished_) return Status::Invalid("loader already finished");
  RETURN_NOT_OK(buffer_.SetCell(c, values));
  if (buffer_.ByteSize() >= memory_budget_) {
    RETURN_NOT_OK(FlushBuffer());
  }
  return Status::OK();
}

Status StreamLoader::FlushBuffer() {
  if (buffer_.CellCount() == 0) return Status::OK();
  RETURN_NOT_OK(target_->WriteAll(buffer_));
  buffer_ = MemArray(target_->schema());
  ++flushes_;
  return Status::OK();
}

Status StreamLoader::Finish() {
  if (finished_) return Status::Invalid("loader already finished");
  finished_ = true;
  RETURN_NOT_OK(FlushBuffer());
  return target_->Flush();
}

}  // namespace scidb
