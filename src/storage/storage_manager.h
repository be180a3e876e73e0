#ifndef SCIDB_STORAGE_STORAGE_MANAGER_H_
#define SCIDB_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/array_source.h"
#include "array/mem_array.h"
#include "array/schema.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/chunk_cache.h"
#include "storage/codec.h"
#include "storage/rtree.h"

namespace scidb {

class ByteWriter;

// Storage statistics for EXP-CHUNK and the loader/merger benchmarks.
struct StorageStats {
  int64_t buckets_written = 0;
  int64_t buckets_read = 0;
  int64_t bytes_written = 0;
  int64_t bytes_read = 0;
  int64_t bytes_logical = 0;  // uncompressed payload bytes written
  int64_t merges = 0;
};

// One array persisted on disk as a sequence of compressed rectangular
// buckets (paper §2.8). Buckets are appended to `<name>.data`; the bucket
// table and schema live in `<name>.manifest`, rewritten on Flush(). An
// R-tree indexes bucket boxes for region reads and merge planning.
//
// The same layout packs into one self-describing file (the `.sdb` in-situ
// format, paper §2.9): the bucket payloads, then the manifest bytes, then
// a fixed trailer (u64 manifest offset, u32 magic). An array opened from
// such a file is read-only: its manifest cannot be rewritten in place.
//
// As an ArraySource, ReadRegion fetches only the buckets the R-tree finds
// in the box. With a pool, bucket read+decompress+decode runs
// chunk-parallel (one bucket per morsel); the copy into the output array
// stays single-threaded in bucket-id order, so overlapping buckets resolve
// last-writer-wins identically at every pool width (DESIGN.md §8).
// ReadAll is ReadRegion over the whole extent.
class DiskArray : public ArraySource {
 public:
  ~DiskArray() override;
  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  const ArraySchema& schema() const override { return schema_; }
  size_t bucket_count() const { return buckets_.size(); }
  // By value: parallel reads mutate the counters concurrently, so a
  // reference would race with the readers it is trying to observe.
  StorageStats stats() const LOCKS_EXCLUDED(stats_mu_) {
    MutexLock lk(stats_mu_);
    return stats_;
  }
  CodecType codec() const { return codec_; }
  void set_codec(CodecType c) { codec_ = c; }

  // Writes `array`'s chunks to `path` as a single-file array.
  static Status WriteSingleFile(const std::string& path,
                                const MemArray& array,
                                CodecType codec = CodecType::kLz);
  // Opens a file WriteSingleFile wrote; its buckets stay on disk.
  static Result<std::unique_ptr<DiskArray>> OpenSingleFile(
      const std::string& path);

  // Appends one bucket holding `chunk`'s cells.
  Status WriteBucket(const Chunk& chunk);

  // Persists every chunk of `array` as a bucket.
  Status WriteAll(const MemArray& array);

  // Single cell lookup (empty optional when absent): ReadRegion of the
  // one-cell box, so overlapping buckets resolve as in every other read.
  Result<std::optional<std::vector<Value>>> ReadCell(
      const Coordinates& c) const;

  // One merge pass (the paper's Vertica-style background combine): merges
  // box-adjacent bucket pairs whose payloads are both below
  // `small_bytes`. Returns the number of merges performed. Reclaims the
  // dead bytes by rewriting the data file when fragmentation exceeds 50%.
  Result<int> MergeSmallBuckets(int64_t small_bytes);

  // Rewrites the manifest (schema + bucket table). Called by the storage
  // manager on close; callers needing crash-consistency call it directly.
  // A read-only array has nothing to persist.
  Status Flush();

  // Total size on disk (data file bytes in live buckets).
  int64_t LiveBytes() const;

  // Enables an LRU cache of decompressed buckets (0 disables). Repeated
  // region reads then skip disk + decompression for resident buckets.
  void EnableCache(size_t byte_budget);
  const ChunkCache* cache() const { return cache_.get(); }

 protected:
  Result<MemArray> ReadBox(const Box& box, ThreadPool* pool) const override;

 private:
  friend class StorageManager;
  DiskArray() = default;

  struct BucketMeta {
    uint64_t id = 0;
    Box box;
    // Row-major ranks in `box` of the first and last present cells, known
    // when this process wrote the bucket (else the whole box). In memory
    // only: they let a merge skip reading a newer bucket that cannot hold
    // any of its source's cells.
    int64_t first_rank = 0;
    int64_t last_rank = INT64_MAX;
    uint64_t offset = 0;
    uint64_t size = 0;
    int64_t cells = 0;
  };

  bool read_only() const { return manifest_path_.empty(); }
  Status CheckWritable() const;
  Result<std::shared_ptr<const Chunk>> ReadBucket(const BucketMeta& meta)
      const;
  Status AppendPayload(const std::vector<uint8_t>& payload,
                       uint64_t* offset);
  Status AppendBucket(const Chunk& chunk);
  void EncodeManifest(ByteWriter* w) const;
  // Loads the manifest in `bytes`, checking every bucket against the
  // schema and against the `payload_end` bytes of payload on disk.
  Status DecodeManifest(const std::vector<uint8_t>& bytes,
                        uint64_t payload_end);
  Status LoadManifest();
  Status CompactDataFile();
  // (Re)opens data_path_ read-only into data_fd_: once the file exists,
  // and again after CompactDataFile renames a new file over it.
  Status OpenDataFile();

  // Single-writer state (DESIGN.md Â§7): the write path is exercised by
  // one thread at a time, and bucket metadata is never mutated while
  // reads are in flight, so none of this is under stats_mu_.
  ArraySchema schema_;      // NOLINT(lock-coverage): single-writer
  std::string data_path_;   // NOLINT(lock-coverage): single-writer
  // One read-only descriptor of data_path_ for every bucket read; pread
  // keeps no file position, so concurrent reads share it.
  int data_fd_ = -1;        // NOLINT(lock-coverage): single-writer
  // Empty for a single-file array, which makes it read-only.
  std::string manifest_path_;         // NOLINT(lock-coverage): single-writer
  CodecType codec_ = CodecType::kLz;  // NOLINT(lock-coverage): single-writer
  uint64_t next_id_ = 1;              // NOLINT(lock-coverage): single-writer
  uint64_t data_end_ = 0;  // append offset NOLINT(lock-coverage)
  std::map<uint64_t, BucketMeta> buckets_;  // NOLINT(lock-coverage)
  RTree<uint64_t> rtree_;                   // NOLINT(lock-coverage)
  // Guards only the stat counters; the cache synchronizes itself.
  mutable Mutex stats_mu_;
  mutable StorageStats stats_ GUARDED_BY(stats_mu_);
  mutable std::unique_ptr<ChunkCache> cache_;  // NOLINT(lock-coverage)
};

// Engine-wide storage: a directory of DiskArrays.
class StorageManager {
 public:
  explicit StorageManager(std::string dir);
  ~StorageManager();
  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  Result<DiskArray*> CreateArray(const ArraySchema& schema,
                                 CodecType codec = CodecType::kLz);
  Result<DiskArray*> OpenArray(const std::string& name);
  // Creates if missing, opens (from manifest) if present on disk.
  Result<DiskArray*> OpenOrCreateArray(const ArraySchema& schema,
                                       CodecType codec = CodecType::kLz);
  Status DropArray(const std::string& name);
  std::vector<std::string> ArrayNames() const;
  Status FlushAll();

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::map<std::string, std::unique_ptr<DiskArray>> arrays_;
};

// Streaming bulk loader (paper §2.8): cells arrive ordered by a dominant
// dimension (often time); they buffer in memory and flush to disk as
// rectangular buckets when the buffer exceeds `memory_budget` bytes.
class StreamLoader {
 public:
  StreamLoader(DiskArray* target, size_t memory_budget);

  Status Append(const Coordinates& c, const std::vector<Value>& values);
  // Flushes the residue; the loader is unusable afterwards.
  Status Finish();

  int64_t flushes() const { return flushes_; }

 private:
  Status FlushBuffer();

  DiskArray* target_;
  size_t memory_budget_;
  MemArray buffer_;
  int64_t flushes_ = 0;
  bool finished_ = false;
};

}  // namespace scidb

#endif  // SCIDB_STORAGE_STORAGE_MANAGER_H_
