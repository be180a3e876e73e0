#ifndef SCIDB_SERVER_SHARED_CATALOG_H_
#define SCIDB_SERVER_SHARED_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/array_source.h"
#include "array/mem_array.h"
#include "common/mutex.h"
#include "common/result.h"
#include "version/history.h"

namespace scidb {
namespace server {

// The server-wide catalog of updatable arrays shared across client
// sessions (DESIGN.md §15). Every array is a no-overwrite HistoryArray
// (paper §2.5), and every commit anywhere in the catalog advances one
// global epoch counter; the pair (array history index, commit epoch) is
// recorded per commit. A snapshot read at epoch E therefore sees, for
// each array, exactly the commits with epoch <= E — a consistent
// cross-array cut that never blocks writers, because old state is never
// overwritten (snapshot isolation for free, the reason the paper wants
// no-overwrite storage).
//
// All methods are thread-safe. Everything under the single mutex is
// compute-only (map lookups, delta-layer overlays) — no I/O, no RPC, no
// pool dispatch — so the lock is never held across a blocking call.
class SharedCatalog {
 public:
  // Registers a new updatable array. The schema's declared dimensions
  // are the logical (history-less) shape; the history dimension is
  // implicit in HistoryArray.
  Status Define(ArraySchema schema) LOCKS_EXCLUDED(mu_);

  bool Has(const std::string& name) const LOCKS_EXCLUDED(mu_);

  // Applies one transaction to `name` and advances the global epoch;
  // returns the new epoch. The epoch doubles as the commit timestamp of
  // the underlying HistoryArray (strictly increasing, so "as of time t"
  // addressing stays available).
  Result<int64_t> CommitCells(const std::string& name,
                              const std::vector<CellUpdate>& updates)
      LOCKS_EXCLUDED(mu_);

  // The current global epoch (0 before the first commit). A query pins
  // this once at execution start; every snapshot read inside the query
  // then uses the pinned value.
  int64_t epoch() const LOCKS_EXCLUDED(mu_);

  // Materializes the state of `name` as of global epoch `epoch`:
  // the overlay of exactly those commits with commit epoch <= epoch.
  Result<MemArray> SnapshotAt(const std::string& name, int64_t epoch) const
      LOCKS_EXCLUDED(mu_);
  // The same state restricted to the cells inside `box`: only the delta
  // chunks and deletions inside the box are overlaid.
  Result<MemArray> SnapshotAt(const std::string& name, int64_t epoch,
                              const Box& box) const LOCKS_EXCLUDED(mu_);

  // `name` pinned at global epoch `epoch` as an ArraySource whose
  // ReadRegion is SnapshotAt(name, epoch, box): the source the query
  // server resolves shared arrays to. NotFound for unknown names. The
  // catalog must outlive the source.
  Result<std::shared_ptr<const ArraySource>> Source(const std::string& name,
                                                    int64_t epoch) const
      LOCKS_EXCLUDED(mu_);

 private:
  struct Entry {
    explicit Entry(ArraySchema schema) : history(std::move(schema)) {}
    HistoryArray history;
    // commit_epochs[h-1] = global epoch of history index h; strictly
    // increasing, so the snapshot cut is a binary search.
    std::vector<int64_t> commit_epochs;
  };

  // The entry for `name` and its history index as of `epoch`.
  struct Cut {
    const HistoryArray* history;
    int64_t index;
  };
  Result<Cut> CutLocked(const std::string& name, int64_t epoch) const
      EXCLUSIVE_LOCKS_REQUIRED(mu_);

  mutable Mutex mu_{"server.catalog"};
  int64_t epoch_ GUARDED_BY(mu_) = 0;
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace scidb

#endif  // SCIDB_SERVER_SHARED_CATALOG_H_
