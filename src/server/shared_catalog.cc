#include "server/shared_catalog.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace scidb {
namespace server {

Status SharedCatalog::Define(ArraySchema schema) {
  RETURN_NOT_OK(schema.Validate());
  MutexLock lk(mu_);
  const std::string name = schema.name();
  if (entries_.count(name) > 0) {
    return Status::AlreadyExists("array already defined in shared catalog: " +
                                 name);
  }
  entries_.emplace(name, Entry(std::move(schema)));
  return Status::OK();
}

bool SharedCatalog::Has(const std::string& name) const {
  MutexLock lk(mu_);
  return entries_.count(name) > 0;
}

Result<int64_t> SharedCatalog::CommitCells(
    const std::string& name, const std::vector<CellUpdate>& updates) {
  MutexLock lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no shared array named " + name);
  }
  const int64_t next_epoch = epoch_ + 1;
  ASSIGN_OR_RETURN(int64_t history,
                   it->second.history.Commit(updates, next_epoch));
  (void)history;  // == commit_epochs.size() + 1 by construction
  epoch_ = next_epoch;
  it->second.commit_epochs.push_back(next_epoch);
  return next_epoch;
}

int64_t SharedCatalog::epoch() const {
  MutexLock lk(mu_);
  return epoch_;
}

Result<SharedCatalog::Cut> SharedCatalog::CutLocked(const std::string& name,
                                                    int64_t epoch) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no shared array named " + name);
  }
  // Largest history index whose commit epoch is <= `epoch`. The vector
  // is strictly increasing, so upper_bound lands one past the cut.
  const std::vector<int64_t>& epochs = it->second.commit_epochs;
  auto cut = std::upper_bound(epochs.begin(), epochs.end(), epoch);
  return Cut{&it->second.history, static_cast<int64_t>(cut - epochs.begin())};
}

Result<MemArray> SharedCatalog::SnapshotAt(const std::string& name,
                                           int64_t epoch) const {
  MutexLock lk(mu_);
  ASSIGN_OR_RETURN(Cut cut, CutLocked(name, epoch));
  return cut.history->SnapshotAt(cut.index);
}

Result<MemArray> SharedCatalog::SnapshotAt(const std::string& name,
                                           int64_t epoch,
                                           const Box& box) const {
  MutexLock lk(mu_);
  ASSIGN_OR_RETURN(Cut cut, CutLocked(name, epoch));
  return cut.history->SnapshotAt(cut.index, box);
}

namespace {

// A shared array pinned at one epoch. Immutable; every read takes the
// catalog lock, so concurrent sessions may read one source.
class SnapshotSource : public ArraySource {
 public:
  SnapshotSource(const SharedCatalog* catalog, ArraySchema schema,
                 int64_t epoch)
      : catalog_(catalog), schema_(std::move(schema)), epoch_(epoch) {}

  const ArraySchema& schema() const override { return schema_; }

 protected:
  Result<MemArray> ReadBox(const Box& box, ThreadPool* pool) const override {
    (void)pool;  // an in-memory overlay under the catalog lock
    return catalog_->SnapshotAt(schema_.name(), epoch_, box);
  }

 private:
  const SharedCatalog* catalog_;
  ArraySchema schema_;
  int64_t epoch_;
};

}  // namespace

Result<std::shared_ptr<const ArraySource>> SharedCatalog::Source(
    const std::string& name, int64_t epoch) const {
  MutexLock lk(mu_);
  ASSIGN_OR_RETURN(Cut cut, CutLocked(name, epoch));
  return std::shared_ptr<const ArraySource>(
      std::make_shared<SnapshotSource>(this, cut.history->schema(), epoch));
}

}  // namespace server
}  // namespace scidb
