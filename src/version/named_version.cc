#include "version/named_version.h"

#include "common/macros.h"

namespace scidb {

VersionTree::VersionTree(ArraySchema base_schema)
    : schema_(std::move(base_schema)),
      base_(std::make_unique<HistoryArray>(schema_)) {}

Status VersionTree::CreateVersion(const std::string& name,
                                  const std::string& parent) {
  if (name.empty()) return Status::Invalid("version name must be non-empty");
  if (versions_.count(name)) {
    return Status::AlreadyExists("version '" + name + "' already exists");
  }
  int64_t parent_history = 0;
  if (parent.empty()) {
    parent_history = base_->current_history();
  } else {
    ASSIGN_OR_RETURN(const NamedVersion* p, Find(parent));
    parent_history = p->deltas->current_history();
  }
  NamedVersion v;
  v.name = name;
  v.parent = parent;
  v.parent_history = parent_history;
  v.deltas = std::make_unique<HistoryArray>(schema_);
  versions_.emplace(name, std::move(v));
  return Status::OK();
}

bool VersionTree::HasVersion(const std::string& name) const {
  return versions_.count(name) > 0;
}

std::vector<std::string> VersionTree::VersionNames() const {
  std::vector<std::string> out;
  for (const auto& [name, v] : versions_) out.push_back(name);
  return out;
}

std::vector<std::string> VersionTree::ChildrenOf(
    const std::string& parent) const {
  std::vector<std::string> out;
  for (const auto& [name, v] : versions_) {
    if (v.parent == parent) out.push_back(name);
  }
  return out;
}

Result<const VersionTree::NamedVersion*> VersionTree::Find(
    const std::string& name) const {
  auto it = versions_.find(name);
  if (it == versions_.end()) {
    return Status::NotFound("no version named '" + name + "'");
  }
  return &it->second;
}

Result<VersionTree::NamedVersion*> VersionTree::Find(
    const std::string& name) {
  auto it = versions_.find(name);
  if (it == versions_.end()) {
    return Status::NotFound("no version named '" + name + "'");
  }
  return &it->second;
}

Result<int64_t> VersionTree::Commit(const std::string& version,
                                    const std::vector<CellUpdate>& updates,
                                    int64_t timestamp_micros) {
  if (version.empty()) return base_->Commit(updates, timestamp_micros);
  ASSIGN_OR_RETURN(NamedVersion* v, Find(version));
  return v->deltas->Commit(updates, timestamp_micros);
}

Result<std::optional<std::vector<Value>>> VersionTree::GetCell(
    const std::string& version, const Coordinates& c) const {
  // Walk the chain: most recent local delta wins; a deletion flag hides
  // parent values; otherwise fall through to the parent at the pinned
  // creation history.
  const std::string* cur = &version;
  int64_t history_limit = -1;  // -1 = latest
  while (!cur->empty()) {
    ASSIGN_OR_RETURN(const NamedVersion* v, Find(*cur));
    int64_t h = history_limit >= 0 ? history_limit
                                   : v->deltas->current_history();
    auto found = v->deltas->FindLocal(c, h);
    if (found.has_value()) {
      if (found->deleted) {
        return std::optional<std::vector<Value>>(std::nullopt);
      }
      return std::optional<std::vector<Value>>(found->values);
    }
    if (v->materialized) {
      // Chain was cut: the version's deltas are the whole state.
      return std::optional<std::vector<Value>>(std::nullopt);
    }
    history_limit = v->parent_history;
    cur = &v->parent;
  }
  // Base array.
  int64_t h = history_limit >= 0 ? history_limit : base_->current_history();
  if (h == 0) return std::optional<std::vector<Value>>(std::nullopt);
  auto found = base_->FindLocal(c, h);
  if (!found.has_value() || found->deleted) {
    return std::optional<std::vector<Value>>(std::nullopt);
  }
  return std::optional<std::vector<Value>>(found->values);
}

Result<MemArray> VersionTree::SnapshotVersionAt(const NamedVersion& v,
                                                int64_t history) const {
  MemArray out(schema_);
  if (!v.materialized) {
    if (v.parent.empty()) {
      ASSIGN_OR_RETURN(out, base_->SnapshotAt(v.parent_history));
    } else {
      ASSIGN_OR_RETURN(const NamedVersion* p, Find(v.parent));
      ASSIGN_OR_RETURN(out, SnapshotVersionAt(*p, v.parent_history));
    }
  }
  RETURN_NOT_OK(v.deltas->Overlay(
      std::min<int64_t>(history, v.deltas->current_history()),
      schema_.DeclaredBox(), &out));
  return out;
}

Result<MemArray> VersionTree::Snapshot(const std::string& version) const {
  if (version.empty()) return base_->SnapshotLatest();
  ASSIGN_OR_RETURN(const NamedVersion* v, Find(version));
  return SnapshotVersionAt(*v, v->deltas->current_history());
}

Result<const HistoryArray*> VersionTree::VersionHistory(
    const std::string& version) const {
  if (version.empty()) return base_.get();
  ASSIGN_OR_RETURN(const NamedVersion* v, Find(version));
  return v->deltas.get();
}

Result<size_t> VersionTree::VersionByteSize(
    const std::string& version) const {
  if (version.empty()) return base_->ByteSize();
  ASSIGN_OR_RETURN(const NamedVersion* v, Find(version));
  return v->deltas->ByteSize();
}

Status VersionTree::MaterializeVersion(const std::string& name) {
  ASSIGN_OR_RETURN(NamedVersion* v, Find(name));
  if (v->materialized) return Status::OK();
  // A child reads this version's layers up to its pinned history; the
  // single collapsed layer would show it commits made after that pin.
  for (const auto& [child, c] : versions_) {
    if (c.parent == name) {
      return Status::FailedPrecondition(
          "version '" + name + "' is the pinned parent of version '" +
          child + "'; materialize '" + child + "' first");
    }
  }
  ASSIGN_OR_RETURN(MemArray full, Snapshot(name));
  // Rebuild the version as a single-layer materialized copy. Copying the
  // snapshot instead of installing it drops the chunks deletions emptied
  // and what blocks keep for cells that are gone (string payload, a
  // stderr column), so the layer is what one Commit of the present cells
  // builds, byte size included.
  auto fresh = std::make_unique<HistoryArray>(schema_);
  HistoryArray::Layer layer{MemArray(schema_), {}};
  for (const auto& [origin, chunk] : full.chunks()) {
    RETURN_NOT_OK(CopyCells(*chunk, chunk->box(), &layer.delta));
  }
  if (layer.delta.ChunkCount() > 0) {
    int64_t ts = 0;
    if (v->deltas->wall_clock().recorded() > 0) {
      auto t = v->deltas->wall_clock().Forward(
          {v->deltas->wall_clock().recorded()});
      if (t.ok()) ts = t.value()[0].int64_value();
    }
    fresh->layers_.push_back(std::move(layer));
    fresh->clock_.RecordTimestamp(ts);
  }
  v->deltas = std::move(fresh);
  v->materialized = true;
  v->parent.clear();
  v->parent_history = 0;
  return Status::OK();
}

Result<int> VersionTree::ChainDepth(const std::string& version) const {
  if (version.empty()) return 0;
  ASSIGN_OR_RETURN(const NamedVersion* v, Find(version));
  if (v->materialized) return 1;
  ASSIGN_OR_RETURN(int parent_depth, ChainDepth(v->parent));
  return parent_depth + 1;
}

}  // namespace scidb
