#ifndef SCIDB_VERSION_NAMED_VERSION_H_
#define SCIDB_VERSION_NAMED_VERSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "version/history.h"

namespace scidb {

// Named versions (paper §2.11): hanging off a base array is a tree of
// versions, each stored as a delta off its parent. At creation a version
// is identical to its parent (and consumes essentially no space); reads
// walk the delta chain — "if there is no value in V, it will then look
// for the most recent value along the history dimension in A", repeating
// until the base array is reached.
class VersionTree {
 public:
  // The base array name is "" (reads with version "" address the base).
  explicit VersionTree(ArraySchema base_schema);

  HistoryArray& base() { return *base_; }
  const HistoryArray& base() const { return *base_; }

  // "At a specific time T, a user will be able to construct a version V
  //  from a base array A." parent = "" for the base. The creation time is
  //  pinned to the parent's current history index: later base commits are
  //  invisible to V (V diverged at T).
  Status CreateVersion(const std::string& name, const std::string& parent);

  [[nodiscard]] bool HasVersion(const std::string& name) const;
  std::vector<std::string> VersionNames() const;
  // Children of `parent` ("" = base) — the version tree structure.
  std::vector<std::string> ChildrenOf(const std::string& parent) const;

  // Commits a transaction against a version ("" = base).
  Result<int64_t> Commit(const std::string& version,
                         const std::vector<CellUpdate>& updates,
                         int64_t timestamp_micros);

  // Reads a cell from a version at its latest state, walking the chain
  // through parents to the base.
  Result<std::optional<std::vector<Value>>> GetCell(
      const std::string& version, const Coordinates& c) const;

  // Full state of a version (chain-collapsed).
  Result<MemArray> Snapshot(const std::string& version) const;

  // Space consumed by one version's own deltas (the paper's "essentially
  // no space" claim is measured on this in EXP-VER).
  Result<size_t> VersionByteSize(const std::string& version) const;

  // The delta store behind a version ("" = base) for layer-level
  // inspection (e.g. serialized-size accounting).
  Result<const HistoryArray*> VersionHistory(const std::string& version)
      const;

  // Collapses a version's chain into a materialized copy so reads stop
  // walking parents (the delta-vs-copy ablation of DESIGN.md §5).
  // The version keeps its identity; its parent link is cut.
  // FailedPrecondition, naming the child, while a non-materialized
  // version is pinned to this one: materialize children first.
  Status MaterializeVersion(const std::string& name);

  // Chain length from version to base (0 for the base itself).
  Result<int> ChainDepth(const std::string& version) const;

 private:
  struct NamedVersion {
    std::string name;
    std::string parent;     // "" = base
    int64_t parent_history; // parent state at creation time T
    std::unique_ptr<HistoryArray> deltas;
    bool materialized = false;
  };

  Result<const NamedVersion*> Find(const std::string& name) const;
  Result<NamedVersion*> Find(const std::string& name);
  Result<MemArray> SnapshotVersionAt(const NamedVersion& v,
                                     int64_t history) const;

  ArraySchema schema_;
  std::unique_ptr<HistoryArray> base_;
  std::map<std::string, NamedVersion> versions_;
};

}  // namespace scidb

#endif  // SCIDB_VERSION_NAMED_VERSION_H_
