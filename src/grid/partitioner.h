#ifndef SCIDB_GRID_PARTITIONER_H_
#define SCIDB_GRID_PARTITIONER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "array/coordinates.h"
#include "array/schema.h"
#include "common/result.h"

namespace scidb {

// Maps a chunk (by its origin) to a node of the shared-nothing grid
// (paper §2.7). `time` threads through so the adaptive time-split scheme
// can route by load epoch; stationary partitioners ignore it.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual const std::string& name() const = 0;
  virtual int num_nodes() const = 0;
  virtual int NodeFor(const Coordinates& chunk_origin, int64_t time) const = 0;

  // Two arrays partitioned by Equals()-equal partitioners are
  // co-partitioned: joins on the common coordinate system need no data
  // movement (paper: "the co-partitioning of multiple arrays with a
  // common co-ordinate system").
  [[nodiscard]] virtual bool Equals(const Partitioner& other) const = 0;
};

// Fixed spatial grid: the bounding box is cut into a `tiles[d]` grid per
// dimension; product(tiles) == num_nodes. The paper's choice for whole-sky
// surveys and satellite imagery.
class FixedGridPartitioner : public Partitioner {
 public:
  FixedGridPartitioner(Box domain, std::vector<int64_t> tiles);

  const std::string& name() const override { return name_; }
  int num_nodes() const override;
  int NodeFor(const Coordinates& origin, int64_t time) const override;
  bool Equals(const Partitioner& other) const override;

 private:
  std::string name_ = "fixed_grid";
  Box domain_;
  std::vector<int64_t> tiles_;
};

// Hash of the chunk origin — Gamma-style hash partitioning. Balances
// storage regardless of skew, at the price of destroying locality.
class HashPartitioner : public Partitioner {
 public:
  explicit HashPartitioner(int num_nodes);

  const std::string& name() const override { return name_; }
  int num_nodes() const override { return n_; }
  int NodeFor(const Coordinates& origin, int64_t time) const override;
  bool Equals(const Partitioner& other) const override;

 private:
  std::string name_ = "hash";
  int n_;
};

// Range partitioning along one dimension: node i owns origins with
// coordinate in [boundaries[i-1], boundaries[i]). Gamma-style range
// partitioning; the automatic designer emits these.
class RangePartitioner : public Partitioner {
 public:
  // `boundaries` has num_nodes - 1 ascending split points.
  RangePartitioner(size_t dim, std::vector<int64_t> boundaries);

  const std::string& name() const override { return name_; }
  int num_nodes() const override {
    return static_cast<int>(boundaries_.size()) + 1;
  }
  int NodeFor(const Coordinates& origin, int64_t time) const override;
  bool Equals(const Partitioner& other) const override;

  size_t dim() const { return dim_; }
  const std::vector<int64_t>& boundaries() const { return boundaries_; }

 private:
  std::string name_ = "range";
  size_t dim_;
  std::vector<int64_t> boundaries_;
};

// Adaptive, time-split partitioning (paper §2.7: "a first partitioning
// scheme is used for time less than T and a second partitioning scheme
// for time > T"). Epochs are (threshold, scheme) pairs; a chunk written at
// time t uses the first epoch whose threshold exceeds t.
class TimeSplitPartitioner : public Partitioner {
 public:
  struct Epoch {
    int64_t until;  // exclusive upper bound on time; INT64_MAX for last
    std::shared_ptr<const Partitioner> scheme;
  };
  explicit TimeSplitPartitioner(std::vector<Epoch> epochs);

  const std::string& name() const override { return name_; }
  int num_nodes() const override;
  int NodeFor(const Coordinates& origin, int64_t time) const override;
  bool Equals(const Partitioner& other) const override;

  size_t num_epochs() const { return epochs_.size(); }

 private:
  std::string name_ = "time_split";
  std::vector<Epoch> epochs_;
};

// k-way replica placement on top of any Partitioner (DESIGN.md §13).
//
// Every chunk has a *total preference order* over the nodes: the
// scheme's own NodeFor(origin, time) first (so k=1 placement is exactly
// the un-replicated grid), then every other node ranked by a
// rendezvous-style hash score of (origin, node), descending. The order
// is a pure function of (origin, time, node set size): it never depends
// on which nodes happen to be alive, so two coordinators with the same
// view compute the same placement, and a node's death permutes nothing —
// survivors keep their ranks (placement stability under node-set
// identity, the property grid_property_test pins down).
//
//   replicas   = first k entries of the order (k distinct nodes)
//   recovery   = re-replicate until the first k live entries hold a copy
//
// Which nodes actually hold a chunk, and so which one serves it (the
// first live holder), is recorded in the coordinator's chunk directory
// (DistributedArray), not recomputed from this order.
class ReplicaPlacement {
 public:
  // `replication` is clamped to [1, scheme->num_nodes()]: you cannot put
  // two copies of a chunk on one node and call it fault tolerance.
  ReplicaPlacement(std::shared_ptr<const Partitioner> scheme,
                   int replication);

  int replication() const { return k_; }
  int num_nodes() const { return scheme_->num_nodes(); }
  const Partitioner& scheme() const { return *scheme_; }

  // The chunk's primary: scheme placement, unchanged from k=1.
  int PrimaryFor(const Coordinates& origin, int64_t time) const {
    return scheme_->NodeFor(origin, time);
  }

  // Total preference order (primary first, then rendezvous ranks).
  std::vector<int> PreferenceOrder(const Coordinates& origin,
                                   int64_t time) const;

  // First min(k, n) entries of the preference order: where copies go at
  // load time (no dead nodes yet).
  std::vector<int> ReplicasFor(const Coordinates& origin, int64_t time) const;

  // First min(k, live) entries not in `dead`: where copies should live
  // given the current dead set — what recovery restores.
  std::vector<int> LiveReplicasFor(const Coordinates& origin, int64_t time,
                                   const std::set<int>& dead) const;

  [[nodiscard]] bool Equals(const ReplicaPlacement& other) const {
    return k_ == other.k_ && scheme_->Equals(*other.scheme_);
  }

 private:
  // Rendezvous score of placing `origin` on `node`: FNV-1a over the
  // origin coordinates and the node id, finished with an avalanche so
  // per-node ranks decorrelate even though chunk origins are congruent
  // modulo the chunk interval.
  static uint64_t Score(const Coordinates& origin, int node);

  std::shared_ptr<const Partitioner> scheme_;
  int k_;
};

}  // namespace scidb

#endif  // SCIDB_GRID_PARTITIONER_H_
