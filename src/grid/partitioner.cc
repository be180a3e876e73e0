#include "grid/partitioner.h"

#include <algorithm>

#include "common/logging.h"

namespace scidb {

// ------------------------------------------------------------ FixedGrid

FixedGridPartitioner::FixedGridPartitioner(Box domain,
                                           std::vector<int64_t> tiles)
    : domain_(std::move(domain)), tiles_(std::move(tiles)) {
  SCIDB_CHECK(tiles_.size() == domain_.ndims());
  for (int64_t t : tiles_) SCIDB_CHECK(t >= 1);
}

int FixedGridPartitioner::num_nodes() const {
  int64_t n = 1;
  for (int64_t t : tiles_) n *= t;
  return static_cast<int>(n);
}

int FixedGridPartitioner::NodeFor(const Coordinates& origin,
                                  int64_t time) const {
  (void)time;
  int64_t node = 0;
  for (size_t d = 0; d < tiles_.size(); ++d) {
    // Unsigned arithmetic throughout: an unbounded ('*') dimension has
    // high == kUnboundedDim, where `extent + tiles - 1` and
    // `origin - low` overflow int64 (UB). The unsigned forms are exact
    // for every bounded domain, so bounded placement is unchanged.
    const uint64_t tiles = static_cast<uint64_t>(tiles_[d]);
    const uint64_t extent = static_cast<uint64_t>(domain_.high[d]) -
                            static_cast<uint64_t>(domain_.low[d]) + 1;
    uint64_t tile_size = extent / tiles + (extent % tiles != 0 ? 1 : 0);
    if (tile_size == 0) tile_size = 1;
    uint64_t off = origin[d] <= domain_.low[d]
                       ? 0
                       : static_cast<uint64_t>(origin[d]) -
                             static_cast<uint64_t>(domain_.low[d]);
    off = std::min(off, extent - 1);
    const uint64_t tile = std::min(off / tile_size, tiles - 1);
    node = node * tiles_[d] + static_cast<int64_t>(tile);
  }
  return static_cast<int>(node);
}

bool FixedGridPartitioner::Equals(const Partitioner& other) const {
  const auto* o = dynamic_cast<const FixedGridPartitioner*>(&other);
  return o != nullptr && o->domain_ == domain_ && o->tiles_ == tiles_;
}

// ----------------------------------------------------------------- Hash

HashPartitioner::HashPartitioner(int num_nodes) : n_(num_nodes) {
  SCIDB_CHECK(num_nodes >= 1);
}

int HashPartitioner::NodeFor(const Coordinates& origin, int64_t time) const {
  (void)time;
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (int64_t c : origin) {
    uint64_t x = static_cast<uint64_t>(c);
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (b * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  // FNV's low bits are weak (they only see the input mod 2^k, and chunk
  // origins are all congruent modulo the chunk interval); finish with a
  // murmur3-style avalanche before reducing.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return static_cast<int>(h % static_cast<uint64_t>(n_));
}

bool HashPartitioner::Equals(const Partitioner& other) const {
  const auto* o = dynamic_cast<const HashPartitioner*>(&other);
  return o != nullptr && o->n_ == n_;
}

// ---------------------------------------------------------------- Range

RangePartitioner::RangePartitioner(size_t dim,
                                   std::vector<int64_t> boundaries)
    : dim_(dim), boundaries_(std::move(boundaries)) {
  SCIDB_CHECK(std::is_sorted(boundaries_.begin(), boundaries_.end()));
}

int RangePartitioner::NodeFor(const Coordinates& origin,
                              int64_t time) const {
  (void)time;
  SCIDB_DCHECK(dim_ < origin.size());
  auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(),
                             origin[dim_]);
  return static_cast<int>(it - boundaries_.begin());
}

bool RangePartitioner::Equals(const Partitioner& other) const {
  const auto* o = dynamic_cast<const RangePartitioner*>(&other);
  return o != nullptr && o->dim_ == dim_ && o->boundaries_ == boundaries_;
}

// ------------------------------------------------------------ TimeSplit

TimeSplitPartitioner::TimeSplitPartitioner(std::vector<Epoch> epochs)
    : epochs_(std::move(epochs)) {
  SCIDB_CHECK(!epochs_.empty());
  for (size_t i = 1; i < epochs_.size(); ++i) {
    SCIDB_CHECK(epochs_[i].until > epochs_[i - 1].until);
  }
  for (const auto& e : epochs_) SCIDB_CHECK(e.scheme != nullptr);
}

int TimeSplitPartitioner::num_nodes() const {
  int n = 0;
  for (const auto& e : epochs_) n = std::max(n, e.scheme->num_nodes());
  return n;
}

int TimeSplitPartitioner::NodeFor(const Coordinates& origin,
                                  int64_t time) const {
  for (const auto& e : epochs_) {
    if (time < e.until) return e.scheme->NodeFor(origin, time);
  }
  return epochs_.back().scheme->NodeFor(origin, time);
}

bool TimeSplitPartitioner::Equals(const Partitioner& other) const {
  const auto* o = dynamic_cast<const TimeSplitPartitioner*>(&other);
  if (o == nullptr || o->epochs_.size() != epochs_.size()) return false;
  for (size_t i = 0; i < epochs_.size(); ++i) {
    if (o->epochs_[i].until != epochs_[i].until ||
        !o->epochs_[i].scheme->Equals(*epochs_[i].scheme)) {
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------- ReplicaPlacement

ReplicaPlacement::ReplicaPlacement(
    std::shared_ptr<const Partitioner> scheme, int replication)
    : scheme_(std::move(scheme)) {
  SCIDB_CHECK(scheme_ != nullptr);
  k_ = std::max(1, std::min(replication, scheme_->num_nodes()));
}

uint64_t ReplicaPlacement::Score(const Coordinates& origin, int node) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (b * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (int64_t c : origin) mix(static_cast<uint64_t>(c));
  mix(static_cast<uint64_t>(node));
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

std::vector<int> ReplicaPlacement::PreferenceOrder(const Coordinates& origin,
                                                   int64_t time) const {
  const int n = num_nodes();
  const int primary = scheme_->NodeFor(origin, time);
  std::vector<int> order;
  order.reserve(static_cast<size_t>(n));
  order.push_back(primary);
  std::vector<int> rest;
  rest.reserve(static_cast<size_t>(n) - 1);
  for (int node = 0; node < n; ++node) {
    if (node != primary) rest.push_back(node);
  }
  // Highest score first; ties (possible, if astronomically rare) break
  // on node id so the order is total and deterministic.
  std::sort(rest.begin(), rest.end(), [&origin](int a, int b) {
    uint64_t sa = Score(origin, a);
    uint64_t sb = Score(origin, b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

std::vector<int> ReplicaPlacement::ReplicasFor(const Coordinates& origin,
                                               int64_t time) const {
  std::vector<int> order = PreferenceOrder(origin, time);
  order.resize(static_cast<size_t>(std::min<int>(k_, num_nodes())));
  return order;
}

std::vector<int> ReplicaPlacement::LiveReplicasFor(
    const Coordinates& origin, int64_t time,
    const std::set<int>& dead) const {
  std::vector<int> out;
  for (int node : PreferenceOrder(origin, time)) {
    if (dead.count(node) != 0) continue;
    out.push_back(node);
    if (static_cast<int>(out.size()) == k_) break;
  }
  return out;
}

}  // namespace scidb
