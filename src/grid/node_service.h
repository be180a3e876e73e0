#ifndef SCIDB_GRID_NODE_SERVICE_H_
#define SCIDB_GRID_NODE_SERVICE_H_

#include <cstdint>
#include <vector>

#include "array/mem_array.h"
#include "array/schema.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/trace.h"
#include "net/rpc.h"

namespace scidb {

class FunctionRegistry;

// Per-node accounting of the simulated shared-nothing grid. The paper
// reasons about load balance and data movement; these counters are what
// EXP-PART reports. Byte counts matter independently of cell counts:
// variable-width attributes make cell-balanced placements byte-skewed,
// and repartitioning cost is paid in bytes.
struct NodeStats {
  int64_t cells_stored = 0;
  int64_t bytes_stored = 0;   // shard residency at snapshot time
  int64_t cells_scanned = 0;
  int64_t bytes_scanned = 0;  // cumulative bytes visited by Parallel* ops
};

// One simulated grid node: the only owner of its shard and its counters,
// serving them through RPC handlers for the grid vocabulary (ChunkPut/
// ChunkGet/ScanShard/NodeStatsReq). The coordinator reaches this state
// only over the wire (paper §2.7: shared-nothing). The node is a plain
// store: which chunks it holds and which of them it serves is the
// coordinator's chunk directory's business (DESIGN.md §13), so a scan
// serves exactly the origins the request lists.
//
// Every handler is idempotent, which is what makes the RPC layer's
// retries and fault-injected duplicates safe: ChunkPut upserts cells
// (last-writer-wins); cells_stored is derived from the shard at snapshot
// time rather than incremented; the reads are pure. The observability handlers (MetricsGet/TraceGet,
// DESIGN.md §12) ride the same vocabulary: MetricsGet is a pure read;
// TraceGet *takes* spans, but a retried TraceGet simply returns the
// spans the lost reply carried plus any recorded since, which the stitch
// tolerates.
class GridNodeService {
 public:
  // `clock` stamps flight events.
  GridNodeService(int node, ArraySchema schema, TraceClock clock);

  // Installs this node's handlers on `server`.
  void Install(net::RpcServer* server);

  // Execution environment for server-side predicate evaluation
  // (ScanShard with a shipped predicate). In a real grid the function
  // registry is replicated to every node; here the coordinator installs
  // its registry before fanning out.
  void SetExecEnv(const FunctionRegistry* functions,
                  bool enable_chunk_pruning) LOCKS_EXCLUDED(mu_);

  // Read-only view of the shard for tests and benches. Unlocked: valid
  // only between grid operations, when no handler is running.
  const MemArray& shard() const NO_THREAD_SAFETY_ANALYSIS { return shard_; }

 private:
  Result<std::vector<uint8_t>> ChunkPut(const std::vector<uint8_t>& payload)
      LOCKS_EXCLUDED(mu_);
  Result<std::vector<uint8_t>> ChunkGet(const std::vector<uint8_t>& payload)
      LOCKS_EXCLUDED(mu_);
  Result<std::vector<uint8_t>> ScanShard(const std::vector<uint8_t>& payload)
      LOCKS_EXCLUDED(mu_);
  Result<std::vector<uint8_t>> NodeStatsReq(
      const std::vector<uint8_t>& payload) LOCKS_EXCLUDED(mu_);
  Result<std::vector<uint8_t>> MetricsGet(const std::vector<uint8_t>& payload)
      LOCKS_EXCLUDED(mu_);
  // Needs the owning server for TakeSpans, so Install's lambda passes it
  // back in rather than caching a server pointer here.
  Result<std::vector<uint8_t>> TraceGet(net::RpcServer* server,
                                        const std::vector<uint8_t>& payload);

  // The scan counters plus the residency derived from the shard now.
  NodeStats Stats() const EXCLUSIVE_LOCKS_REQUIRED(mu_);

  const int node_;
  const ArraySchema schema_;
  const TraceClock clock_;
  // Serializes handler execution for this node: a duplicated write frame
  // must not race a concurrent scan of the same shard.
  Mutex mu_;
  MemArray shard_ GUARDED_BY(mu_);
  // Only the scan counters live here; Stats() derives the stored ones.
  NodeStats stats_ GUARDED_BY(mu_);
  const FunctionRegistry* functions_ GUARDED_BY(mu_) = nullptr;
  bool enable_chunk_pruning_ GUARDED_BY(mu_) = true;
};

}  // namespace scidb

#endif  // SCIDB_GRID_NODE_SERVICE_H_
