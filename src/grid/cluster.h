#ifndef SCIDB_GRID_CLUSTER_H_
#define SCIDB_GRID_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "array/mem_array.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/operators.h"
#include "grid/node_service.h"
#include "grid/partitioner.h"
#include "net/fault_injection.h"
#include "net/rpc.h"

namespace scidb {

// How a DistributedArray's coordinator talks to its nodes (DESIGN.md
// §10). The default — in-process inline delivery, no faults, steady
// clock — is fully deterministic and thread-free, matching the old
// direct-call grid exactly.
struct GridNetOptions {
  enum class TransportKind {
    kInline,    // synchronous in-process delivery (deterministic)
    kThreaded,  // per-node delivery threads (models asynchrony)
    kTcp,       // real sockets on 127.0.0.1
  };
  TransportKind transport = TransportKind::kInline;

  // Nonzero seeds a FaultInjectingTransport wrapper (drops, dups,
  // delays, reorders at `fault_profile` rates); 0 = transparent
  // network.
  uint64_t fault_seed = 0;
  net::FaultProfile fault_profile = net::FaultProfile::Lossy();

  // Per-RPC deadline/retry budget for every grid call.
  net::CallOptions call;

  // Injectable time: tests drive deadlines from a VirtualTime pair so a
  // full partition consumes its deadline without real sleeping.
  TraceClock clock;    // null = SteadyNowNs
  net::SleepFn sleep;  // null = real condition-variable waits

  // k-way chunk replication (DESIGN.md §13): a new chunk is written to
  // the first k reachable nodes of its ReplicaPlacement preference order,
  // reads fail over to a surviving holder when one is unreachable, and
  // Recover() re-replicates a dead node's chunks onto survivors. 1 (the
  // default) keeps one copy of each chunk and runs no failure detector.
  // Clamped to [1, num_nodes()].
  int replication = 1;

  // Consecutive failed data-path RPCs to one node before the
  // coordinator declares it dead (triggers re-replication at the end of
  // the running operation). Only meaningful when replication > 1.
  int dead_after_failures = 3;
};

// One scrape of every node's metrics, pulled over MetricsGet RPCs
// (DESIGN.md §12). Each node contributes its snapshot plus a
// reachability flag; Labeled() merges them into one flat view whose
// entry names carry a "node<i>." prefix, which is what
// tools/metrics_dump --cluster prints.
struct ClusterMetrics {
  struct NodeMetrics {
    int node = -1;
    // False when the scrape RPC failed (partitioned / shut-down node);
    // `snapshot` is then empty rather than stale.
    bool reachable = false;
    MetricsSnapshot snapshot;
  };
  std::vector<NodeMetrics> nodes;

  // Flat merged view: every entry of every reachable node, renamed
  // "node<i>.<original name>", in node order.
  MetricsSnapshot Labeled() const;
  std::string ToText() const { return SnapshotToText(Labeled()); }
};

// An array horizontally partitioned across the nodes of a simulated grid
// (paper §2.7). Chunks are the unit of placement. The coordinator's chunk
// directory is the one placement record, at every replication factor: it
// pins each chunk's first-write epoch (hence its preference order and
// its slot, Partitioner::NodeFor(origin, epoch)) and lists the nodes
// that hold it.
//
// Shared-nothing by construction: each GridNodeService owns its node's
// shard and counters, and this coordinator is a plain RPC client of its
// nodes. Loads and cell writes are ChunkPut RPCs to the chunk's holders,
// every read (the parallel operators, Repartition, the co-located side
// of a join, boundary replication) is a ScanShard RPC naming the chunks
// the node is to serve, and node_stats() asks each node over the wire.
// The coordinator is registered on the transport as node id num_nodes().
class DistributedArray {
 public:
  DistributedArray(ArraySchema schema,
                   std::shared_ptr<const Partitioner> partitioner,
                   GridNetOptions net = {});
  ~DistributedArray();
  DistributedArray(const DistributedArray&) = delete;
  DistributedArray& operator=(const DistributedArray&) = delete;

  const ArraySchema& schema() const { return schema_; }
  const Partitioner& partitioner() const { return *partitioner_; }
  std::shared_ptr<const Partitioner> partitioner_ptr() const {
    return partitioner_;
  }
  int num_nodes() const { return partitioner_->num_nodes(); }
  // Node `node`'s shard, read straight from its store for tests and
  // benches. Valid only between operations; no method here uses it.
  const MemArray& shard(int node) const {
    return services_[static_cast<size_t>(node)]->shard();
  }

  // ---- replication & failover (DESIGN.md §13) ----

  // Effective replication factor (GridNetOptions::replication clamped).
  int replication() const { return placement_->replication(); }
  const ReplicaPlacement& placement() const { return *placement_; }

  // Nodes the coordinator has declared dead (dead_after_failures
  // consecutive data-path RPC failures). Snapshot copy.
  std::set<int> dead_nodes() const LOCKS_EXCLUDED(meta_mu_);

  // Re-replicates every chunk whose replica set lost nodes to the dead
  // set, copying from a surviving holder (ChunkGet) onto the first live
  // nodes of the chunk's preference order (ChunkPut). Returns the number
  // of chunk copies created. Runs automatically at the end of a parallel
  // operation that declared a node dead; callable explicitly too.
  // No-op at replication = 1 (there is nothing to copy from).
  Result<int64_t> Recover() LOCKS_EXCLUDED(meta_mu_);
  // Snapshot of the per-node counters, fetched from each node with a
  // NodeStatsReq RPC. A dead or unreachable node's entry is all zeros:
  // empty, not stale.
  std::vector<NodeStats> node_stats() const LOCKS_EXCLUDED(meta_mu_);

  // Loads every chunk of `source`, stamping the load epoch `time` (drives
  // the adaptive time-split scheme). One ChunkPut RPC per source chunk.
  Status Load(const MemArray& source, int64_t time);
  Status SetCell(const Coordinates& c, const std::vector<Value>& values,
                 int64_t time);

  // Sum of node_stats() cells_stored: counts every replica, and reads
  // an unreachable node as empty.
  int64_t TotalCells() const;

  // max(node cells) / mean(node cells) over node_stats() — 1.0 is perfect
  // balance, 0.0 for an empty array (no load, no imbalance). The skew
  // metric EXP-PART reports for fixed vs adaptive schemes.
  double LoadImbalance() const;

  // Same ratio measured in shard bytes instead of cells; diverges from
  // LoadImbalance() when attribute widths vary across the array.
  double LoadImbalanceBytes() const;

  // Re-partitions in place: gathers every slot's chunks over the wire
  // (failover applies), rebuilds the network for the new scheme (the
  // node count may change) and Loads the gathered array at `time`.
  // Returns the bytes that had to move: chunks whose new primary differs
  // from the slot they were read from.
  Result<int64_t> Repartition(std::shared_ptr<const Partitioner> to,
                              int64_t time);

  // ---- parallel execution (one RPC-fetching worker per node) ----

  // Grand or grouped aggregate executed as per-node partials merged at
  // the coordinator in node order, through the same GroupedAggregate core
  // as the local Aggregate. Shard contents travel to the workers as
  // ScanShard responses (data shipping: accumulator state has no wire
  // form).
  Result<MemArray> ParallelAggregate(const ExecContext& ctx,
                                     const std::vector<std::string>& dims,
                                     const std::string& agg,
                                     const std::string& attr);

  // Per-node Subsample with the predicate shipped to the serving node
  // (function shipping); results are unioned (subsample commutes with
  // partitioning).
  Result<MemArray> ParallelSubsample(const ExecContext& ctx,
                                     const ExprPtr& pred);

  // Structural join with another distributed array, whose slots are
  // fetched over the wire. When the two arrays are co-partitioned slot i
  // joins slot i and zero bytes move; otherwise `other`'s chunks are
  // routed to this array's scheme and the movement is reported in
  // *bytes_moved.
  Result<MemArray> ParallelSjoin(
      const ExecContext& ctx, const DistributedArray& other,
      const std::vector<std::pair<std::string, std::string>>& dim_pairs,
      int64_t* bytes_moved);

  // ---- uncertain-location replication (paper §2.13 / PanSTARRS) ----
  // Replicates every cell whose position may fall in a neighboring
  // partition (|coordinate - boundary| <= max_position_error along the
  // range dimension) into that neighbor, so uncertain spatial joins can
  // run without data movement. Only meaningful under a RangePartitioner.
  // Each node's cells are read with a ScanShard RPC, and replica
  // placement goes through ChunkPut like any other write.
  // Returns the number of replicated cells.
  Result<int64_t> ReplicateBoundaries(int64_t max_position_error);

  // ---- cluster-wide observability (DESIGN.md §12) ----

  // Pulls every node's metrics snapshot with a MetricsGet RPC. Node-local
  // gauges (cells/bytes stored and scanned) always travel; when
  // `include_process` is set the shared process-wide registry snapshot is
  // appended too (every simulated node shares one process, so those
  // entries repeat per node — exactly what a real per-process scrape of a
  // real grid would return). Unreachable nodes come back with
  // reachable=false instead of failing the scrape.
  ClusterMetrics ScrapeClusterMetrics(bool include_process = false) const;

  // Pulls node `node`'s view of the process flight recorder over a
  // TraceGet RPC (trace_id 0 = no spans, include_flight set). The remote
  // path tools/flight_dump --rpc exercises.
  Result<std::vector<FlightEvent>> FetchFlightEvents(int node) const;

  // ---- network introspection ----

  const GridNetOptions& net_options() const { return net_opts_; }
  // The fault wrapper, or null when fault injection is off. Tests use it
  // to partition nodes and read drop/dup counters.
  net::FaultInjectingTransport* fault_injector() { return fault_.get(); }

  // Attaches a trace node: each parallel operator adds a timed child
  // span under it (clock = GridNetOptions::clock), which is how
  // `explain analyze` surfaces network time. Null detaches.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

 private:
  // Builds the transport, the per-node services/servers, and the
  // coordinator client. Called on construction and after Repartition.
  void InitNet();
  void ShutdownNet();

  // One ChunkPut RPC: upserts `chunk`'s cells into node `dest`. An
  // active `ctx` rides on the request frame and yields client/server
  // spans for the stitch.
  Status PutChunk(int dest, const Chunk& chunk, const TraceContext& ctx = {});
  // Every chunk write, at every k: a fresh chunk is written to the first
  // k reachable nodes of its preference order at `time` (walking past
  // dead or unreachable candidates), and the directory records `time`
  // and those holders; an existing chunk is re-written to all of its
  // live holders, strictly, so copies never diverge.
  Status PlaceChunk(const Coordinates& origin, const Chunk& chunk,
                    int64_t time, const TraceContext& ctx = {})
      LOCKS_EXCLUDED(meta_mu_);
  // One ChunkGet RPC: fetches the chunk at `origin` from node `src`.
  Result<Chunk> GetChunk(int src, const Coordinates& origin) const;
  // One ScanShard RPC: node `node`'s chunks at `origins`, rebuilt into a
  // coordinator-side MemArray. `pred` filters server-side.
  Result<MemArray> FetchShard(int node,
                              const std::vector<Coordinates>& origins,
                              const ExprPtr& pred, const TraceContext& ctx,
                              const net::CallOptions& call) const;
  // The parallel operators' per-slot fetch: the directory's chunks whose
  // primary is `slot`, each asked of its first live holder (one
  // ScanShard per serving node). A holder failing mid-read is skipped
  // and its chunks re-asked of their next live holders, within what
  // remains of the call deadline; a chunk with no live holder fails the
  // read with Unavailable. Bumps scidb.grid.failover_reads and
  // `failovers` (the op's `failover` explain-analyze note) when a chunk
  // is served past a dead or failed holder.
  Result<MemArray> FetchSlot(int slot, const ExprPtr& pred,
                             const TraceContext& ctx,
                             std::atomic<int64_t>* failovers) const
      LOCKS_EXCLUDED(meta_mu_);

  // Failure-detection bookkeeping for one data-path RPC outcome.
  // Declares the node dead on the dead_after_failures'th consecutive
  // failure (flight-recorder kNodeDead + scidb.grid.nodes_declared_dead)
  // and remembers that a recovery pass is owed. No-op at k = 1: with one
  // copy there is no holder to fail over or recover to.
  void RecordCallResult(int node, bool ok) const LOCKS_EXCLUDED(meta_mu_);
  std::set<int> DeadSnapshot() const LOCKS_EXCLUDED(meta_mu_);
  // Runs Recover() if RecordCallResult declared a node dead since the
  // last pass. Called at the end of each parallel operation.
  void MaybeRecover();

  // Starts a distributed trace for one grid operation: fresh trace id
  // plus a root span the per-RPC client spans parent onto. Inactive
  // (all-zero) when no trace node is attached, which turns the whole
  // span machinery off.
  TraceContext BeginOpTrace() const;
  // Completes the distributed half of `explain analyze` for `ctx`:
  // drains the coordinator's client spans, fetches every node's server
  // spans with an (untraced) TraceGet RPC, and grafts a "node <i>"
  // sub-tree under `child` — rpc.* spans with their attempt/retry/wire
  // notes, each with the matching server.* handler span as a child.
  // No-op when `child` is null or `ctx` is inactive.
  void StitchOpTrace(TraceNode* child, const TraceContext& ctx) const;

  // Lazy fan-out pool (one worker per node); rebuilt when the node
  // count changes.
  ThreadPool* FanoutPool();
  // The parallel operators' scatter/gather, traced as `label`: fetches
  // every slot's partial on the fan-out pool (shipping `pred`; FetchSlot
  // fails over) and hands it to `per_slot` on that slot's worker, then
  // stitches the trace and runs any owed recovery. Fails with the
  // lowest failing slot's Status.
  Status FanOutSlots(
      const char* label, const ExprPtr& pred,
      const std::function<Status(size_t slot, MemArray partial)>& per_slot);

  // The coordinator's transport node id (one past the last grid node).
  int coordinator_id() const { return num_nodes(); }

  // Opens a timed child span under trace_node_, or null when detached.
  TraceNode* TraceChild(const char* label);

  // Topology: the partitioner is replaced only by Repartition, with no
  // parallel execution in flight, so it opts out of lock-coverage.
  const ArraySchema schema_;
  std::shared_ptr<const Partitioner>
      partitioner_;  // NOLINT(lock-coverage): coordinator-only

  // ---- replication metadata (DESIGN.md §13) ----
  // Rebuilt alongside partitioner_ on construction and Repartition.
  std::unique_ptr<ReplicaPlacement>
      placement_;  // NOLINT(lock-coverage): coordinator-only
  // Chunk directory, the one placement record: load epoch (sticky: the
  // first write's time, which pins the chunk's preference order and slot
  // forever) plus current holders, in preference order.
  struct ChunkMeta {
    int64_t time = 0;
    std::vector<int> holders;
  };
  mutable Mutex meta_mu_;
  mutable std::map<Coordinates, ChunkMeta> chunk_dir_ GUARDED_BY(meta_mu_);
  // Nodes declared dead + per-node consecutive data-path failures.
  mutable std::set<int> dead_ GUARDED_BY(meta_mu_);
  mutable std::vector<int> consec_fail_ GUARDED_BY(meta_mu_);
  // Set when RecordCallResult declares a death; cleared by Recover().
  mutable bool recover_pending_ GUARDED_BY(meta_mu_) = false;

  // ---- network stack (DESIGN.md §10) ----
  // Declaration order is teardown order in reverse: the client and
  // servers must die before the transports they point into.
  // The whole stack is wired once in the constructor and torn down in
  // the destructor; pointers are stable for the object's lifetime.
  GridNetOptions net_opts_;  // NOLINT(lock-coverage): ctor-wired
  // Resolved: net_opts_.clock or SteadyNowNs.
  TraceClock clock_;  // NOLINT(lock-coverage): ctor-wired
  std::unique_ptr<net::Transport>
      base_transport_;  // NOLINT(lock-coverage): ctor-wired
  std::unique_ptr<net::FaultInjectingTransport>
      fault_;  // NOLINT(lock-coverage): ctor-wired
  // fault_ wrapper when enabled.
  net::Transport* transport_ = nullptr;  // NOLINT(lock-coverage): ctor-wired
  std::vector<std::unique_ptr<GridNodeService>>
      services_;  // NOLINT(lock-coverage): ctor-wired
  std::vector<std::unique_ptr<net::RpcServer>>
      servers_;  // NOLINT(lock-coverage): ctor-wired
  // mutable: const reads (node_stats, FetchShard) issue RPCs.
  mutable std::unique_ptr<net::RpcClient>
      client_;  // NOLINT(lock-coverage): ctor-wired
  // Client-side rpc.* spans of traced calls; survives Repartition so an
  // in-flight trace is never torn down with the network.
  mutable SpanStore client_spans_;  // NOLINT(lock-coverage): internally synchronized
  std::unique_ptr<ThreadPool> pool_;  // NOLINT(lock-coverage): ctor-wired
  TraceNode* trace_node_ = nullptr;  // NOLINT(lock-coverage): set pre-exec
};

}  // namespace scidb

#endif  // SCIDB_GRID_CLUSTER_H_
