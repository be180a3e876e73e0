// The grid over real sockets (DESIGN.md §10): distribute an array
// across a 4-node grid whose nodes talk TCP on 127.0.0.1, run a
// parallel aggregate, inject seeded network faults and show the result
// does not change, then partition a node and show the clean error.
//
//   $ ./build/examples/example_net_loopback
#include <cstdio>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "grid/cluster.h"
#include "grid/partitioner.h"

using namespace scidb;

namespace {

constexpr int64_t kSide = 64;
constexpr int64_t kChunk = 16;

ArraySchema SkySchema() {
  return ArraySchema("sky",
                     {{"ra", 1, kSide, kChunk}, {"dec", 1, kSide, kChunk}},
                     {{"flux", DataType::kDouble, true, false}});
}

MemArray MakeSky() {
  MemArray sky(SkySchema());
  Rng rng(TestSeed(7));
  for (int64_t i = 1; i <= kSide; ++i) {
    for (int64_t j = 1; j <= kSide; ++j) {
      Status st = sky.SetCell({i, j}, Value(rng.NextDouble() * 100.0));
      if (!st.ok()) std::abort();
    }
  }
  return sky;
}

double GrandSum(const ExecContext& ctx, DistributedArray* grid) {
  Result<MemArray> sum = grid->ParallelAggregate(ctx, {}, "sum", "flux");
  if (!sum.ok()) std::abort();
  return (*sum.value().GetCell({1}))[0].double_value();
}

}  // namespace

int main() {
  FunctionRegistry functions;
  AggregateRegistry aggregates;
  ExecContext ctx{&functions, &aggregates, true, nullptr};
  MemArray sky = MakeSky();
  auto quad = [] {
    return std::make_shared<FixedGridPartitioner>(
        Box({1, 1}, {kSide, kSide}), std::vector<int64_t>{2, 2});
  };

  // --- 1. a 2x2 grid over loopback TCP: every chunk travels through a
  //        real socket (frames, preambles, kernel buffers) ---
  GridNetOptions tcp;
  tcp.transport = GridNetOptions::TransportKind::kTcp;
  DistributedArray grid(SkySchema(), quad(), tcp);
  if (!grid.Load(sky, 0).ok()) std::abort();
  const double clean_sum = GrandSum(ctx, &grid);
  std::printf("tcp grid:    sum(flux) = %.6f over %lld cells\n", clean_sum,
              static_cast<long long>(grid.TotalCells()));

  // --- 2. the same workload through a seeded lossy network: drops,
  //        duplicates, delays, reorders — retries mask all of it, and
  //        the answer is bit-identical ---
  GridNetOptions lossy;
  lossy.transport = GridNetOptions::TransportKind::kInline;
  lossy.fault_seed = 11;  // seeds this grid's fault schedule
  // Some schedules drop one request many times in a row; give retries
  // room so the demo shows masking, not a (correct, clean) Unavailable.
  lossy.call.max_attempts = 20;
  DistributedArray faulty(SkySchema(), quad(), lossy);
  if (!faulty.Load(sky, 0).ok()) std::abort();
  const double faulty_sum = GrandSum(ctx, &faulty);
  std::printf("lossy grid:  sum(flux) = %.6f (%s; dropped=%lld dup=%lld)\n",
              faulty_sum,
              faulty_sum == clean_sum ? "bit-identical" : "MISMATCH",
              static_cast<long long>(faulty.fault_injector()->frames_dropped()),
              static_cast<long long>(
                  faulty.fault_injector()->frames_duplicated()));

  // --- 3. partition a node: calls fail cleanly within the deadline
  //        budget (never hang); healing restores service ---
  faulty.fault_injector()->PartitionNode(2);
  Result<MemArray> cut = faulty.ParallelAggregate(ctx, {}, "sum", "flux");
  std::printf("partitioned: %s\n", cut.ok()
                                       ? "unexpectedly succeeded"
                                       : cut.status().ToString().c_str());
  faulty.fault_injector()->HealPartition(2);
  std::printf("healed:      sum(flux) = %.6f\n", GrandSum(ctx, &faulty));

  // --- 4. what the wire did, from the process metrics registry ---
  Counter* frames = Metrics::Instance().counter("scidb.net.frames_sent");
  Counter* retries = Metrics::Instance().counter("scidb.net.retries");
  std::printf("wire:        %lld frames sent, %lld retries\n",
              static_cast<long long>(frames->value()),
              static_cast<long long>(retries->value()));
  return 0;
}
