#ifndef SCIDB_NET_FAULT_INJECTION_H_
#define SCIDB_NET_FAULT_INJECTION_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "net/transport.h"

namespace scidb {
namespace net {

// Per-frame fault probabilities, applied independently in the order
// drop -> duplicate -> delay/reorder. All zero = transparent wrapper.
struct FaultProfile {
  double drop_p = 0.0;     // frame vanishes
  double dup_p = 0.0;      // frame delivered twice
  double delay_p = 0.0;    // frame held, delivered after later traffic
  double reorder_p = 0.0;  // like delay with a shorter hold (1 frame)

  // The rates the differential suite and GridNetOptions use: lossy
  // enough that retries demonstrably fire, mild enough that 4-6
  // attempts mask everything with a fixed seed.
  static FaultProfile Lossy() {
    FaultProfile p;
    p.drop_p = 0.05;
    p.dup_p = 0.05;
    p.delay_p = 0.10;
    p.reorder_p = 0.05;
    return p;
  }
};

// Wraps any Transport and misbehaves on purpose (DESIGN.md §10): frames
// are dropped, duplicated, delayed, reordered, or black-holed between
// partitioned nodes, driven by a seeded common/rng.h RNG so every run
// with the same seed misbehaves identically.
//
// Timer-free by construction: a delayed frame is not re-injected by a
// background clock but held in a queue and flushed by later Send
// traffic (each Send releases up to one held frame; a retry therefore
// flushes the delayed original). This keeps fault schedules a pure
// function of (seed, send sequence) — the property the differential
// suite relies on — and works identically under real and manual clocks.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(Transport* inner, FaultProfile profile,
                          uint64_t seed);

  Status Register(int node, FrameHandler handler) override;
  Status Send(int src, int dst, Frame frame) override LOCKS_EXCLUDED(mu_);
  void Shutdown() override;
  const char* name() const override { return "fault"; }

  // Severs `node` from the network: every frame to or from it is
  // silently dropped until HealPartition. Models a full partition —
  // callers observe Unavailable/DeadlineExceeded from the RPC layer,
  // never a hang.
  void PartitionNode(int node) LOCKS_EXCLUDED(mu_);
  void HealPartition(int node) LOCKS_EXCLUDED(mu_);

  // Seeded mid-query kill: partitions `node` the moment `after_sends`
  // more frames have entered Send (replies and fault-flushed frames
  // count — the counter ticks on the transport's serialized send
  // sequence, so a given (seed, schedule) kills at exactly the same
  // point in the frame stream every run). The `after_sends`-th frame
  // already finds the node dead. This is what the kill-a-node failover
  // harness uses to die mid-query deterministically.
  void KillNodeAfterSends(int node, int64_t after_sends)
      LOCKS_EXCLUDED(mu_);

  // Delivers every held (delayed/reordered) frame now, in hold order.
  // Called by tests to drain the queue at quiescence.
  Status Flush() LOCKS_EXCLUDED(mu_);

  int64_t frames_dropped() const LOCKS_EXCLUDED(mu_);
  int64_t frames_duplicated() const LOCKS_EXCLUDED(mu_);
  int64_t frames_held() const LOCKS_EXCLUDED(mu_);

 private:
  struct HeldFrame {
    int src;
    int dst;
    Frame frame;
  };

  Transport* const inner_;
  const FaultProfile profile_;

  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  std::set<int> partitioned_ GUARDED_BY(mu_);
  // (node, sends remaining) armed by KillNodeAfterSends.
  std::vector<std::pair<int, int64_t>> pending_kills_ GUARDED_BY(mu_);
  std::vector<HeldFrame> held_ GUARDED_BY(mu_);
  int64_t dropped_ GUARDED_BY(mu_) = 0;
  int64_t duplicated_ GUARDED_BY(mu_) = 0;
  int64_t total_held_ GUARDED_BY(mu_) = 0;
};

}  // namespace net
}  // namespace scidb

#endif  // SCIDB_NET_FAULT_INJECTION_H_
