#ifndef SCIDB_COMMON_TRACE_H_
#define SCIDB_COMMON_TRACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace scidb {

// Per-query tracing (DESIGN.md §7): `explain analyze` executes a query
// with one TraceNode per operator, each timed by an RAII TraceSpan. The
// clock source is injectable so tests can assert exact timings; the
// default is the monotonic steady clock.

// Nanoseconds from an arbitrary epoch, monotone non-decreasing.
using TraceClock = std::function<uint64_t()>;

// The default clock: std::chrono::steady_clock in nanoseconds.
uint64_t SteadyNowNs();

// One node of the annotated operator tree. `label` matches the plain
// `explain` plan line for the same operator so the two outputs are
// shape-comparable; `notes` carries per-operator measurements (cells
// visited, chunk-cache hits, ...) in insertion order.
struct TraceNode {
  std::string label;
  uint64_t wall_ns = 0;
  int64_t out_cells = -1;  // -1 = no array output (e.g. boolean Exists)
  std::vector<std::pair<std::string, double>> notes;
  std::vector<std::unique_ptr<TraceNode>> children;

  TraceNode* AddChild() {
    children.push_back(std::make_unique<TraceNode>());
    return children.back().get();
  }
  void AddNote(std::string key, double value) {
    notes.push_back({std::move(key), value});
  }
  const double* FindNote(const std::string& key) const {
    for (const auto& [k, v] : notes) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

// The full record of one traced statement: phase timings (parse ->
// optimize -> execute) plus the per-operator tree.
struct QueryTrace {
  std::string statement;
  uint64_t parse_ns = 0;
  uint64_t optimize_ns = 0;
  uint64_t execute_ns = 0;
  TraceNode root;

  // Renders the annotated tree ("explain analyze" output). When
  // `analyze` is false only the tree shape (labels + indentation) is
  // printed — identical to what plain `explain` shows.
  std::string ToString(bool analyze = true) const;
};

// RAII span: stamps `node->wall_ns` with the elapsed clock time on
// destruction; a null node (tracing off) reads no clock and records
// nothing. The clock reference must outlive the span.
class TraceSpan {
 public:
  TraceSpan(const TraceClock& clock, TraceNode* node)
      : clock_(&clock), node_(node),
        start_(node != nullptr ? (*clock_)() : 0) {}
  ~TraceSpan() {
    if (node_ != nullptr) node_->wall_ns = (*clock_)() - start_;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const TraceClock* clock_;
  TraceNode* node_;
  uint64_t start_;
};

// "1.234 ms" / "56.7 us" / "890 ns" — human-scaled duration.
std::string FormatDurationNs(uint64_t ns);

// ----- Distributed tracing (DESIGN.md §12) ---------------------------------
//
// A TraceContext names one query-scoped trace and one position in its span
// tree. It is carried on every RPC frame (net/frame encodes it as a 24-byte
// prefix of the payload region, gated by a header flag) so client-side RPC
// spans and server-side handler spans can be stitched back into a single
// QueryTrace tree after the query completes.

struct TraceContext {
  uint64_t trace_id = 0;        // 0 = not traced
  uint64_t span_id = 0;         // span that emitted the message
  uint64_t parent_span_id = 0;  // 0 = root span of the trace

  bool active() const { return trace_id != 0; }
};

// Process-unique, monotonically increasing ids. Never returns 0 (0 is the
// "absent" sentinel throughout).
uint64_t NextTraceId();
uint64_t NextSpanId();

// One finished span, as recorded by the RPC layer. `notes` mirrors
// TraceNode::notes so spans graft directly onto an explain-analyze tree.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  int32_t node = -1;  // transport node id that recorded the span
  std::string label;
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  std::vector<std::pair<std::string, double>> notes;

  void AddNote(std::string key, double value) {
    notes.push_back({std::move(key), value});
  }
  const double* FindNote(const std::string& key) const {
    for (const auto& [k, v] : notes) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

// Bounded, thread-safe store of finished spans. Each RpcServer owns one
// (server-side handler spans, fetched over the wire via TraceGet) and the
// coordinator owns one for client-side call spans. Oldest spans are dropped
// once `max_spans` is reached; `dropped()` exposes how many, so tests can
// assert nothing was lost.
class SpanStore {
 public:
  explicit SpanStore(size_t max_spans = 4096) : max_spans_(max_spans) {}
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  void Add(SpanRecord span);

  // Removes and returns every span of `trace_id`, in insertion order.
  std::vector<SpanRecord> Take(uint64_t trace_id);

  size_t size() const;
  int64_t dropped() const;

 private:
  mutable Mutex mu_{"SpanStore::mu_"};
  const size_t max_spans_;
  std::deque<SpanRecord> spans_ GUARDED_BY(mu_);
  int64_t dropped_ GUARDED_BY(mu_) = 0;
};

}  // namespace scidb

#endif  // SCIDB_COMMON_TRACE_H_
