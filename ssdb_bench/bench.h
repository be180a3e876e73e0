// Shared plumbing of the SS-DB benchmark runner: clocks, process
// counters, the in-memory span recorder, the per-run record, result
// comparison and the seeded input generators. See README.md in this
// directory for the workloads and the metric contract.
#ifndef SSDB_BENCH_BENCH_H_
#define SSDB_BENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "array/mem_array.h"
#include "exec/operators.h"

namespace ssdb {

using scidb::MemArray;

uint64_t NowNs();
uint64_t ProcessCpuNs();
double PeakRssMb();
// Wall time of a fixed integer loop: the machine-drift probe taken at
// the start and end of every run. Not a metric.
double CalibrationMs();

// ---- tracing ---------------------------------------------------------
// Spans recorded by the benchmark around its calls into each layer. A
// span's parent is the innermost open span of the same thread. Spans stay
// in memory until the run ends. A disabled tracer records nothing and
// costs one branch per scope.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t id_ = -1;
  };

  // Sum of durations (ns) and number of closed spans named `name`.
  void Totals(const std::string& name, uint64_t* total_ns,
              int64_t* count) const;
  std::string SpansJson() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- per-run record --------------------------------------------------
// Raw measurements handed to run.py, which reduces them to the metrics.
// outcome per op: 0 ok, 1 engine error, 2 wrong result.
struct RunRecord {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  // ops that succeeded
  std::vector<int> outcomes;
  double wall_s = 0;
  double cpu_s = 0;
  double unmeasured_wall_s = 0;  // see Unmeasured
  double unmeasured_cpu_s = 0;
  double input_cells = 0;  // input cells processed by counted ops
  double stored_bytes_per_cell = 0;
  std::vector<std::string> errors;  // first few failure messages
  std::map<std::string, double> layers;
  std::string input;  // what one op processes, for the diagnostics

  void Ok(double ms) {
    latency_ms.push_back(ms);
    outcomes.push_back(0);
  }
  void Fail(int outcome, const std::string& why) {
    outcomes.push_back(outcome);
    if (errors.size() < 5) errors.push_back(why);
  }
  // Counts the ops of an unreported phase (warm-up, the untraced half of
  // a traced run) as attempted here, so their failures fail the run.
  void Absorb(const RunRecord& other) {
    outcomes.insert(outcomes.end(), other.outcomes.begin(),
                    other.outcomes.end());
    for (const std::string& e : other.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

// ---- shared helpers --------------------------------------------------
scidb::ExecContext DirectContext();  // width 1, default registries

// A rectangle of the (I, J) plane, bounds inclusive, as the per-dimension
// predicate that Subsample takes: in AQL text and as an expression.
struct Region {
  int64_t i0, i1, j0, j1;
  std::string Aql() const;
  scidb::ExprPtr Pred() const;
};

// Exact comparison of dimensions, present cells and attribute values.
bool SameCells(const MemArray& a, const MemArray& b, std::string* why);

// Dense n x n sky image: smooth background, seeded noise and point
// sources. One double attribute "flux"; chunk x chunk chunks.
MemArray MakeSky(const std::string& name, int64_t n, int64_t chunk,
                 uint64_t seed);

// A counter's value and a histogram's sample count from a
// MetricsSnapshot; 0 when the metric was never registered.
int64_t CounterValue(const char* name);
int64_t HistogramCount(const char* name);

// Scratch directory inside the checkout's build tree, unique per
// process; removed by the returned guard.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Time spent in its scope is left out of TimedLoop's wall_s and cpu_s:
// the benchmark's own result checks and the set-up rounds it times
// between ops are not the ops' work.
class Unmeasured {
 public:
  explicit Unmeasured(RunRecord* rec)
      : rec_(rec), t0_(NowNs()), c0_(ProcessCpuNs()) {}
  ~Unmeasured() {
    rec_->unmeasured_wall_s += static_cast<double>(NowNs() - t0_) / 1e9;
    rec_->unmeasured_cpu_s += static_cast<double>(ProcessCpuNs() - c0_) / 1e9;
  }
  Unmeasured(const Unmeasured&) = delete;
  Unmeasured& operator=(const Unmeasured&) = delete;

 private:
  RunRecord* rec_;
  uint64_t t0_;
  uint64_t c0_;
};

// Set-up timing: `rounds` times, replaces `*w` by `make(path)`, a world
// built in a fresh scratch directory that is made before and removed
// after the timed span (the world takes ownership of it), and appends
// the time to rec->setup_s. The host's speed drifts over seconds, so the
// workloads also rebuild their world between ops, spreading the set-up
// samples over the whole run.
template <typename W, typename Make>
void TimedSetups(const std::string& tag, int rounds, RunRecord* rec,
                 std::unique_ptr<W>* w, Make&& make) {
  for (int r = 0; r < rounds; ++r) {
    w->reset();
    auto dir = std::make_unique<ScratchDir>(tag);
    const uint64_t t0 = NowNs();
    *w = make(dir->path());
    rec->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    (*w)->dir = std::move(dir);
  }
}

// Measurement loop: runs `op` until `seconds` of wall time elapse, at
// least `min_ops` times. Fills wall_s and cpu_s of `rec`, less the time
// spent in Unmeasured scopes on `rec`.
template <typename Op>
void TimedLoop(double seconds, int min_ops, RunRecord* rec, Op&& op) {
  const uint64_t t0 = NowNs();
  const uint64_t c0 = ProcessCpuNs();
  const double unmeasured_wall0 = rec->unmeasured_wall_s;
  const double unmeasured_cpu0 = rec->unmeasured_cpu_s;
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  for (int i = 0;; ++i) {
    if (i >= min_ops && NowNs() - t0 >= budget) break;
    op(i);
  }
  rec->wall_s = static_cast<double>(NowNs() - t0) / 1e9 -
                (rec->unmeasured_wall_s - unmeasured_wall0);
  rec->cpu_s = static_cast<double>(ProcessCpuNs() - c0) / 1e9 -
               (rec->unmeasured_cpu_s - unmeasured_cpu0);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;  // record file
};

// Workload entry points (one file each). A traced run also fills
// rec->layers via the layer probes in layers.cc.
void RunQuery(const Args& args, RunRecord* rec);
void RunIngest(const Args& args, RunRecord* rec);

}  // namespace ssdb

#endif  // SSDB_BENCH_BENCH_H_
