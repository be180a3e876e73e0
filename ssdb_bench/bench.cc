#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <sstream>

#include "common/metrics.h"
#include "common/rng.h"

namespace ssdb {

namespace {
thread_local std::vector<int64_t> t_open_spans;
}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CalibrationMs() {
  const uint64_t t0 = NowNs();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(NowNs() - t0) / 1e6;
}

Tracer::Scope::Scope(Tracer* t, const char* name) : tracer_(t) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  const int64_t parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  {
    std::lock_guard<std::mutex> lk(tracer_->mu_);
    id_ = static_cast<int64_t>(tracer_->spans_.size());
    tracer_->spans_.push_back(Span{name, NowNs(), 0, parent});
  }
  t_open_spans.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  const uint64_t end = NowNs();
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lk(tracer_->mu_);
  tracer_->spans_[static_cast<size_t>(id_)].end_ns = end;
}

void Tracer::Totals(const std::string& name, uint64_t* total_ns,
                    int64_t* count) const {
  std::lock_guard<std::mutex> lk(mu_);
  *total_ns = 0;
  *count = 0;
  for (const Span& s : spans_) {
    if (s.name != name || s.end_ns == 0) continue;
    *total_ns += s.end_ns - s.start_ns;
    ++*count;
  }
}

std::string Tracer::SpansJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << "}";
  }
  os << "]\n";
  return os.str();
}

scidb::ExecContext DirectContext() {
  static const scidb::FunctionRegistry* fns = new scidb::FunctionRegistry();
  static const scidb::AggregateRegistry* aggs =
      new scidb::AggregateRegistry();
  scidb::ExecContext ctx;
  ctx.functions = fns;
  ctx.aggregates = aggs;
  return ctx;
}

std::string Region::Aql() const {
  return "I >= " + std::to_string(i0) + " and I <= " + std::to_string(i1) +
         " and J >= " + std::to_string(j0) + " and J <= " + std::to_string(j1);
}

scidb::ExprPtr Region::Pred() const {
  using namespace scidb;
  return And(And(Ge(Ref("I"), Lit(i0)), Le(Ref("I"), Lit(i1))),
             And(Ge(Ref("J"), Lit(j0)), Le(Ref("J"), Lit(j1))));
}

namespace {

bool SameValue(const scidb::AttributeBlock& x, int64_t i,
               const scidb::AttributeBlock& y, int64_t j) {
  if (x.IsNull(i) != y.IsNull(j)) return false;
  if (x.IsNull(i)) return true;
  if (x.type() != y.type() || x.uncertain() != y.uncertain()) return false;
  if (x.type() == scidb::DataType::kDouble && !x.uncertain()) {
    return x.GetDouble(i) == y.GetDouble(j);
  }
  if (x.type() == scidb::DataType::kInt64) {
    return x.GetInt64(i) == y.GetInt64(j);
  }
  return x.Get(i).ToString() == y.Get(j).ToString();
}

}  // namespace

bool SameCells(const MemArray& a, const MemArray& b, std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (a.schema().dims().size() != b.schema().dims().size() ||
      a.schema().attrs().size() != b.schema().attrs().size()) {
    return fail("schema shape differs");
  }
  if (a.CellCount() != b.CellCount()) {
    return fail("cell count " + std::to_string(a.CellCount()) + " vs " +
                std::to_string(b.CellCount()));
  }
  // Equal counts, so checking every cell of `a` against `b` suffices.
  bool same = true;
  std::string msg;
  const scidb::Chunk* other = nullptr;
  scidb::Coordinates other_origin;
  a.ForEachCell([&](const scidb::Coordinates& c, const scidb::Chunk& chunk,
                    int64_t rank) {
    if (other == nullptr || !other->box().Contains(c)) {
      other_origin = b.ChunkOriginFor(c);
      other = b.FindChunk(other_origin);
    }
    if (other == nullptr || !other->IsPresentAt(c)) {
      same = false;
      msg = "cell missing on one side";
      return false;
    }
    const int64_t orank = scidb::RankInBox(other->box(), c);
    for (size_t at = 0; at < chunk.nattrs(); ++at) {
      if (!SameValue(chunk.block(at), rank, other->block(at), orank)) {
        same = false;
        msg = "attribute " + std::to_string(at) + " differs: " +
              chunk.block(at).Get(rank).ToString() + " vs " +
              other->block(at).Get(orank).ToString();
        return false;
      }
    }
    return true;
  });
  if (!same) return fail(msg);
  return true;
}

MemArray MakeSky(const std::string& name, int64_t n, int64_t chunk,
                 uint64_t seed) {
  scidb::ArraySchema schema(
      name, {{"I", 1, n, chunk}, {"J", 1, n, chunk}},
      {{"flux", scidb::DataType::kDouble, true, false}});
  MemArray a(schema);
  scidb::Rng rng(seed);
  struct Source {
    double x, y, amp, sigma;
  };
  std::vector<Source> srcs;
  const int sources = static_cast<int>(n * n / 2048) + 4;
  for (int s = 0; s < sources; ++s) {
    srcs.push_back({1 + rng.NextDouble() * static_cast<double>(n - 1),
                    1 + rng.NextDouble() * static_cast<double>(n - 1),
                    50 + rng.NextDouble() * 200, 1.0 + rng.NextDouble() * 2});
  }
  // Quantized to 1/64 so the LZ codec sees the repetition real
  // instrument counts have.
  for (int64_t i = 1; i <= n; ++i) {
    for (int64_t j = 1; j <= n; ++j) {
      double v = 10.0 + std::round(rng.NextGaussian() * 4) / 4;
      for (const Source& s : srcs) {
        const double dx = static_cast<double>(i) - s.x;
        const double dy = static_cast<double>(j) - s.y;
        const double d2 = dx * dx + dy * dy;
        if (d2 < 25 * s.sigma * s.sigma) {
          v += s.amp * std::exp(-d2 / (2 * s.sigma * s.sigma));
        }
      }
      v = std::round(v * 64) / 64;
      scidb::Status st = a.SetCell({i, j}, scidb::Value(v));
      if (!st.ok()) std::abort();
    }
  }
  return a;
}

int64_t CounterValue(const char* name) {
  const scidb::MetricsSnapshot snap = scidb::Metrics::Instance().Snapshot();
  const scidb::MetricsSnapshot::Entry* e = snap.find(name);
  return e != nullptr ? e->value : 0;
}

int64_t HistogramCount(const char* name) {
  const scidb::MetricsSnapshot snap = scidb::Metrics::Instance().Snapshot();
  const scidb::MetricsSnapshot::Entry* e = snap.find(name);
  return e != nullptr ? e->count : 0;
}

ScratchDir::ScratchDir(const std::string& tag) {
  path_ = (std::filesystem::current_path() / ".bench_build" / "tmp" /
           (tag + "-" + std::to_string(getpid())))
              .string();
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace ssdb
