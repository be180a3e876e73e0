#include "common/metrics.h"

#include <cctype>
#include <sstream>

#include "common/macros.h"

namespace scidb {

namespace metrics_internal {
std::atomic<bool> g_enabled{true};
}  // namespace metrics_internal

// ------------------------------------------------------------- Histogram

int64_t Histogram::Percentile(double p) const {
  int64_t n = count();
  if (n <= 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the target sample, 1-based.
  int64_t rank = static_cast<int64_t>(p / 100.0 * static_cast<double>(n));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += bucket_count(i);
    if (seen >= rank) return BucketLowerBound(i);
  }
  return BucketLowerBound(kNumBuckets - 1);
}

// --------------------------------------------------------------- Metrics

Metrics& Metrics::Instance() {
  static auto* const instance = new Metrics();
  return *instance;
}

Counter* Metrics::counter(const std::string& name) {
  MutexLock lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* Metrics::gauge(const std::string& name) {
  MutexLock lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Metrics::histogram(const std::string& name) {
  MutexLock lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
  }
  return it->second.get();
}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lk(mu_);
  for (const auto& [name, c] : counters_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kCounter;
    e.value = c->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kGauge;
    e.value = g->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kHistogram;
    e.count = h->count();
    e.sum = h->sum();
    e.p50 = h->Percentile(50);
    e.p90 = h->Percentile(90);
    e.p99 = h->Percentile(99);
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      int64_t n = h->bucket_count(i);
      if (n != 0) e.buckets.push_back({Histogram::BucketLowerBound(i), n});
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

void Metrics::Reset() {
  MutexLock lk(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

// ------------------------------------------------------- MetricsSnapshot

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    const std::string& name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

namespace {

const char* KindName(MetricsSnapshot::Kind k) {
  switch (k) {
    case MetricsSnapshot::Kind::kCounter:
      return "counter";
    case MetricsSnapshot::Kind::kGauge:
      return "gauge";
    case MetricsSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

// Metric names are [a-z0-9._-] by convention, but escape defensively so
// the exporter can never emit invalid JSON.
void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

std::string SnapshotToText(const MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& e : snap.entries) {
    switch (e.kind) {
      case MetricsSnapshot::Kind::kCounter:
        out << e.name << " counter " << e.value << "\n";
        break;
      case MetricsSnapshot::Kind::kGauge:
        out << e.name << " gauge " << e.value << "\n";
        break;
      case MetricsSnapshot::Kind::kHistogram: {
        out << e.name << " histogram count=" << e.count << " sum=" << e.sum;
        double mean = e.count > 0
                          ? static_cast<double>(e.sum) /
                                static_cast<double>(e.count)
                          : 0.0;
        out << " mean=" << mean;
        out << " p50=" << e.p50 << " p90=" << e.p90 << " p99=" << e.p99;
        for (const auto& [low, n] : e.buckets) {
          out << " ge" << low << ":" << n;
        }
        out << "\n";
        break;
      }
    }
  }
  return out.str();
}

std::string SnapshotToJson(const MetricsSnapshot& snap) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& e : snap.entries) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonString(e.name, &out);
    out += ",\"kind\":\"";
    out += KindName(e.kind);
    out += "\"";
    if (e.kind == MetricsSnapshot::Kind::kHistogram) {
      out += ",\"count\":" + std::to_string(e.count);
      out += ",\"sum\":" + std::to_string(e.sum);
      out += ",\"p50\":" + std::to_string(e.p50);
      out += ",\"p90\":" + std::to_string(e.p90);
      out += ",\"p99\":" + std::to_string(e.p99);
      out += ",\"buckets\":[";
      bool bfirst = true;
      for (const auto& [low, n] : e.buckets) {
        if (!bfirst) out.push_back(',');
        bfirst = false;
        out.append("[").append(std::to_string(low)).append(",");
        out.append(std::to_string(n)).append("]");
      }
      out += "]";
    } else {
      out += ",\"value\":" + std::to_string(e.value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

// ----------------------------------------------- minimal JSON re-reader
// Parses exactly the subset SnapshotToJson emits (objects, arrays,
// strings with the escapes above, signed integers). Deliberately not a
// general JSON library: its only job is proving the export round-trips
// and letting scrapers/tests validate dumps without a dependency.

namespace {

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Accept(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Accept(c)) {
      return Status::Corruption("metrics json: expected '" +
                                std::string(1, c) + "' at offset " +
                                std::to_string(pos_));
    }
    return Status::OK();
  }

  Result<std::string> ParseString() {
    RETURN_NOT_OK(Expect('"'));
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char esc = s_[pos_++];
        switch (esc) {
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          default:
            out.push_back(esc);  // \" and \\ and anything else literal
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= s_.size()) {
      return Status::Corruption("metrics json: unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  Result<int64_t> ParseInt() {
    SkipWs();
    size_t start = pos_;
    bool neg = pos_ < s_.size() && s_[pos_] == '-';
    if (neg) ++pos_;
    // Manual accumulation: std::stoll throws on overflow, and exceptions
    // are banned in library code. Saturating is fine for telemetry.
    int64_t v = 0;
    bool any = false;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      any = true;
      int digit = s_[pos_] - '0';
      if (v > (INT64_MAX - digit) / 10) {
        v = INT64_MAX;
      } else {
        v = v * 10 + digit;
      }
      ++pos_;
    }
    if (!any) {
      return Status::Corruption("metrics json: expected integer at offset " +
                                std::to_string(start));
    }
    return neg ? -v : v;
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= s_.size();
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

Result<MetricsSnapshot::Entry> ParseEntry(JsonCursor* c) {
  MetricsSnapshot::Entry e;
  RETURN_NOT_OK(c->Expect('{'));
  bool first = true;
  while (!c->Accept('}')) {
    if (!first) RETURN_NOT_OK(c->Expect(','));
    first = false;
    ASSIGN_OR_RETURN(std::string key, c->ParseString());
    RETURN_NOT_OK(c->Expect(':'));
    if (key == "name") {
      ASSIGN_OR_RETURN(e.name, c->ParseString());
    } else if (key == "kind") {
      ASSIGN_OR_RETURN(std::string kind, c->ParseString());
      if (kind == "counter") {
        e.kind = MetricsSnapshot::Kind::kCounter;
      } else if (kind == "gauge") {
        e.kind = MetricsSnapshot::Kind::kGauge;
      } else if (kind == "histogram") {
        e.kind = MetricsSnapshot::Kind::kHistogram;
      } else {
        return Status::Corruption("metrics json: unknown kind '" + kind +
                                  "'");
      }
    } else if (key == "value") {
      ASSIGN_OR_RETURN(e.value, c->ParseInt());
    } else if (key == "count") {
      ASSIGN_OR_RETURN(e.count, c->ParseInt());
    } else if (key == "sum") {
      ASSIGN_OR_RETURN(e.sum, c->ParseInt());
    } else if (key == "p50") {
      ASSIGN_OR_RETURN(e.p50, c->ParseInt());
    } else if (key == "p90") {
      ASSIGN_OR_RETURN(e.p90, c->ParseInt());
    } else if (key == "p99") {
      ASSIGN_OR_RETURN(e.p99, c->ParseInt());
    } else if (key == "buckets") {
      RETURN_NOT_OK(c->Expect('['));
      bool bfirst = true;
      while (!c->Accept(']')) {
        if (!bfirst) RETURN_NOT_OK(c->Expect(','));
        bfirst = false;
        RETURN_NOT_OK(c->Expect('['));
        ASSIGN_OR_RETURN(int64_t low, c->ParseInt());
        RETURN_NOT_OK(c->Expect(','));
        ASSIGN_OR_RETURN(int64_t n, c->ParseInt());
        RETURN_NOT_OK(c->Expect(']'));
        e.buckets.push_back({low, n});
      }
    } else {
      return Status::Corruption("metrics json: unknown key '" + key + "'");
    }
  }
  if (e.name.empty()) {
    return Status::Corruption("metrics json: entry without a name");
  }
  return e;
}

}  // namespace

Result<MetricsSnapshot> SnapshotFromJson(const std::string& json) {
  JsonCursor c(json);
  MetricsSnapshot snap;
  RETURN_NOT_OK(c.Expect('{'));
  ASSIGN_OR_RETURN(std::string key, c.ParseString());
  if (key != "metrics") {
    return Status::Corruption("metrics json: expected top-level 'metrics'");
  }
  RETURN_NOT_OK(c.Expect(':'));
  RETURN_NOT_OK(c.Expect('['));
  bool first = true;
  while (!c.Accept(']')) {
    if (!first) RETURN_NOT_OK(c.Expect(','));
    first = false;
    ASSIGN_OR_RETURN(MetricsSnapshot::Entry e, ParseEntry(&c));
    snap.entries.push_back(std::move(e));
  }
  RETURN_NOT_OK(c.Expect('}'));
  if (!c.AtEnd()) {
    return Status::Corruption("metrics json: trailing input");
  }
  return snap;
}

}  // namespace scidb
