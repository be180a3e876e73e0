// SS-DB benchmark runner. Runs one workload for a fixed time and writes
// its raw measurements as one JSON record; run.py turns the record into
// the metrics. Usage:
//
//   ssdb_bench --workload ssdb_query --seed 1 --seconds 10 --trace 0
//              --out record.json
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "layers.h"

namespace ssdb {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
std::string List(const std::vector<T>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += Num(static_cast<double>(v[i]));
  }
  return out + "]";
}

std::string ToJson(const Args& args, const RunRecord& r, double calib0,
                   double calib1, double rss) {
  std::ostringstream os;
  os << "{\"workload\":" << Quote(args.workload) << ",\"seed\":" << args.seed
     << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\n\"setup_s\":" << List(r.setup_s)
     << ",\n\"latency_ms\":" << List(r.latency_ms)
     << ",\n\"outcomes\":" << List(r.outcomes)
     << ",\n\"wall_s\":" << Num(r.wall_s) << ",\"cpu_s\":" << Num(r.cpu_s)
     << ",\"input_cells\":" << Num(r.input_cells)
     << ",\"stored_bytes_per_cell\":" << Num(r.stored_bytes_per_cell)
     << ",\"peak_rss_mb\":" << Num(rss)
     << ",\n\"drift\":{\"calib_start_ms\":" << Num(calib0)
     << ",\"calib_end_ms\":" << Num(calib1) << "}";
  os << ",\n\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? "," : "") << Quote(r.errors[i]);
  }
  os << "],\n\"input\":" << Quote(r.input) << ",\n\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : r.layers) {
    os << (first ? "" : ",\n") << Quote(k) << ":" << Num(v);
    first = false;
  }
  os << "}}\n";
  return os.str();
}

int Usage() {
  std::cerr << "usage: ssdb_bench --workload <ssdb_query|ssdb_ingest> "
               "--seed N --seconds S --trace 0|1 --out FILE\n";
  return 2;
}

}  // namespace
}  // namespace ssdb

int main(int argc, char** argv) {
  using namespace ssdb;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--out") {
      args.out = v;
    } else {
      return Usage();
    }
  }
  if (args.out.empty() || args.seconds <= 0) return Usage();

  const double calib0 = CalibrationMs();
  RunRecord rec;
  if (args.workload == "ssdb_query") {
    RunQuery(args, &rec);
  } else if (args.workload == "ssdb_ingest") {
    RunIngest(args, &rec);
  } else {
    return Usage();
  }
  const double rss = PeakRssMb();
  const double calib1 = CalibrationMs();
  if (args.trace) {
    const double traced =
        static_cast<double>(rec.latency_ms.size()) / rec.wall_s;
    const double plain = rec.layers["trace.ops_per_s_untraced"];
    rec.layers["trace.ops_per_s_traced"] = traced;
    rec.layers["trace.overhead_pct"] = (plain / traced - 1) * 100;
  }
  std::ofstream out(args.out);
  out << ToJson(args, rec, calib0, calib1, rss);
  out.close();
  if (!out) {
    std::cerr << "cannot write " << args.out << "\n";
    return 1;
  }
  return 0;
}
