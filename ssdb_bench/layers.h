// Per-layer probes of the traced run. Each probe drives one layer's
// public functions on the workload's own input and records a span around
// every call; the metric is derived from those spans.
#ifndef SSDB_BENCH_LAYERS_H_
#define SSDB_BENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"

namespace ssdb {

struct ProbeInput {
  // 2-D array with one double attribute "flux"; one op's worth of input.
  const MemArray* array = nullptr;
  // The AQL form of the workload's op, for the parse/optimize probe.
  std::vector<std::string> statements;
  // Scratch directory for the storage probe.
  std::string dir;
  // Where the spans are written when the run ends.
  std::string spans_out;
};

// Runs the probes and fills every layer metric that the workload's own
// op loop did not already set in rec->layers. Count metrics of a layer
// that is not on the workload's path are 0. Each probe result that is
// checked counts as one attempted op of the run.
void ProbeLayers(const ProbeInput& in, Tracer* tracer, RunRecord* rec);

// Mean duration of the spans named `name`, in the given unit (1e3 = us).
double MeanSpan(const Tracer& t, const std::string& name, double ns_per_unit);

}  // namespace ssdb

#endif  // SSDB_BENCH_LAYERS_H_
