#include "cook/cooking.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/macros.h"
#include "exec/parallel.h"

namespace scidb {

Result<MemArray> Calibrate(const ExecContext& ctx, const MemArray& raw,
                           const std::string& attr, double gain,
                           double offset) {
  ASSIGN_OR_RETURN(size_t ai, raw.schema().AttrIndex(attr));
  (void)ai;
  return Apply(ctx, raw, attr + "_cal", DataType::kDouble,
               Add(Mul(Ref(attr), Lit(gain)), Lit(offset)));
}

Result<MemArray> Composite(const std::vector<const MemArray*>& passes,
                           const std::string& criterion_attr) {
  if (passes.empty()) {
    return Status::Invalid("Composite: need at least one pass");
  }
  const ArraySchema& schema = passes[0]->schema();
  for (const MemArray* p : passes) {
    if (p == nullptr) return Status::Invalid("Composite: null pass");
    if (!(p->schema() == schema)) {
      return Status::Invalid("Composite: pass schemas differ");
    }
  }
  ASSIGN_OR_RETURN(size_t crit, schema.AttrIndex(criterion_attr));

  MemArray out(schema);
  out.mutable_schema()->set_name(schema.name() + "_composite");

  // For each cell present in any pass, keep the tuple with the minimal
  // criterion. Passes are scanned in order; ties keep the earlier pass
  // (deterministic). A first sighting is kept even with a NULL criterion,
  // until a real one arrives.
  for (const MemArray* p : passes) {
    // Cooking runs outside a query: no cancel flag to poll.
    RETURN_NOT_OK(WalkCells(
        ExecContext{}, *p,
        [&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
          const Chunk* held = out.FindChunk(out.ChunkOriginFor(c));
          if (held != nullptr && held->IsPresentAt(c)) {
            const Value candidate = chunk.block(crit).Get(rank);
            const Value best =
                held->block(crit).Get(RankInBox(held->box(), c));
            // NULL criterion never wins over a real one.
            if (candidate.is_null()) return Status::OK();
            if (!best.is_null() && !candidate.LessThan(best)) {
              return Status::OK();
            }
          }
          return PutCell(c, chunk, rank, &out);
        }));
  }
  return out;
}

Result<std::vector<Detection>> DetectSources(const MemArray& image,
                                             const std::string& attr,
                                             double threshold) {
  if (image.schema().ndims() != 2) {
    return Status::Invalid("DetectSources expects a 2-D image");
  }
  ASSIGN_OR_RETURN(size_t ai, image.schema().AttrIndex(attr));

  // Collect above-threshold pixels.
  std::map<Coordinates, double> bright;
  image.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                        int64_t rank) {
    if (chunk.block(ai).IsNull(rank)) return true;
    double v = chunk.block(ai).GetDouble(rank);
    if (v > threshold) bright.emplace(c, v);
    return true;
  });

  // Connected components by BFS over 4-neighbours.
  std::vector<Detection> detections;
  std::set<Coordinates> visited;
  for (const auto& [seed, seed_v] : bright) {
    if (visited.count(seed)) continue;
    Detection det;
    det.peak = seed;
    det.peak_value = seed_v;
    det.bbox = Box(seed, seed);
    std::deque<Coordinates> frontier{seed};
    visited.insert(seed);
    while (!frontier.empty()) {
      Coordinates c = frontier.front();
      frontier.pop_front();
      double v = bright.at(c);
      det.total_flux += v;
      ++det.npix;
      det.bbox.ExpandToInclude(Box(c, c));
      if (v > det.peak_value) {
        det.peak_value = v;
        det.peak = c;
      }
      static constexpr int64_t kOffsets[4][2] = {
          {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
      for (const auto& off : kOffsets) {
        Coordinates n = {c[0] + off[0], c[1] + off[1]};
        if (visited.count(n) || !bright.count(n)) continue;
        visited.insert(n);
        frontier.push_back(n);
      }
    }
    detections.push_back(std::move(det));
  }
  std::sort(detections.begin(), detections.end(),
            [](const Detection& a, const Detection& b) {
              if (a.peak_value != b.peak_value) {
                return a.peak_value > b.peak_value;
              }
              return a.peak < b.peak;
            });
  return detections;
}

}  // namespace scidb
