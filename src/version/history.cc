#include "version/history.h"

#include "common/macros.h"

namespace scidb {

HistoryArray::HistoryArray(ArraySchema schema) : schema_(std::move(schema)) {
  schema_.set_updatable(true);
}

Result<int64_t> HistoryArray::Commit(const std::vector<CellUpdate>& updates,
                                     int64_t timestamp_micros) {
  if (updates.empty()) {
    return Status::Invalid("empty transaction");
  }
  if (clock_.recorded() > 0) {
    auto last = clock_.Forward({clock_.recorded()});
    if (last.ok() && timestamp_micros < last.value()[0].int64_value()) {
      return Status::Invalid("commit timestamps must be non-decreasing");
    }
  }
  Layer layer;
  layer.delta = MemArray(schema_);
  for (const CellUpdate& u : updates) {
    if (u.deleted) {
      if (!schema_.ContainsCoords(u.coords)) {
        return Status::OutOfRange("delete outside array bounds at " +
                                  CoordsToString(u.coords));
      }
      layer.deletions.insert(u.coords);
    } else {
      RETURN_NOT_OK(layer.delta.SetCell(u.coords, u.values));
      layer.deletions.erase(u.coords);  // set-after-delete within one txn
    }
  }
  layers_.push_back(std::move(layer));
  clock_.RecordTimestamp(timestamp_micros);
  return current_history();
}

std::optional<CellVersion> HistoryArray::FindLocal(const Coordinates& c,
                                                   int64_t history) const {
  int64_t h = std::min<int64_t>(history, current_history());
  for (; h >= 1; --h) {
    const Layer& layer = layers_[static_cast<size_t>(h - 1)];
    if (layer.deletions.count(c)) {
      return CellVersion{h, /*deleted=*/true, {}};
    }
    auto cell = layer.delta.GetCell(c);
    if (cell.has_value()) {
      return CellVersion{h, /*deleted=*/false, std::move(*cell)};
    }
  }
  return std::nullopt;
}

Result<std::optional<std::vector<Value>>> HistoryArray::GetCellAt(
    const Coordinates& c, int64_t history) const {
  if (history < 1 || history > current_history()) {
    return Status::OutOfRange("history index " + std::to_string(history) +
                              " outside [1, " +
                              std::to_string(current_history()) + "]");
  }
  auto found = FindLocal(c, history);
  if (!found.has_value() || found->deleted) {
    return std::optional<std::vector<Value>>(std::nullopt);
  }
  return std::optional<std::vector<Value>>(std::move(found->values));
}

std::optional<std::vector<Value>> HistoryArray::GetCellLatest(
    const Coordinates& c) const {
  if (current_history() == 0) return std::nullopt;
  auto r = GetCellAt(c, current_history());
  if (!r.ok()) return std::nullopt;
  return r.value();
}

Result<std::optional<std::vector<Value>>> HistoryArray::GetCellAsOf(
    const Coordinates& c, int64_t timestamp_micros) const {
  ASSIGN_OR_RETURN(Coordinates h,
                   clock_.Inverse({Value(timestamp_micros)}));
  return GetCellAt(c, h[0]);
}

std::vector<CellVersion> HistoryArray::CellHistory(
    const Coordinates& c) const {
  std::vector<CellVersion> out;
  for (int64_t h = 1; h <= current_history(); ++h) {
    const Layer& layer = layers_[static_cast<size_t>(h - 1)];
    if (layer.deletions.count(c)) {
      out.push_back(CellVersion{h, true, {}});
      continue;
    }
    auto cell = layer.delta.GetCell(c);
    if (cell.has_value()) {
      out.push_back(CellVersion{h, false, std::move(*cell)});
    }
  }
  return out;
}

Result<MemArray> HistoryArray::SnapshotAt(int64_t history) const {
  return SnapshotAt(history, schema_.DeclaredBox());
}

Result<MemArray> HistoryArray::SnapshotAt(int64_t history,
                                          const Box& box) const {
  if (history < 0 || history > current_history()) {
    return Status::OutOfRange("history index " + std::to_string(history) +
                              " outside [0, " +
                              std::to_string(current_history()) + "]");
  }
  if (box.ndims() != schema_.ndims()) {
    return Status::Invalid("region arity " + std::to_string(box.ndims()) +
                           " != ndims " + std::to_string(schema_.ndims()));
  }
  MemArray out(schema_);
  if (!box.empty()) RETURN_NOT_OK(Overlay(history, box, &out));
  return out;
}

Status HistoryArray::Overlay(int64_t history, const Box& region,
                             MemArray* out) const {
  // Oldest to newest, sets before deletion flags within each layer (a
  // delete-then-set transaction keeps the set: Commit() removed the
  // coordinate from the deletion list).
  for (int64_t h = 1; h <= history; ++h) {
    const Layer& layer = layers_[static_cast<size_t>(h - 1)];
    for (const auto& [origin, chunk] : layer.delta.chunks()) {
      if (!chunk->box().Intersects(region)) continue;
      RETURN_NOT_OK(CopyCells(*chunk, chunk->box().Intersect(region), out));
    }
    for (const Coordinates& c : layer.deletions) {
      if (!region.Contains(c)) continue;
      (void)out->DeleteCell(c);  // status-ignored: deleting a never-present
                                 // cell is a no-op at snapshot level
    }
  }
  return Status::OK();
}

size_t HistoryArray::ByteSize() const {
  size_t bytes = 0;
  for (const Layer& layer : layers_) {
    bytes += layer.delta.ByteSize();
    bytes += layer.deletions.size() * sizeof(Coordinates);
  }
  return bytes;
}

}  // namespace scidb
