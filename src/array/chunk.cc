#include "array/chunk.h"

namespace scidb {

namespace {

// The converted value, or 0 for a value that does not convert.
template <typename T>
T OrZero(const Result<T>& r) {
  return r.ok() ? r.value() : T{0};
}

}  // namespace

AttributeBlock::AttributeBlock(DataType type, bool uncertain, int64_t cells)
    : type_(type), uncertain_(uncertain), cells_(cells) {
  nulls_.assign(static_cast<size_t>(cells), 1);  // cells start null
  size_t n = static_cast<size_t>(cells);
  switch (type_) {
    case DataType::kBool:
      bools_.assign(n, 0);
      break;
    case DataType::kInt64:
      i64_.assign(n, 0);
      break;
    case DataType::kFloat:
      f32_.assign(n, 0.0f);
      break;
    case DataType::kDouble:
      f64_.assign(n, 0.0);
      break;
    case DataType::kString:
      strs_.assign(n, std::string());
      break;
    case DataType::kArray:
      arrays_.assign(n, nullptr);
      break;
  }
}

void AttributeBlock::MaterializeStderr() {
  if (!stderr_is_const_) return;
  stderrs_.assign(static_cast<size_t>(cells_), const_stderr_);
  stderr_is_const_ = false;
}

void AttributeBlock::Set(int64_t idx, const Value& v) {
  size_t i = static_cast<size_t>(idx);
  if (v.is_null()) {
    nulls_[i] = 1;
    return;
  }
  nulls_[i] = 0;
  switch (type_) {
    case DataType::kBool:
      bools_[i] = OrZero(v.AsInt64()) != 0;  // a bool converts to 1 or 0
      break;
    case DataType::kInt64:
      i64_[i] = OrZero(v.AsInt64());
      break;
    case DataType::kFloat:
      f32_[i] = static_cast<float>(OrZero(v.AsDouble()));
      break;
    case DataType::kDouble:
      f64_[i] = OrZero(v.AsDouble());
      break;
    case DataType::kString:
      strs_[i] = v.is_string() ? v.string_value() : v.ToString();
      break;
    case DataType::kArray:
      // Anything but a nested array is stored as NULL, which is what
      // Get() reads back for it.
      if (!v.is_array() || v.array_value() == nullptr) {
        nulls_[i] = 1;
        return;
      }
      arrays_[i] = v.array_value();
      break;
  }
  if (uncertain_) {
    double s = v.is_uncertain() ? v.uncertain_value().stderr_ : 0.0;
    SetStderr(idx, s);
  }
}

Value AttributeBlock::Get(int64_t idx) const {
  size_t i = static_cast<size_t>(idx);
  if (nulls_[i]) return Value::Null();
  switch (type_) {
    case DataType::kBool:
      return Value(bools_[i] != 0);
    case DataType::kInt64:
      if (uncertain_) {
        return Value(Uncertain(static_cast<double>(i64_[i]), GetStderr(idx)));
      }
      return Value(i64_[i]);
    case DataType::kFloat:
      if (uncertain_) {
        return Value(Uncertain(static_cast<double>(f32_[i]), GetStderr(idx)));
      }
      return Value(static_cast<double>(f32_[i]));
    case DataType::kDouble:
      if (uncertain_) return Value(Uncertain(f64_[i], GetStderr(idx)));
      return Value(f64_[i]);
    case DataType::kString:
      return Value(strs_[i]);
    case DataType::kArray:
      return arrays_[i] ? Value(arrays_[i]) : Value::Null();
  }
  return Value::Null();
}

void AttributeBlock::CopyCell(const AttributeBlock& src, int64_t src_idx,
                              int64_t idx) {
  SCIDB_DCHECK(src.type_ == type_ && src.uncertain_ == uncertain_);
  const size_t s = static_cast<size_t>(src_idx);
  const size_t i = static_cast<size_t>(idx);
  // Get() reports a cell with no nested array as NULL.
  if (src.nulls_[s] || (type_ == DataType::kArray && !src.arrays_[s])) {
    nulls_[i] = 1;
    return;
  }
  nulls_[i] = 0;
  switch (type_) {
    case DataType::kBool:
      bools_[i] = src.bools_[s] != 0 ? 1 : 0;
      break;
    case DataType::kInt64:
      // An uncertain int64 reads back through its double mean.
      i64_[i] = uncertain_
                    ? static_cast<int64_t>(static_cast<double>(src.i64_[s]))
                    : src.i64_[s];
      break;
    case DataType::kFloat:
      f32_[i] = src.f32_[s];
      break;
    case DataType::kDouble:
      f64_[i] = src.f64_[s];
      break;
    case DataType::kString:
      strs_[i] = src.strs_[s];
      break;
    case DataType::kArray:
      arrays_[i] = src.arrays_[s];
      break;
  }
  if (uncertain_) {
    // Only numeric cells read back as Uncertain; Set() gives the others
    // a zero error bar.
    SetStderr(idx, IsNumeric(type_) ? src.GetStderr(src_idx) : 0.0);
  }
}

void AttributeBlock::SetDouble(int64_t i, double v) {
  SCIDB_DCHECK(type_ == DataType::kDouble);
  nulls_[static_cast<size_t>(i)] = 0;
  f64_[static_cast<size_t>(i)] = v;
}

double AttributeBlock::GetDouble(int64_t i) const {
  switch (type_) {
    case DataType::kDouble:
      return f64_[static_cast<size_t>(i)];
    case DataType::kFloat:
      return static_cast<double>(f32_[static_cast<size_t>(i)]);
    case DataType::kInt64:
      return static_cast<double>(i64_[static_cast<size_t>(i)]);
    case DataType::kBool:
    case DataType::kString:
    case DataType::kArray:
      // Non-numeric blocks have no double view; callers gate on type()
      // (and the kDouble-only setters DCHECK). Explicit cases so a new
      // DataType enumerator is a compile error here, not a silent 0.0.
      return 0.0;
  }
  return 0.0;
}

void AttributeBlock::SetInt64(int64_t i, int64_t v) {
  SCIDB_DCHECK(type_ == DataType::kInt64);
  nulls_[static_cast<size_t>(i)] = 0;
  i64_[static_cast<size_t>(i)] = v;
}

int64_t AttributeBlock::GetInt64(int64_t i) const {
  SCIDB_DCHECK(type_ == DataType::kInt64);
  return i64_[static_cast<size_t>(i)];
}

void AttributeBlock::SetStderr(int64_t i, double s) {
  if (stderr_is_const_) {
    if (!stderr_seen_) {
      // Adopt the first observed error bar as the shared constant.
      const_stderr_ = s;
      stderr_seen_ = true;
      return;
    }
    if (s == const_stderr_) return;
    // First deviating error bar: fall back to a full column.
    MaterializeStderr();
  }
  stderrs_[static_cast<size_t>(i)] = s;
}

void AttributeBlock::AssignStderrs(std::vector<double> per_cell) {
  SCIDB_DCHECK(per_cell.size() == nulls_.size());
  stderr_is_const_ = true;
  stderr_seen_ = false;
  const_stderr_ = 0.0;
  stderrs_.clear();
  for (size_t i = 0; i < per_cell.size(); ++i) {
    if (nulls_[i]) continue;
    if (!stderr_seen_) {
      const_stderr_ = per_cell[i];
      stderr_seen_ = true;
    } else if (!(per_cell[i] == const_stderr_)) {
      // A second error bar: keep the whole column. Null cells read the
      // first one, as MaterializeStderr() would leave them.
      for (size_t k = 0; k < per_cell.size(); ++k) {
        if (nulls_[k]) per_cell[k] = const_stderr_;
      }
      stderrs_ = std::move(per_cell);
      stderr_is_const_ = false;
      return;
    }
  }
}

double AttributeBlock::GetStderr(int64_t i) const {
  if (stderr_is_const_) return const_stderr_;
  return stderrs_[static_cast<size_t>(i)];
}

size_t AttributeBlock::ByteSize() const {
  size_t bytes = nulls_.size();
  bytes += bools_.size();
  bytes += i64_.size() * sizeof(int64_t);
  bytes += f32_.size() * sizeof(float);
  bytes += f64_.size() * sizeof(double);
  for (const auto& s : strs_) bytes += s.size() + sizeof(std::string);
  bytes += arrays_.size() * sizeof(void*);
  bytes += stderrs_.size() * sizeof(double);
  return bytes;
}

Chunk::Chunk(Box box, const std::vector<AttributeDesc>& attrs)
    : box_(std::move(box)) {
  int64_t cells = box_.CellCount();
  present_.assign(static_cast<size_t>(cells), 0);
  blocks_.reserve(attrs.size());
  for (const auto& a : attrs) {
    blocks_.emplace_back(a.type, a.uncertain, cells);
  }
}

void Chunk::MarkPresent(int64_t rank) {
  uint8_t& p = present_[static_cast<size_t>(rank)];
  if (!p) {
    p = 1;
    ++present_count_;
  }
}

void Chunk::AssignPresence(const uint8_t* flags) {
  // Locals, not members, in the loop: a byte store may alias a member.
  uint8_t* present = present_.data();
  const size_t cells = present_.size();
  int64_t count = 0;
  for (size_t i = 0; i < cells; ++i) {
    present[i] = flags[i] != 0;
    count += present[i];
  }
  present_count_ = count;
}

void Chunk::MarkAbsent(int64_t rank) {
  uint8_t& p = present_[static_cast<size_t>(rank)];
  if (p) {
    p = 0;
    --present_count_;
  }
}

void Chunk::SetCell(const Coordinates& c, const std::vector<Value>& values) {
  SCIDB_DCHECK(box_.Contains(c)) << "cell " << CoordsToString(c)
                                 << " outside chunk " << box_.ToString();
  SCIDB_DCHECK(values.size() == blocks_.size());
  int64_t rank = RankInBox(box_, c);
  for (size_t a = 0; a < blocks_.size(); ++a) {
    blocks_[a].Set(rank, values[a]);
  }
  MarkPresent(rank);
}

std::vector<Value> Chunk::GetCell(const Coordinates& c) const {
  std::vector<Value> out(blocks_.size());
  if (!box_.Contains(c)) return out;
  int64_t rank = RankInBox(box_, c);
  if (!IsPresent(rank)) return out;
  for (size_t a = 0; a < blocks_.size(); ++a) {
    out[a] = blocks_[a].Get(rank);
  }
  return out;
}

size_t Chunk::ByteSize() const {
  size_t bytes = present_.size();
  for (const auto& b : blocks_) bytes += b.ByteSize();
  return bytes;
}

}  // namespace scidb
