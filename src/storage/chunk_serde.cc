#include "storage/chunk_serde.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/byte_io.h"
#include "common/macros.h"
#include "storage/codec.h"

namespace scidb {

namespace {
// v1 packs float, double and varying-stderr columns value by value; v2
// stores them as byte planes. Every chunk is written as v2.
constexpr uint32_t kChunkMagicV1 = 0x53434448;  // "SCDH"
constexpr uint32_t kChunkMagic = 0x53434450;    // "SCDP"

// The ranks one column's entries belong to, in order: `ranks`, or every
// rank 0..n-1 when `dense`, which lets a fixed-width column move in
// contiguous runs.
struct RankList {
  bool dense = true;
  size_t n = 0;
  std::vector<int64_t> ranks;

  size_t operator[](size_t i) const {
    return dense ? i : static_cast<size_t>(ranks[i]);
  }

  // Calls f(rank) with rank(i) giving entry i's rank: the identity when
  // dense, else a list lookup, so f's loops are compiled once for each.
  template <typename F>
  void WithRanks(F f) const {
    if (dense) {
      f([](size_t i) { return i; });
    } else {
      const int64_t* r = ranks.data();
      f([r](size_t i) { return static_cast<size_t>(r[i]); });
    }
  }

  // Calls f(i, rank) for every entry. The dense case is its own loop, so
  // the compiler can vectorize it. The bounds are locals and callers
  // capture raw pointers by value, because a byte store may alias any
  // object the loop would otherwise reload.
  template <typename F>
  void ForEach(F f) const {
    const size_t count = n;
    if (dense) {
      for (size_t i = 0; i < count; ++i) f(i, i);
    } else {
      const int64_t* r = ranks.data();
      for (size_t i = 0; i < count; ++i) f(i, static_cast<size_t>(r[i]));
    }
  }

  // The entries of `from` for which keep(i, rank) holds.
  template <typename Keep>
  static RankList Filter(const RankList& from, Keep keep) {
    RankList out;
    size_t kept = 0;
    from.ForEach([&](size_t i, size_t r) { kept += keep(i, r) ? 1 : 0; });
    out.n = kept;
    out.dense = from.dense && out.n == from.n;
    if (!out.dense) {
      out.ranks.reserve(out.n);
      from.ForEach([&](size_t i, size_t r) {
        if (keep(i, r)) out.ranks.push_back(static_cast<int64_t>(r));
      });
    }
    return out;
  }
};

// The byte-plane layout of a v2 float or double column of n entries:
// byte b of entry i is stored at b * n + i, so LZ sees the sign and
// exponent bytes, which repeat from cell to cell, as runs. Eight entries
// move per step as a byte transpose of W = sizeof(T) words, each holding
// 8 / W entries; the transpose is its own inverse, so encode and decode
// share it. Entries past the last multiple of 8 move one byte at a time.
template <typename T>
struct Planes {
  using U = std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t>;
  static constexpr size_t W = sizeof(T);

  // Word r holds entries r, r + W, ... of the block; afterwards word b
  // holds byte b of all eight entries, in order (and back again).
  static void Transpose(uint64_t* x) {
    auto swap = [x](size_t step, unsigned shift, uint64_t mask) {
#pragma GCC unroll 8
      for (size_t r = 0; r < W; ++r) {
        if ((r & step) != 0) continue;
        const uint64_t t = ((x[r] >> shift) ^ x[r + step]) & mask;
        x[r] ^= t << shift;
        x[r + step] ^= t;
      }
    };
    if constexpr (W == 8) swap(4, 32, 0x00000000FFFFFFFFull);
    swap(2, 16, 0x0000FFFF0000FFFFull);
    swap(1, 8, 0x00FF00FF00FF00FFull);
  }

  // Writes the entries of `col` at `cells` to `dst` as W planes.
  static void Put(const RankList& cells, const T* col, uint8_t* dst) {
    const size_t n = cells.n;
    cells.WithRanks([=](auto rank) {
      size_t i = 0;
      for (; i + 8 <= n; i += 8) {
        uint64_t x[W] = {};
#pragma GCC unroll 8
        for (size_t j = 0; j < 8; ++j) {
          U u;
          std::memcpy(&u, &col[rank(i + j)], W);
          x[j % W] |= uint64_t{u} << (8 * W * (j / W));
        }
        Transpose(x);
#pragma GCC unroll 8
        for (size_t b = 0; b < W; ++b) std::memcpy(dst + b * n + i, &x[b], 8);
      }
      for (; i < n; ++i) {
        const auto* v = reinterpret_cast<const uint8_t*>(&col[rank(i)]);
        for (size_t b = 0; b < W; ++b) dst[b * n + i] = v[b];
      }
    });
  }

  // Reads `cells.n` entries stored as W planes into `col` at `cells`.
  static Status Get(ByteReader* r, const RankList& cells, T* col) {
    const size_t n = cells.n;
    ASSIGN_OR_RETURN(const uint8_t* src, r->GetSpan(n * W));
    cells.WithRanks([=](auto rank) {
      size_t i = 0;
      for (; i + 8 <= n; i += 8) {
        uint64_t x[W];
#pragma GCC unroll 8
        for (size_t b = 0; b < W; ++b) std::memcpy(&x[b], src + b * n + i, 8);
        Transpose(x);
#pragma GCC unroll 8
        for (size_t j = 0; j < 8; ++j) {
          const U u = static_cast<U>(x[j % W] >> (8 * W * (j / W)));
          std::memcpy(&col[rank(i + j)], &u, W);
        }
      }
      for (; i < n; ++i) {
        auto* v = reinterpret_cast<uint8_t*>(&col[rank(i)]);
        for (size_t b = 0; b < W; ++b) v[b] = src[b * n + i];
      }
    });
    return Status::OK();
  }
};

// Reads `cells.n` T values into the column entries at `cells`: packed
// (v1), or as byte planes when `planes` (v2).
template <typename T>
Status Scatter(ByteReader* r, const RankList& cells, T* col, bool planes) {
  if (planes) return Planes<T>::Get(r, cells, col);
  ASSIGN_OR_RETURN(const uint8_t* src, r->GetSpan(cells.n * sizeof(T)));
  if (cells.n == 0) return Status::OK();
  if (cells.dense) {
    std::memcpy(col, src, cells.n * sizeof(T));
    return Status::OK();
  }
  for (size_t i = 0; i < cells.n; ++i) {
    std::memcpy(&col[cells.ranks[i]], src + i * sizeof(T), sizeof(T));
  }
  return Status::OK();
}

// Reads `cells.n` delta + zigzag varints into the int64 entries at
// `cells`. Sums wrap, as the encoder's differences do.
Status ScatterDeltas(ByteReader* r, const RankList& cells, int64_t* col) {
  const uint8_t* p = r->cursor();
  const uint8_t* end = p + r->remaining();
  uint64_t prev = 0;
  for (size_t i = 0; i < cells.n; ++i) {
    uint64_t u = 0;
    if (!ParseVarint(&p, end, &u)) {
      return Status::Corruption("bad int64 delta in chunk payload");
    }
    prev += static_cast<uint64_t>(ZigZagDecode(u));
    col[cells[i]] = static_cast<int64_t>(prev);
  }
  return r->Skip(static_cast<size_t>(p - r->cursor()));
}

}  // namespace

size_t MaxSerializedChunkBytes(const Box& box,
                               const std::vector<AttributeDesc>& attrs) {
  const uint64_t cells = CellsWithin(box, kMaxDecodedBytes);
  if (cells == 0) return kMaxDecodedBytes;
  constexpr uint64_t kVarint = 10;  // the longest LEB128 varint
  // Magic, ndims, the box, nattrs, the cell count and the presence bytes.
  uint64_t bytes = 4 + kVarint * (3 + 2 * box.ndims()) + cells;
  for (const AttributeDesc& a : attrs) {
    uint64_t value_bytes = 0;
    switch (a.type) {
      case DataType::kBool:
        value_bytes = 1;
        break;
      case DataType::kInt64:
        value_bytes = kVarint;
        break;
      case DataType::kFloat:
        value_bytes = sizeof(float);
        break;
      case DataType::kDouble:
        value_bytes = sizeof(double);
        break;
      case DataType::kString:
      case DataType::kArray:
        return kMaxDecodedBytes;
    }
    // Type and uncertainty tags, then a null flag and a value per cell,
    // then for an uncertain attribute a flag and up to one stderr per cell.
    bytes += 2 + cells * (1 + value_bytes);
    if (a.uncertain) bytes += 1 + sizeof(double) * cells;
    if (bytes >= kMaxDecodedBytes) return kMaxDecodedBytes;
  }
  return static_cast<size_t>(bytes);
}

std::vector<uint8_t> SerializeChunk(const Chunk& chunk) {
  ByteWriter w;
  w.PutU32(kChunkMagic);
  const Box& box = chunk.box();
  w.PutVarint(box.ndims());
  for (size_t d = 0; d < box.ndims(); ++d) {
    w.PutSignedVarint(box.low[d]);
    w.PutSignedVarint(box.high[d]);
  }
  w.PutVarint(chunk.nattrs());

  // Present bitmap: one byte per cell (block codec shrinks the runs).
  const uint8_t* presence = chunk.presence().data();
  RankList all;
  all.n = chunk.presence().size();
  w.PutVarint(all.n);
  uint8_t* present_flags = w.Extend(all.n);
  all.ForEach(
      [=](size_t i, size_t) { present_flags[i] = presence[i] != 0; });
  const RankList present = RankList::Filter(
      all, [=](size_t, size_t rank) { return presence[rank] != 0; });

  for (size_t a = 0; a < chunk.nattrs(); ++a) {
    const AttributeBlock& b = chunk.block(a);
    w.PutU8(static_cast<uint8_t>(b.type()));
    w.PutU8(b.uncertain() ? 1 : 0);
    // Null flags for present cells.
    const uint8_t* nulls = b.nulls().data();
    uint8_t* null_flags = w.Extend(present.n);
    present.ForEach(
        [=](size_t i, size_t rank) { null_flags[i] = nulls[rank] != 0; });
    // Values of present, non-null cells.
    const RankList values = RankList::Filter(
        present, [=](size_t, size_t rank) { return nulls[rank] == 0; });
    switch (b.type()) {
      case DataType::kBool: {
        uint8_t* dst = w.Extend(values.n);
        const uint8_t* col = b.bools().data();
        values.ForEach([=](size_t i, size_t rank) { dst[i] = col[rank] != 0; });
        break;
      }
      case DataType::kInt64: {
        uint64_t prev = 0;  // delta coding; differences wrap
        const int64_t* col = b.int64s().data();
        values.ForEach([&](size_t, size_t rank) {
          const uint64_t x = static_cast<uint64_t>(col[rank]);
          w.PutSignedVarint(static_cast<int64_t>(x - prev));
          prev = x;
        });
        break;
      }
      case DataType::kFloat:
        Planes<float>::Put(values, b.floats().data(),
                           w.Extend(values.n * sizeof(float)));
        break;
      case DataType::kDouble:
        Planes<double>::Put(values, b.doubles().data(),
                            w.Extend(values.n * sizeof(double)));
        break;
      case DataType::kString:
        for (size_t i = 0; i < values.n; ++i) {
          Value v = b.Get(static_cast<int64_t>(values[i]));
          w.PutString(v.is_string() ? v.string_value() : std::string());
        }
        break;
      case DataType::kArray:
        for (size_t i = 0; i < values.n; ++i) {
          // Nested arrays: rank, shape, then the double payload (nested
          // numeric arrays; deeper nesting is flattened by the writer). A
          // non-null cell of an array block always holds an array:
          // AttributeBlock::Set stores anything else as NULL.
          const Value v = b.Get(static_cast<int64_t>(values[i]));
          const NestedArray& na = *v.array_value();
          w.PutVarint(na.shape.size());
          for (int64_t s : na.shape) w.PutSignedVarint(s);
          w.PutVarint(na.values.size());
          for (const Value& nv : na.values) {
            auto d = nv.AsDouble();
            w.PutDouble(d.ok() ? d.value() : 0.0);
          }
        }
        break;
    }
    if (b.uncertain()) {
      if (b.has_constant_stderr()) {
        w.PutU8(1);
        // One shared error bar — the §2.13 negligible-space encoding.
        w.PutDouble(present.n == 0
                        ? 0.0
                        : b.GetStderr(static_cast<int64_t>(present[0])));
      } else {
        w.PutU8(0);
        Planes<double>::Put(values, b.stderrs().data(),
                            w.Extend(values.n * sizeof(double)));
      }
    }
  }
  return w.Release();
}

Result<Chunk> DeserializeChunk(const std::vector<uint8_t>& bytes,
                               const std::vector<AttributeDesc>& attrs) {
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kChunkMagic && magic != kChunkMagicV1) {
    return Status::Corruption("bad chunk magic");
  }
  const bool planes = magic == kChunkMagic;
  ASSIGN_OR_RETURN(uint64_t ndims, r.GetVarint());
  if (ndims == 0 || ndims > 64) return Status::Corruption("bad chunk ndims");
  Box box;
  box.low.resize(ndims);
  box.high.resize(ndims);
  for (size_t d = 0; d < ndims; ++d) {
    ASSIGN_OR_RETURN(box.low[d], r.GetSignedVarint());
    ASSIGN_OR_RETURN(box.high[d], r.GetSignedVarint());
    if (box.high[d] < box.low[d]) {
      return Status::Corruption("inverted chunk box");
    }
  }
  ASSIGN_OR_RETURN(uint64_t nattrs, r.GetVarint());
  if (nattrs != attrs.size()) {
    return Status::Corruption("chunk attr count mismatch: file has " +
                              std::to_string(nattrs) + ", manifest has " +
                              std::to_string(attrs.size()));
  }

  // Validate the box's cell capacity BEFORE constructing the Chunk. The
  // format stores at least one present-bitmap byte per cell, so capacity
  // can never legitimately exceed the bytes remaining in the buffer.
  const uint64_t capacity = CellsWithin(box, r.remaining());
  if (capacity == 0) {
    return Status::Corruption("chunk box larger than payload");
  }
  ASSIGN_OR_RETURN(uint64_t cells, r.GetVarint());
  if (cells != capacity) {
    return Status::Corruption("chunk cell count mismatch");
  }
  ASSIGN_OR_RETURN(const uint8_t* presence, r.GetSpan(cells));

  Chunk chunk(box, attrs);
  if (static_cast<int64_t>(cells) != chunk.cell_capacity()) {
    return Status::Corruption("chunk cell count mismatch");
  }
  chunk.AssignPresence(presence);
  RankList all;
  all.n = cells;
  const RankList present = RankList::Filter(
      all, [=](size_t, size_t rank) { return presence[rank] != 0; });

  for (size_t a = 0; a < attrs.size(); ++a) {
    ASSIGN_OR_RETURN(uint8_t type_tag, r.GetU8());
    ASSIGN_OR_RETURN(uint8_t unc_tag, r.GetU8());
    if (static_cast<DataType>(type_tag) != attrs[a].type ||
        (unc_tag != 0) != attrs[a].uncertain) {
      return Status::Corruption("chunk attribute descriptor mismatch");
    }
    AttributeBlock& b = chunk.block(a);
    const AttributeBlock::Columns col = b.mutable_columns();
    ASSIGN_OR_RETURN(const uint8_t* nulls, r.GetSpan(present.n));
    present.ForEach(
        [=](size_t i, size_t rank) { col.nulls[rank] = nulls[i] != 0; });
    const RankList values = RankList::Filter(
        present, [=](size_t i, size_t) { return nulls[i] == 0; });
    switch (attrs[a].type) {
      case DataType::kBool: {
        ASSIGN_OR_RETURN(const uint8_t* src, r.GetSpan(values.n));
        values.ForEach(
            [=](size_t i, size_t rank) { col.bools[rank] = src[i] != 0; });
        break;
      }
      case DataType::kInt64:
        RETURN_NOT_OK(ScatterDeltas(&r, values, col.i64));
        break;
      case DataType::kFloat:
        RETURN_NOT_OK(Scatter(&r, values, col.f32, planes));
        break;
      case DataType::kDouble:
        RETURN_NOT_OK(Scatter(&r, values, col.f64, planes));
        break;
      case DataType::kString:
        for (size_t i = 0; i < values.n; ++i) {
          ASSIGN_OR_RETURN(std::string s, r.GetString());
          b.Set(static_cast<int64_t>(values[i]), Value(std::move(s)));
        }
        break;
      case DataType::kArray:
        for (size_t i = 0; i < values.n; ++i) {
          const int64_t rank = static_cast<int64_t>(values[i]);
          // Rank 0 is a 0-dimensional array: no shape entries, and its
          // count and values follow like any other rank's.
          ASSIGN_OR_RETURN(uint64_t nd, r.GetVarint());
          // Each shape entry is at least one varint byte, so a declared
          // rank beyond the remaining payload is corruption — checked
          // before resize() so a 5-byte varint cannot demand a 2^60-entry
          // allocation (found by fuzz_chunk_serde).
          if (nd > r.remaining()) {
            return Status::Corruption("nested array rank exceeds payload");
          }
          auto na = std::make_shared<NestedArray>();
          na->shape.resize(nd);
          for (uint64_t d = 0; d < nd; ++d) {
            ASSIGN_OR_RETURN(na->shape[d], r.GetSignedVarint());
          }
          ASSIGN_OR_RETURN(uint64_t nv, r.GetVarint());
          // Values are 8 bytes each; same declared-size-vs-payload guard.
          if (nv > r.remaining() / sizeof(double)) {
            return Status::Corruption("nested array size exceeds payload");
          }
          na->values.reserve(nv);
          for (uint64_t k = 0; k < nv; ++k) {
            ASSIGN_OR_RETURN(double v, r.GetDouble());
            na->values.emplace_back(v);
          }
          b.Set(rank, Value(std::move(na)));
        }
        break;
    }
    if (attrs[a].uncertain) {
      ASSIGN_OR_RETURN(uint8_t is_const, r.GetU8());
      std::vector<double> stderrs(cells, 0.0);
      if (is_const) {
        ASSIGN_OR_RETURN(double s, r.GetDouble());
        values.ForEach([&](size_t, size_t rank) { stderrs[rank] = s; });
      } else {
        RETURN_NOT_OK(Scatter(&r, values, stderrs.data(), planes));
      }
      // Set() gives a non-numeric cell a zero error bar.
      if (!IsNumeric(attrs[a].type)) {
        std::fill(stderrs.begin(), stderrs.end(), 0.0);
      }
      b.AssignStderrs(std::move(stderrs));
    }
  }
  return chunk;
}

}  // namespace scidb
