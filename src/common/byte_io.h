#ifndef SCIDB_COMMON_BYTE_IO_H_
#define SCIDB_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"

namespace scidb {

// ZigZag maps small signed values to small unsigned ones (0, -1, 1, -2,
// ... -> 0, 1, 2, 3, ...) so they varint-code short.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

// Parses one LEB128 varint at *p, reading nothing at or past `end`, and
// advances *p past it. A varint is at most ten bytes and the tenth may
// carry only bit 63. On failure returns false with *p == end for a
// truncated varint, or *p before `end` for one that overflows 64 bits.
inline bool ParseVarint(const uint8_t** p, const uint8_t* end,
                        uint64_t* v) {
  const uint8_t* q = *p;
  if (q < end && *q < 0x80) {  // the common one- and two-byte cases
    *v = *q;
    *p = q + 1;
    return true;
  }
  if (end - q >= 2 && q[1] < 0x80) {
    *v = (q[0] & 0x7Fu) | static_cast<uint64_t>(q[1]) << 7;
    *p = q + 2;
    return true;
  }
  uint64_t x = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (q == end) break;
    const uint8_t b = *q;
    if (shift == 63 && b > 1) break;
    ++q;
    x |= static_cast<uint64_t>(b & 0x7F) << shift;
    if (b < 0x80) {
      *v = x;
      *p = q;
      return true;
    }
  }
  *p = q;
  return false;
}

// Append-only little-endian byte sink used by the chunk codecs, the
// self-describing on-disk format and the external-format writers.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutBytes(const void* data, size_t n) {
    // resize + memcpy rather than vector::insert: identical behavior,
    // but insert's pointer-range path trips a GCC 12 -Wstringop-overflow
    // false positive when inlined into fresh-buffer writers. The n == 0
    // guard keeps memcpy away from null `data` (UB even for 0 bytes).
    if (n == 0) return;
    std::memcpy(Extend(n), data, n);
  }
  // `n` fresh bytes at the end, for a caller that fills a whole column in
  // place; valid until the next write.
  uint8_t* Extend(size_t n) {
    const size_t old = buf_.size();
    buf_.resize(old + n);
    return buf_.data() + old;
  }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(v); }
  void PutDouble(double v) { PutFixed(v); }
  void PutFloat(float v) { PutFixed(v); }

  // LEB128 unsigned varint.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }
  // ZigZag-encoded signed varint.
  void PutSignedVarint(int64_t v) { PutVarint(ZigZagEncode(v)); }
  void PutString(const std::string& s) {
    PutVarint(s.size());
    PutBytes(s.data(), s.size());
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    uint8_t tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));
    PutBytes(tmp, sizeof(T));
  }

  std::vector<uint8_t> buf_;
};

// Bounds-checked reader over a byte span. All getters return Status-bearing
// results: truncated or corrupt inputs surface as kCorruption, never UB.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Truncated("u8");
    return data_[pos_++];
  }
  Result<uint32_t> GetU32() { return GetFixed<uint32_t>("u32"); }
  Result<uint64_t> GetU64() { return GetFixed<uint64_t>("u64"); }
  Result<int64_t> GetI64() { return GetFixed<int64_t>("i64"); }
  Result<double> GetDouble() { return GetFixed<double>("double"); }
  Result<float> GetFloat() { return GetFixed<float>("float"); }

  Result<uint64_t> GetVarint() {
    const uint8_t* p = cursor();
    const uint8_t* end = data_ + size_;
    uint64_t v = 0;
    if (!ParseVarint(&p, end, &v)) {
      return p == end ? Truncated("varint")
                      : Status::Corruption("varint overflow");
    }
    pos_ = static_cast<size_t>(p - data_);
    return v;
  }
  Result<int64_t> GetSignedVarint() {
    ASSIGN_OR_RETURN(uint64_t u, GetVarint());
    return ZigZagDecode(u);
  }
  Result<std::string> GetString() {
    ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    if (remaining() < n) return Truncated("string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }
  Status GetBytes(void* out, size_t n) {
    if (remaining() < n) return Truncated("bytes");
    // n == 0 must not reach memcpy: an empty buffer's data() may be null,
    // and memcpy's arguments are declared nonnull (UBSan trips even for
    // zero-length copies).
    if (n > 0) {
      std::memcpy(out, data_ + pos_, n);
      pos_ += n;
    }
    return Status::OK();
  }
  // The next `n` bytes, read in place; valid while the buffer lives.
  Result<const uint8_t*> GetSpan(size_t n) {
    if (remaining() < n) return Truncated("bytes");
    const uint8_t* p = cursor();
    pos_ += n;
    return p;
  }
  // The unread bytes in place, for a caller that parses a run of values
  // itself and then Skip()s the bytes it used.
  const uint8_t* cursor() const { return data_ + pos_; }
  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    pos_ += n;
    return Status::OK();
  }

 private:
  template <typename T>
  Result<T> GetFixed(const char* what) {
    if (remaining() < sizeof(T)) return Truncated(what);
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  static Status Truncated(const char* what) {
    return Status::Corruption(std::string("truncated input reading ") + what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace scidb

#endif  // SCIDB_COMMON_BYTE_IO_H_
