#include "storage/codec.h"

#include <algorithm>
#include <cstring>

#include "common/byte_io.h"
#include "common/macros.h"

namespace scidb {

const char* CodecTypeName(CodecType t) {
  switch (t) {
    case CodecType::kNone:
      return "none";
    case CodecType::kRle:
      return "rle";
    case CodecType::kLz:
      return "lz";
  }
  return "unknown";
}

namespace {

// The output of one decode. It grows by doubling from twice the encoded
// size, so only output the stream really produces is allocated, and never
// past the caller's cap: Extend refuses a write that would pass the cap
// before it allocates anything.
class DecodeBuffer {
 public:
  DecodeBuffer(size_t cap, size_t encoded_bytes) : cap_(cap) {
    buf_.resize(std::min(cap_, 2 * encoded_bytes));
  }

  size_t size() const { return pos_; }

  // Points *dst at room for `n` more bytes at the end of the output,
  // valid until the next call; false when that would pass the cap.
  bool Extend(uint64_t n, uint8_t** dst) {
    if (n > cap_ - pos_) return false;
    const size_t want = pos_ + static_cast<size_t>(n);
    if (want > buf_.size()) {
      buf_.resize(std::min(cap_, std::max(want, 2 * buf_.size())));
    }
    *dst = buf_.data() + pos_;
    pos_ = want;
    return true;
  }

  std::vector<uint8_t> Release() {
    buf_.resize(pos_);
    return std::move(buf_);
  }

 private:
  const size_t cap_;
  size_t pos_ = 0;
  std::vector<uint8_t> buf_;
};

// ---- byte RLE: runs of >= 4 identical bytes are encoded as
// <0xFF, count(varint), byte>; literal stretches as <len(varint), bytes>.
// 0xFF never begins a literal (literals of length >= 0xFF are split).

void RleEncode(const std::vector<uint8_t>& in, ByteWriter* w) {
  size_t i = 0;
  const size_t n = in.size();
  while (i < n) {
    // Measure the run at i.
    size_t run = 1;
    while (i + run < n && in[i + run] == in[i] && run < (1u << 30)) ++run;
    if (run >= 4) {
      w->PutU8(0xFF);
      w->PutVarint(run);
      w->PutU8(in[i]);
      i += run;
      continue;
    }
    // Literal stretch: until the next long run (or end).
    size_t start = i;
    while (i < n) {
      size_t r = 1;
      while (i + r < n && in[i + r] == in[i] && r < 4) ++r;
      if (r >= 4) break;
      i += r;
    }
    size_t len = i - start;
    while (len > 0) {
      size_t piece = std::min<size_t>(len, 0xFE);
      w->PutU8(static_cast<uint8_t>(piece));
      w->PutBytes(in.data() + start, piece);
      start += piece;
      len -= piece;
    }
  }
}

Status RleDecode(const uint8_t* p, const uint8_t* end, DecodeBuffer* out) {
  while (p < end) {
    const uint8_t tag = *p++;
    if (tag == 0xFF) {
      uint64_t count = 0;
      if (!ParseVarint(&p, end, &count) || p == end) {
        return Status::Corruption("truncated rle run");
      }
      uint8_t* dst = nullptr;
      if (!out->Extend(count, &dst)) {
        return Status::Corruption("rle run exceeds the cap");
      }
      const uint8_t b = *p++;
      if (count > 0) std::memset(dst, b, static_cast<size_t>(count));
    } else {
      if (tag > static_cast<size_t>(end - p)) {
        return Status::Corruption("truncated rle literal");
      }
      uint8_t* dst = nullptr;
      if (!out->Extend(tag, &dst)) {
        return Status::Corruption("rle literal exceeds the cap");
      }
      if (tag > 0) std::memcpy(dst, p, tag);
      p += tag;
    }
  }
  return Status::OK();
}

// ---- LZ77-lite: greedy hash-chain matcher, 64KB window, 4-byte min
// match. Tokens: <0x00, len(varint), bytes> literal; <0x01, dist(varint),
// len(varint)> match.

constexpr size_t kMinMatch = 4;
constexpr size_t kWindow = 1 << 16;
constexpr size_t kHashSize = 1 << 15;

uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 17;
}

void LzEncode(const std::vector<uint8_t>& in, ByteWriter* w) {
  const size_t n = in.size();
  std::vector<int64_t> head(kHashSize, -1);
  size_t i = 0;
  size_t lit_start = 0;

  auto flush_literals = [&](size_t end) {
    size_t start = lit_start;
    while (start < end) {
      size_t piece = std::min<size_t>(end - start, 1 << 20);
      w->PutU8(0x00);
      w->PutVarint(piece);
      w->PutBytes(in.data() + start, piece);
      start += piece;
    }
    lit_start = end;
  };

  while (i + kMinMatch <= n) {
    uint32_t h = Hash4(in.data() + i) & (kHashSize - 1);
    int64_t cand = head[h];
    head[h] = static_cast<int64_t>(i);
    if (cand >= 0 && i - static_cast<size_t>(cand) <= kWindow &&
        std::memcmp(in.data() + cand, in.data() + i, kMinMatch) == 0) {
      size_t len = kMinMatch;
      size_t max_len = n - i;
      while (len < max_len &&
             in[static_cast<size_t>(cand) + len] == in[i + len]) {
        ++len;
      }
      flush_literals(i);
      w->PutU8(0x01);
      w->PutVarint(i - static_cast<size_t>(cand));
      w->PutVarint(len);
      // Index a few positions inside the match so later data can refer in.
      size_t step = len > 64 ? 8 : 1;
      for (size_t k = 1; k < len && i + k + kMinMatch <= n; k += step) {
        head[Hash4(in.data() + i + k) & (kHashSize - 1)] =
            static_cast<int64_t>(i + k);
      }
      i += len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(n);
}

Status LzDecode(const uint8_t* p, const uint8_t* end, DecodeBuffer* out) {
  while (p < end) {
    const uint8_t tag = *p++;
    if (tag != 0x00 && tag != 0x01) {
      return Status::Corruption("unknown lz token");
    }
    uint64_t a = 0;  // a literal's length, or a match's distance
    if (!ParseVarint(&p, end, &a)) return Status::Corruption("bad lz varint");
    if (tag == 0x00) {
      // A literal is checked against the input it copies from, so its
      // length cannot ask for more output than the input holds.
      if (a > static_cast<uint64_t>(end - p)) {
        return Status::Corruption("lz literal longer than its input");
      }
      uint8_t* dst = nullptr;
      if (!out->Extend(a, &dst)) {
        return Status::Corruption("lz literal exceeds the cap");
      }
      if (a > 0) std::memcpy(dst, p, static_cast<size_t>(a));
      p += a;
      continue;
    }
    uint64_t len = 0;
    if (!ParseVarint(&p, end, &len)) {
      return Status::Corruption("bad lz varint");
    }
    if (a == 0 || a > out->size()) {
      return Status::Corruption("lz match distance out of range");
    }
    uint8_t* dst = nullptr;
    if (!out->Extend(len, &dst)) {
      return Status::Corruption("lz match exceeds the cap");
    }
    const uint8_t* src = dst - a;
    const size_t n = static_cast<size_t>(len);
    if (a >= len) {
      std::memcpy(dst, src, n);
    } else {
      // The match overlaps its own output, so it repeats its first `a`
      // bytes. Copy in blocks that end where their source begins,
      // doubling the block each time: dst[k + i] == src[i] holds
      // because every block starts at a multiple of `a`.
      for (size_t k = 0; k < n;) {
        const size_t step = std::min(n - k, k + static_cast<size_t>(a));
        std::memcpy(dst + k, src, step);
        k += step;
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> Compress(CodecType codec,
                              const std::vector<uint8_t>& input) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(codec));
  switch (codec) {
    case CodecType::kNone:
      w.PutBytes(input.data(), input.size());
      break;
    case CodecType::kRle:
      RleEncode(input, &w);
      break;
    case CodecType::kLz:
      LzEncode(input, &w);
      break;
  }
  return w.Release();
}

Result<std::vector<uint8_t>> Decompress(const std::vector<uint8_t>& input,
                                        size_t max_output) {
  if (input.empty()) return Status::Corruption("empty codec payload");
  const uint8_t tag = input[0];
  const uint8_t* p = input.data() + 1;
  const uint8_t* end = input.data() + input.size();
  const size_t body = input.size() - 1;
  switch (static_cast<CodecType>(tag)) {
    case CodecType::kNone: {
      if (body > max_output) {
        return Status::Corruption("payload exceeds the cap");
      }
      return std::vector<uint8_t>(p, end);
    }
    case CodecType::kRle: {
      DecodeBuffer out(max_output, body);
      RETURN_NOT_OK(RleDecode(p, end, &out));
      return out.Release();
    }
    case CodecType::kLz: {
      DecodeBuffer out(max_output, body);
      RETURN_NOT_OK(LzDecode(p, end, &out));
      return out.Release();
    }
  }
  return Status::Corruption("unknown codec tag " + std::to_string(tag));
}

}  // namespace scidb
