#ifndef SCIDB_STORAGE_CODEC_H_
#define SCIDB_STORAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace scidb {

// Block compression applied to serialized chunk payloads before they hit
// disk (paper §2.8: "compress the bucket and write it to disk"; "what
// compression algorithms to employ" is one of the storage research knobs,
// hence the codec is pluggable and benchmarked in EXP-CHUNK).
enum class CodecType : uint8_t {
  kNone = 0,
  kRle = 1,   // byte-level run-length; wins on constant/sparse payloads
  kLz = 2,    // LZ77-style window matcher; wins on repetitive structure
};

const char* CodecTypeName(CodecType t);

// Encodes `input`; output begins with a 1-byte codec tag so Decompress is
// self-describing.
std::vector<uint8_t> Compress(CodecType codec,
                              const std::vector<uint8_t>& input);

// The largest output Decompress produces for a caller that names no
// bound of its own (1 GiB): a stored payload whose box does not bound its
// size (strings, nested arrays) may decode to at most this much.
inline constexpr size_t kMaxDecodedBytes = size_t{1} << 30;

// Decodes a Compress() output. Input that is not one returns Corruption,
// and so does a stream that would decode to more than `max_output` bytes:
// a match or run is checked against that cap, and a literal against the
// input left, before the output grows.
Result<std::vector<uint8_t>> Decompress(const std::vector<uint8_t>& input,
                                        size_t max_output = kMaxDecodedBytes);

}  // namespace scidb

#endif  // SCIDB_STORAGE_CODEC_H_
