#ifndef SCIDB_STORAGE_CHUNK_SERDE_H_
#define SCIDB_STORAGE_CHUNK_SERDE_H_

#include <cstddef>
#include <vector>

#include "array/chunk.h"
#include "array/schema.h"
#include "common/result.h"

namespace scidb {

// Serializes a chunk into the on-disk bucket payload (before block
// compression). The layout is columnar per attribute; int64 columns are
// delta+zigzag-varint coded, float, double and varying-stderr columns are
// little-endian byte planes (byte b of value i at b * n + i), strings
// length-prefixed; constant stderr columns collapse to one double. The
// presence and null bytes and the fixed-width columns move in bulk;
// strings and nested arrays are written and read one value at a time.
// Stored buckets, `.sdb` files and chunk transfers all use this payload.
std::vector<uint8_t> SerializeChunk(const Chunk& chunk);

// The largest payload SerializeChunk writes for a chunk over `box` with
// `attrs`: a bound on what a stored bucket may decompress to. It is
// kMaxDecodedBytes when an attribute is a string or nested array, whose
// size the box does not bound, or when the bound would pass that ceiling.
size_t MaxSerializedChunkBytes(const Box& box,
                               const std::vector<AttributeDesc>& attrs);

// Rebuilds the chunk; `attrs` must be the attribute descriptors the chunk
// was created with (the storage manager keeps them in the array manifest).
// It also reads the version-1 payload, whose fixed-width columns are
// packed values instead of byte planes.
Result<Chunk> DeserializeChunk(const std::vector<uint8_t>& bytes,
                               const std::vector<AttributeDesc>& attrs);

}  // namespace scidb

#endif  // SCIDB_STORAGE_CHUNK_SERDE_H_
