// Chunk decode harness: DeserializeChunk over arbitrary bytes must
// return a Status — never throw, overflow, or allocate unboundedly —
// and anything it accepts must survive a serialize/deserialize round
// trip. Found for real: Box::CellCount() signed-multiply overflow and
// multi-GB allocations from hostile box extents, and unchecked nested
// array rank/size varints driving resize()/reserve() with 2^60 counts.
//
// The first input byte selects one of six attribute manifests so the
// fuzzer can explore every value codec (delta-coded int64, float,
// double, string, bool, nested array, uncertain int64 and double with a
// constant or a varying stderr), in both payload versions: v1 packs the
// float and double columns, v2 stores them as byte planes. Selectors
// 4 and 5 came later; `% 6` keeps the seeds of 0-3 where they were.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "array/chunk.h"
#include "storage/chunk_serde.h"

namespace {

std::vector<scidb::AttributeDesc> Manifest(uint8_t selector) {
  using scidb::AttributeDesc;
  using scidb::DataType;
  std::vector<AttributeDesc> attrs;
  switch (selector % 6) {
    case 0:
      attrs.push_back({"v", DataType::kInt64, false});
      break;
    case 1:
      attrs.push_back({"d", DataType::kDouble, false});
      attrs.push_back({"s", DataType::kString, false});
      break;
    case 2:
      attrs.push_back({"m", DataType::kFloat, true});
      attrs.push_back({"b", DataType::kBool, false});
      break;
    case 3:
      attrs.push_back({"a", DataType::kArray, false});
      break;
    case 4:
      attrs.push_back({"ui", DataType::kInt64, true, true});
      break;
    default:
      attrs.push_back({"ud", DataType::kDouble, true, true});
      attrs.push_back({"f", DataType::kFloat, false});
      break;
  }
  return attrs;
}

[[noreturn]] void Fail(const char* property) {
  std::fprintf(stderr, "fuzz_chunk_serde: %s\n", property);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  std::vector<scidb::AttributeDesc> attrs = Manifest(data[0]);
  std::vector<uint8_t> bytes(data + 1, data + size);

  auto chunk = scidb::DeserializeChunk(bytes, attrs);
  if (!chunk.ok()) return 0;  // rejecting corrupt bytes is the job

  // Accepted bytes decode to a chunk the encoder can reproduce: the
  // re-serialization must decode again, to a chunk that serializes
  // identically (value-level losslessness).
  std::vector<uint8_t> out = scidb::SerializeChunk(chunk.value());
  auto again = scidb::DeserializeChunk(out, attrs);
  if (!again.ok()) Fail("re-serialized chunk failed to decode");
  if (scidb::SerializeChunk(again.value()) != out) {
    Fail("serialize -> deserialize -> serialize is not a fixed point");
  }
  return 0;
}
