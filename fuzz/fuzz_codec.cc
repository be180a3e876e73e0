// Block codec harness: Decompress over arbitrary bytes, under a cap,
// must return a Status — never crash, read past the input, or allocate
// past the cap — and whatever it accepts must come back unchanged from
// Compress -> Decompress under every codec. Found for real: a literal
// length, a match length and a run length of a few bytes each made the
// decoder allocate gigabytes before it read the input they claimed.
//
// The first input byte picks the cap, 2^(byte % 21) bytes (1 B to 1 MiB),
// so the fuzzer reaches both the cap checks and ordinary decoding.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "storage/codec.h"

namespace {

[[noreturn]] void Fail(const char* property) {
  std::fprintf(stderr, "fuzz_codec: %s\n", property);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using scidb::CodecType;
  if (size == 0) return 0;
  const size_t cap = size_t{1} << (data[0] % 21);
  const std::vector<uint8_t> payload(data + 1, data + size);

  auto decoded = scidb::Decompress(payload, cap);
  if (!decoded.ok()) return 0;  // rejecting corrupt bytes is the job
  const std::vector<uint8_t>& out = decoded.value();
  if (out.size() > cap) Fail("decoded past the cap");

  for (CodecType c : {CodecType::kNone, CodecType::kRle, CodecType::kLz}) {
    auto again = scidb::Decompress(scidb::Compress(c, out), out.size());
    if (!again.ok()) Fail("re-compressed payload failed to decode");
    if (again.value() != out) Fail("Decompress(Compress(x)) != x");
  }
  return 0;
}
