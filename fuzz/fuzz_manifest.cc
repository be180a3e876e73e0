// Manifest decode harness: DiskArray::OpenSingleFile over arbitrary bytes
// must return a Status — never crash, overflow, or allocate unboundedly —
// and an array it opens must read every bucket its manifest names, each
// read returning cells or a Status. The input goes through a file, as
// the decoder reads the trailer, the manifest and the payloads from one.
//
// Properties of an array that opens: a read of the box holding every
// coordinate reads each bucket once (the R-tree indexes every bucket
// the manifest lists), and ReadAll returns only cells inside the schema's
// declared box.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "storage/storage_manager.h"

namespace {

[[noreturn]] void Fail(const char* property) {
  std::fprintf(stderr, "fuzz_manifest: %s\n", property);
  std::fflush(stderr);
  std::abort();
}

// One temporary file per process, removed at exit.
struct TempFile {
  std::string path = (std::filesystem::temp_directory_path() /
                      std::string("fuzz_manifest_")
                          .append(std::to_string(::getpid()))
                          .append(".sdb"))
                         .string();
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static TempFile file;
  {
    std::ofstream f(file.path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
    if (!f) Fail("cannot write the temporary file");
  }
  auto opened = scidb::DiskArray::OpenSingleFile(file.path);
  if (!opened.ok()) return 0;  // rejecting a corrupt file is the job
  const scidb::DiskArray& arr = *opened.value();

  const size_t ndims = arr.schema().ndims();
  const scidb::Box everywhere(
      scidb::Coordinates(ndims, std::numeric_limits<int64_t>::min()),
      scidb::Coordinates(ndims, std::numeric_limits<int64_t>::max()));
  if (arr.ReadRegion(everywhere).ok() &&
      arr.stats().buckets_read != static_cast<int64_t>(arr.bucket_count())) {
    Fail("a read of every coordinate missed a bucket");
  }

  auto all = arr.ReadAll();
  if (!all.ok()) return 0;
  const scidb::Box extent = arr.Extent();
  all.value().ForEachCell(
      [&](const scidb::Coordinates& c, const scidb::Chunk&, int64_t) {
        if (!extent.Contains(c)) Fail("ReadAll returned a cell outside it");
        return true;
      });
  return 0;
}
