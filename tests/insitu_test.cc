#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "insitu/formats.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() /
          ("scidb_insitu_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

MemArray SampleArray(int64_t n = 32, int64_t chunk = 8) {
  ArraySchema s("sample", {{"I", 1, n, chunk}, {"J", 1, n, chunk}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t i = 1; i <= n; ++i) {
    for (int64_t j = 1; j <= n; ++j) {
      SCIDB_CHECK(a.SetCell({i, j},
                            Value(static_cast<double>(i * 1000 + j)))
                      .ok());
    }
  }
  return a;
}

TEST(SciDbFileTest, RoundTrip) {
  std::string path = TempPath("roundtrip.sdb");
  MemArray a = SampleArray();
  ASSERT_TRUE(WriteSciDbFile(path, a).ok());

  auto file = OpenSciDbFile(path).ValueOrDie();
  EXPECT_EQ(file->schema().name(), "sample");
  EXPECT_EQ(file->bucket_count(), 16u);
  MemArray back = file->ReadAll().ValueOrDie();
  EXPECT_EQ(back.CellCount(), a.CellCount());
  EXPECT_EQ((*back.GetCell({7, 9}))[0].double_value(), 7009.0);
  fs::remove(path);
}

TEST(SciDbFileTest, RegionReadTouchesOnlyNeededChunks) {
  std::string path = TempPath("region.sdb");
  MemArray a = SampleArray(64, 8);
  ASSERT_TRUE(WriteSciDbFile(path, a).ok());
  auto file = OpenSciDbFile(path).ValueOrDie();

  MemArray corner = file->ReadRegion(Box({1, 1}, {8, 8})).ValueOrDie();
  EXPECT_EQ(corner.CellCount(), 64);
  int64_t corner_bytes = file->stats().bytes_read;

  MemArray all = file->ReadAll().ValueOrDie();
  EXPECT_EQ(all.CellCount(), 64 * 64);
  int64_t total_bytes = file->stats().bytes_read - corner_bytes;
  // One of 64 chunks: the corner read costs a small fraction.
  EXPECT_LT(corner_bytes, total_bytes / 16);
  fs::remove(path);
}

TEST(SciDbFileTest, RejectsForeignFile) {
  std::string path = TempPath("garbage.sdb");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a scidb file at all";
  }
  EXPECT_FALSE(OpenSciDbFile(path).ok());
  EXPECT_TRUE(OpenSciDbFile(TempPath("missing.sdb")).status().IsIOError());
  fs::remove(path);
}

TEST(SciDbFileTest, SchemaRoundTripsExactly) {
  // A non-nullable attribute next to a nullable uncertain one: the file
  // header carries every schema field, so the opened schema is the
  // written one.
  std::string path = TempPath("schema.sdb");
  ArraySchema s("exact", {{"I", 1, 8, 4}, {"J", 1, 8, 4}},
                {{"count", DataType::kInt64, false, false},
                 {"flux", DataType::kDouble, true, true}});
  MemArray a(s);
  ASSERT_TRUE(
      a.SetCell({2, 3}, {Value(int64_t{7}), Value(Uncertain(1.5, 0.25))})
          .ok());
  ASSERT_TRUE(WriteSciDbFile(path, a).ok());

  auto file = OpenSciDbFile(path).ValueOrDie();
  EXPECT_FALSE(file->schema().attr(0).nullable);
  EXPECT_TRUE(file->schema() == s);
  MemArray back = file->ReadAll().ValueOrDie();
  EXPECT_EQ((*back.GetCell({2, 3}))[0].int64_value(), 7);
  EXPECT_EQ((*back.GetCell({2, 3}))[1].uncertain_value().stderr_, 0.25);
  fs::remove(path);
}

TEST(SciDbFileTest, CorruptTypeByteFailsOpen) {
  std::string path = TempPath("badtype.sdb");
  ArraySchema s("bad", {{"I", 1, 8, 4}},
                {{"zqattr", DataType::kDouble, true, false}});
  MemArray a(s);
  ASSERT_TRUE(a.SetCell({1}, Value(1.0)).ok());
  ASSERT_TRUE(WriteSciDbFile(path, a).ok());
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // The attribute's type byte follows its name in the manifest.
  const std::string name = "zqattr";
  auto at = std::search(bytes.begin(), bytes.end(), name.begin(), name.end());
  ASSERT_NE(at, bytes.end());
  *(at + static_cast<std::ptrdiff_t>(name.size())) = static_cast<char>(0xEE);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_TRUE(OpenSciDbFile(path).status().IsCorruption());
  fs::remove(path);
}

// 1024 x 1024 in 16 x 16 chunks, one cell in each: 4096 buckets, a
// directory well past 64 KiB, opened whole and read at every width.
TEST(SciDbFileTest, OpensDirectoryOfFourThousandBuckets) {
  std::string path = TempPath("wide.sdb");
  ArraySchema s("wide", {{"I", 1, 1024, 16}, {"J", 1, 1024, 16}},
                {{"v", DataType::kInt64, false, false}});
  MemArray a(s);
  for (int64_t ci = 0; ci < 64; ++ci) {
    for (int64_t cj = 0; cj < 64; ++cj) {
      const int64_t i = ci * 16 + 1 + (ci + cj) % 16;
      const int64_t j = cj * 16 + 1 + (ci * 3 + cj) % 16;
      ASSERT_TRUE(a.SetCell({i, j}, Value(i * 10000 + j)).ok());
    }
  }
  ASSERT_TRUE(WriteSciDbFile(path, a).ok());
  Result<std::unique_ptr<DiskArray>> file = OpenSciDbFile(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file.value()->bucket_count(), 4096u);
  for (int width : {1, 4}) {
    ThreadPool pool(width);
    MemArray back = file.value()->ReadAll(&pool).ValueOrDie();
    ASSERT_EQ(back.CellCount(), 4096);
    a.ForEachCell([&](const Coordinates& c, const Chunk&, int64_t) {
      auto cell = back.GetCell(c);
      EXPECT_TRUE(cell.has_value() &&
                  (*cell)[0].int64_value() == c[0] * 10000 + c[1])
          << CoordsToString(c);
      return true;
    });
  }
  fs::remove(path);
}

TEST(H5FileTest, WriteOpenRead) {
  std::string path = TempPath("data.sh5");
  H5Dataset temp;
  temp.name = "temperature";
  temp.dim_names = {"lat", "lon"};
  temp.shape = {4, 5};
  for (int i = 0; i < 20; ++i) temp.data.push_back(i * 0.5);
  H5Dataset wind;
  wind.name = "wind";
  wind.dim_names = {"t"};
  wind.shape = {3};
  wind.data = {9.0, 8.0, 7.0};
  ASSERT_TRUE(WriteH5File(path, {temp, wind}).ok());

  auto file = H5File::Open(path).ValueOrDie();
  EXPECT_EQ(file->DatasetNames(),
            (std::vector<std::string>{"temperature", "wind"}));
  const H5Dataset* ds = file->Dataset("temperature").ValueOrDie();
  EXPECT_EQ(ds->shape, (std::vector<int64_t>{4, 5}));
  EXPECT_EQ(ds->data[7], 3.5);
  EXPECT_TRUE(file->Dataset("nope").status().IsNotFound());
  fs::remove(path);
}

TEST(H5FileTest, WriterValidates) {
  H5Dataset bad;
  bad.name = "bad";
  bad.dim_names = {"x"};
  bad.shape = {4};
  bad.data = {1.0};  // wrong size
  EXPECT_TRUE(WriteH5File(TempPath("bad.sh5"), {bad}).IsInvalid());
}

TEST(H5AdaptorTest, QueryWithoutLoad) {
  // Paper §2.9: "he can use SciDB without a load stage".
  std::string path = TempPath("adaptor.sh5");
  H5Dataset img;
  img.name = "image";
  img.dim_names = {"I", "J"};
  img.shape = {16, 16};
  for (int i = 0; i < 256; ++i) img.data.push_back(static_cast<double>(i));
  ASSERT_TRUE(WriteH5File(path, {img}).ok());

  auto adaptor =
      H5DatasetAdaptor::Open(path, "image", "ext_image").ValueOrDie();
  EXPECT_EQ(adaptor->schema().ndims(), 2u);
  EXPECT_EQ(adaptor->schema().dim(0).name, "I");

  // Region read: only the window is materialized.
  MemArray window =
      adaptor->ReadRegion(Box({1, 1}, {2, 2})).ValueOrDie();
  EXPECT_EQ(window.CellCount(), 4);
  // Row-major: cell (2, 1) holds 16.
  EXPECT_EQ((*window.GetCell({2, 1}))[0].double_value(), 16.0);
  EXPECT_EQ(adaptor->bytes_read(), 4 * 8);
  EXPECT_TRUE(
      H5DatasetAdaptor::Open(path, "zz", "x").status().IsNotFound());
  fs::remove(path);
}

TEST(NcFileTest, WriteReadContents) {
  std::string path = TempPath("ocean.snc");
  NcFileContents nc;
  nc.dimensions = {{"depth", 3}, {"station", 4}};
  NcVariable salinity;
  salinity.name = "salinity";
  salinity.dim_ids = {0, 1};
  for (int i = 0; i < 12; ++i) salinity.data.push_back(30.0 + i * 0.1);
  nc.variables.push_back(salinity);
  nc.attributes = {{"institution", "MBARI"}, {"cruise", "CANON-2008"}};
  ASSERT_TRUE(WriteNcFile(path, nc).ok());

  NcFileContents back = ReadNcFile(path).ValueOrDie();
  EXPECT_EQ(back.dimensions.size(), 2u);
  EXPECT_EQ(back.dimensions[1].name, "station");
  EXPECT_EQ(back.attributes.at("institution"), "MBARI");
  ASSERT_EQ(back.variables.size(), 1u);
  EXPECT_DOUBLE_EQ(back.variables[0].data[11], 31.1);
  fs::remove(path);
}

TEST(NcFileTest, WriterValidates) {
  NcFileContents nc;
  nc.dimensions = {{"x", 4}};
  NcVariable v;
  v.name = "v";
  v.dim_ids = {7};  // unknown dimension
  EXPECT_TRUE(WriteNcFile(TempPath("bad.snc"), nc).ok());  // empty ok
  nc.variables.push_back(v);
  EXPECT_TRUE(WriteNcFile(TempPath("bad.snc"), nc).IsInvalid());
}

TEST(NcAdaptorTest, QueryWithoutLoad) {
  std::string path = TempPath("grid.snc");
  NcFileContents nc;
  nc.dimensions = {{"lat", 8}, {"lon", 8}};
  NcVariable sst;
  sst.name = "sst";
  sst.dim_ids = {0, 1};
  for (int i = 0; i < 64; ++i) sst.data.push_back(10.0 + i);
  nc.variables.push_back(sst);
  ASSERT_TRUE(WriteNcFile(path, nc).ok());

  auto adaptor = NcVariableAdaptor::Open(path, "sst", "sst").ValueOrDie();
  EXPECT_EQ(adaptor->schema().dim(1).name, "lon");
  MemArray region = adaptor->ReadRegion(Box({8, 8}, {8, 8})).ValueOrDie();
  EXPECT_EQ(region.CellCount(), 1);
  EXPECT_EQ((*region.GetCell({8, 8}))[0].double_value(), 73.0);
  EXPECT_TRUE(NcVariableAdaptor::Open(path, "zz", "x").status()
                  .IsNotFound());
  fs::remove(path);
}

}  // namespace
}  // namespace scidb
