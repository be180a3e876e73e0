#include "insitu/formats.h"

#include <fstream>

#include "common/byte_io.h"
#include "common/macros.h"

namespace scidb {

namespace {

constexpr uint32_t kH5Magic = 0x53483546;   // "SH5F"
constexpr uint32_t kNcMagic = 0x534E4346;   // "SNCF"

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

// The cells of a dense row-major double payload spanning `schema`'s
// bounds that lie inside `region`, counting the payload bytes touched.
Result<MemArray> ReadDense(const ArraySchema& schema,
                           const std::vector<double>& data, const Box& region,
                           int64_t* bytes_read) {
  ASSIGN_OR_RETURN(Box bounds, schema.Bounds());
  MemArray out(schema);
  if (!bounds.Intersects(region)) return out;
  Box want = bounds.Intersect(region);
  Coordinates c = want.low;
  do {
    int64_t rank = RankInBox(bounds, c);
    *bytes_read += static_cast<int64_t>(sizeof(double));
    RETURN_NOT_OK(out.SetCell(c, Value(data[static_cast<size_t>(rank)])));
  } while (NextInBox(want, &c));
  return out;
}

}  // namespace

// ---------------------------------------------------------------- .sh5

Status WriteH5File(const std::string& path,
                   const std::vector<H5Dataset>& datasets) {
  ByteWriter w;
  w.PutU32(kH5Magic);
  w.PutVarint(datasets.size());
  for (const auto& ds : datasets) {
    int64_t cells = 1;
    for (int64_t s : ds.shape) cells *= s;
    if (static_cast<size_t>(cells) != ds.data.size()) {
      return Status::Invalid("dataset '" + ds.name +
                             "': shape does not match data size");
    }
    if (ds.dim_names.size() != ds.shape.size()) {
      return Status::Invalid("dataset '" + ds.name +
                             "': dim_names/shape mismatch");
    }
    w.PutString(ds.name);
    w.PutVarint(ds.shape.size());
    for (size_t d = 0; d < ds.shape.size(); ++d) {
      w.PutString(ds.dim_names[d]);
      w.PutSignedVarint(ds.shape[d]);
    }
    for (double v : ds.data) w.PutDouble(v);
  }
  return WriteFile(path, w.Release());
}

Result<std::unique_ptr<H5File>> H5File::Open(const std::string& path) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadWholeFile(path));
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kH5Magic) {
    return Status::Corruption(path + " is not an SH5 file");
  }
  auto file = std::unique_ptr<H5File>(new H5File());
  ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    H5Dataset ds;
    ASSIGN_OR_RETURN(ds.name, r.GetString());
    ASSIGN_OR_RETURN(uint64_t ndims, r.GetVarint());
    int64_t cells = 1;
    for (uint64_t d = 0; d < ndims; ++d) {
      std::string dim_name;
      ASSIGN_OR_RETURN(dim_name, r.GetString());
      int64_t len;
      ASSIGN_OR_RETURN(len, r.GetSignedVarint());
      if (len <= 0) return Status::Corruption("non-positive dataset extent");
      ds.dim_names.push_back(std::move(dim_name));
      ds.shape.push_back(len);
      cells *= len;
    }
    ds.data.resize(static_cast<size_t>(cells));
    for (auto& v : ds.data) {
      ASSIGN_OR_RETURN(v, r.GetDouble());
    }
    file->datasets_.push_back(std::move(ds));
  }
  return file;
}

std::vector<std::string> H5File::DatasetNames() const {
  std::vector<std::string> out;
  for (const auto& ds : datasets_) out.push_back(ds.name);
  return out;
}

Result<const H5Dataset*> H5File::Dataset(const std::string& name) const {
  for (const auto& ds : datasets_) {
    if (ds.name == name) return &ds;
  }
  return Status::NotFound("no dataset named '" + name + "'");
}

Result<std::unique_ptr<H5DatasetAdaptor>> H5DatasetAdaptor::Open(
    const std::string& path, const std::string& dataset,
    const std::string& array_name) {
  ASSIGN_OR_RETURN(std::unique_ptr<H5File> file, H5File::Open(path));
  ASSIGN_OR_RETURN(const H5Dataset* ds, file->Dataset(dataset));
  auto adaptor = std::unique_ptr<H5DatasetAdaptor>(new H5DatasetAdaptor());
  adaptor->dataset_ = *ds;
  std::vector<DimensionDesc> dims;
  for (size_t d = 0; d < ds->shape.size(); ++d) {
    dims.push_back({ds->dim_names[d], 1, ds->shape[d],
                    std::min<int64_t>(64, ds->shape[d])});
  }
  adaptor->schema_ = ArraySchema(
      array_name, std::move(dims),
      {{"value", DataType::kDouble, true, false}});
  return adaptor;
}

Result<MemArray> H5DatasetAdaptor::ReadBox(const Box& region,
                                           ThreadPool* pool) const {
  (void)pool;  // the payload is in memory: one pass over the box
  return ReadDense(schema_, dataset_.data, region, &bytes_read_);
}

// ---------------------------------------------------------------- .snc

Status WriteNcFile(const std::string& path, const NcFileContents& contents) {
  ByteWriter w;
  w.PutU32(kNcMagic);
  w.PutVarint(contents.dimensions.size());
  for (const auto& d : contents.dimensions) {
    w.PutString(d.name);
    w.PutSignedVarint(d.length);
  }
  w.PutVarint(contents.attributes.size());
  for (const auto& [k, v] : contents.attributes) {
    w.PutString(k);
    w.PutString(v);
  }
  w.PutVarint(contents.variables.size());
  for (const auto& v : contents.variables) {
    int64_t cells = 1;
    for (size_t id : v.dim_ids) {
      if (id >= contents.dimensions.size()) {
        return Status::Invalid("variable '" + v.name +
                               "' references unknown dimension");
      }
      cells *= contents.dimensions[id].length;
    }
    if (static_cast<size_t>(cells) != v.data.size()) {
      return Status::Invalid("variable '" + v.name +
                             "': data size does not match dimensions");
    }
    w.PutString(v.name);
    w.PutVarint(v.dim_ids.size());
    for (size_t id : v.dim_ids) w.PutVarint(id);
    for (double x : v.data) w.PutDouble(x);
  }
  return WriteFile(path, w.Release());
}

Result<NcFileContents> ReadNcFile(const std::string& path) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadWholeFile(path));
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kNcMagic) {
    return Status::Corruption(path + " is not an SNC file");
  }
  NcFileContents out;
  ASSIGN_OR_RETURN(uint64_t ndims, r.GetVarint());
  for (uint64_t i = 0; i < ndims; ++i) {
    NcDimension d;
    ASSIGN_OR_RETURN(d.name, r.GetString());
    ASSIGN_OR_RETURN(d.length, r.GetSignedVarint());
    out.dimensions.push_back(std::move(d));
  }
  ASSIGN_OR_RETURN(uint64_t nattrs, r.GetVarint());
  for (uint64_t i = 0; i < nattrs; ++i) {
    ASSIGN_OR_RETURN(std::string k, r.GetString());
    ASSIGN_OR_RETURN(std::string v, r.GetString());
    out.attributes.emplace(std::move(k), std::move(v));
  }
  ASSIGN_OR_RETURN(uint64_t nvars, r.GetVarint());
  for (uint64_t i = 0; i < nvars; ++i) {
    NcVariable v;
    ASSIGN_OR_RETURN(v.name, r.GetString());
    ASSIGN_OR_RETURN(uint64_t nd, r.GetVarint());
    int64_t cells = 1;
    for (uint64_t d = 0; d < nd; ++d) {
      ASSIGN_OR_RETURN(uint64_t id, r.GetVarint());
      if (id >= out.dimensions.size()) {
        return Status::Corruption("bad dimension id");
      }
      v.dim_ids.push_back(static_cast<size_t>(id));
      cells *= out.dimensions[static_cast<size_t>(id)].length;
    }
    v.data.resize(static_cast<size_t>(cells));
    for (auto& x : v.data) {
      ASSIGN_OR_RETURN(x, r.GetDouble());
    }
    out.variables.push_back(std::move(v));
  }
  return out;
}

Result<std::unique_ptr<NcVariableAdaptor>> NcVariableAdaptor::Open(
    const std::string& path, const std::string& variable,
    const std::string& array_name) {
  ASSIGN_OR_RETURN(NcFileContents contents, ReadNcFile(path));
  const NcVariable* found = nullptr;
  for (const auto& v : contents.variables) {
    if (v.name == variable) {
      found = &v;
      break;
    }
  }
  if (found == nullptr) {
    return Status::NotFound("no variable named '" + variable + "'");
  }
  auto adaptor = std::unique_ptr<NcVariableAdaptor>(new NcVariableAdaptor());
  adaptor->variable_ = *found;
  std::vector<DimensionDesc> dims;
  for (size_t id : found->dim_ids) {
    const NcDimension& d = contents.dimensions[id];
    adaptor->shape_.push_back(d.length);
    dims.push_back({d.name, 1, d.length, std::min<int64_t>(64, d.length)});
  }
  adaptor->schema_ = ArraySchema(
      array_name, std::move(dims),
      {{"value", DataType::kDouble, true, false}});
  return adaptor;
}

Result<MemArray> NcVariableAdaptor::ReadBox(const Box& region,
                                            ThreadPool* pool) const {
  (void)pool;  // the payload is in memory: one pass over the box
  return ReadDense(schema_, variable_.data, region, &bytes_read_);
}

}  // namespace scidb
