#ifndef SCIDB_INSITU_FORMATS_H_
#define SCIDB_INSITU_FORMATS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/array_source.h"
#include "array/mem_array.h"
#include "common/result.h"
#include "storage/codec.h"
#include "storage/storage_manager.h"

namespace scidb {

// In-situ access (paper §2.9): "SciDB must be able to operate on in situ
// data, without requiring a load process. Our approach ... is to define a
// self-describing data format and then write adaptors to various popular
// external formats, for example HDF-5 or NetCDF."
//
// The real HDF5/NetCDF libraries are not available offline, so this
// module implements simplified stand-ins with the same structure (named
// datasets/variables, dimensions, contiguous typed payloads) — see
// DESIGN.md §3. The code path exercised — querying foreign files without
// a load step, reading only the region a query needs — is the paper's
// point, not wire compatibility.
//
// Each reader is an ArraySource (array/array_source.h): ReadRegion
// touches only the needed part of the file, and the adaptors'
// bytes_read() counts the file payload read so far (EXP-SITU
// accounting).

// ---------------- SciDB self-describing format (.sdb) ----------------
// A single-file DiskArray (storage/storage_manager.h): the bucket
// payloads, the manifest, a fixed trailer. Reads go through the bucket
// R-tree, decode on the caller's pool, and count in the DiskArray's
// stats() and the scidb.storage.* metrics.

inline Status WriteSciDbFile(const std::string& path, const MemArray& array,
                             CodecType codec = CodecType::kLz) {
  return DiskArray::WriteSingleFile(path, array, codec);
}

inline Result<std::unique_ptr<DiskArray>> OpenSciDbFile(
    const std::string& path) {
  return DiskArray::OpenSingleFile(path);
}

// ----------------- H5-like hierarchical format (.sh5) -----------------
// A file holds named datasets, each an n-dimensional dense double array
// with named dimensions (HDF5 without groups-within-groups, chunking or
// type zoo — enough structure for a faithful adaptor).

struct H5Dataset {
  std::string name;
  std::vector<std::string> dim_names;
  std::vector<int64_t> shape;        // per-dimension lengths
  std::vector<double> data;          // row-major, product(shape) values
};

Status WriteH5File(const std::string& path,
                   const std::vector<H5Dataset>& datasets);

class H5File {
 public:
  static Result<std::unique_ptr<H5File>> Open(const std::string& path);

  std::vector<std::string> DatasetNames() const;
  Result<const H5Dataset*> Dataset(const std::string& name) const;

 private:
  std::vector<H5Dataset> datasets_;
};

// Adaptor: one H5 dataset as a queryable array without a load step.
class H5DatasetAdaptor : public ArraySource {
 public:
  // Keeps the file open; `array_name` names the resulting array.
  static Result<std::unique_ptr<H5DatasetAdaptor>> Open(
      const std::string& path, const std::string& dataset,
      const std::string& array_name);

  const ArraySchema& schema() const override { return schema_; }
  int64_t bytes_read() const { return bytes_read_; }

 protected:
  Result<MemArray> ReadBox(const Box& box, ThreadPool* pool) const override;

 private:
  H5DatasetAdaptor() = default;
  ArraySchema schema_;
  H5Dataset dataset_;
  mutable int64_t bytes_read_ = 0;
};

// ----------------- NetCDF-like classic format (.snc) -----------------
// Dimensions table + variables over those dimensions + global text
// attributes, mirroring classic NetCDF structure.

struct NcDimension {
  std::string name;
  int64_t length = 0;
};

struct NcVariable {
  std::string name;
  std::vector<size_t> dim_ids;   // indices into the dimension table
  std::vector<double> data;      // row-major
};

struct NcFileContents {
  std::vector<NcDimension> dimensions;
  std::vector<NcVariable> variables;
  std::map<std::string, std::string> attributes;
};

Status WriteNcFile(const std::string& path, const NcFileContents& contents);
Result<NcFileContents> ReadNcFile(const std::string& path);

// Adaptor: one NetCDF variable as a queryable array.
class NcVariableAdaptor : public ArraySource {
 public:
  static Result<std::unique_ptr<NcVariableAdaptor>> Open(
      const std::string& path, const std::string& variable,
      const std::string& array_name);

  const ArraySchema& schema() const override { return schema_; }
  int64_t bytes_read() const { return bytes_read_; }

 protected:
  Result<MemArray> ReadBox(const Box& box, ThreadPool* pool) const override;

 private:
  NcVariableAdaptor() = default;
  ArraySchema schema_;
  NcVariable variable_;
  std::vector<int64_t> shape_;
  mutable int64_t bytes_read_ = 0;
};

}  // namespace scidb

#endif  // SCIDB_INSITU_FORMATS_H_
