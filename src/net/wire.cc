#include "net/wire.h"

#include <string>
#include <utility>

#include "common/macros.h"

namespace scidb {
namespace net {

void EncodeStatus(const Status& s, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(s.code()));
  w->PutString(s.message());
}

Status DecodeStatus(ByteReader* r, Status* out) {
  ASSIGN_OR_RETURN(uint8_t code, r->GetU8());
  if (code > static_cast<uint8_t>(kMaxStatusCode)) {
    return Status::Corruption("status code out of range: " +
                              std::to_string(code));
  }
  ASSIGN_OR_RETURN(std::string msg, r->GetString());
  *out = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

void EncodeCoordinates(const Coordinates& c, ByteWriter* w) {
  w->PutVarint(c.size());
  for (int64_t x : c) w->PutSignedVarint(x);
}

Result<Coordinates> DecodeCoordinates(ByteReader* r) {
  ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > r->remaining()) {
    return Status::Corruption("coordinate count too large");
  }
  Coordinates c;
  c.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(int64_t x, r->GetSignedVarint());
    c.push_back(x);
  }
  return c;
}

}  // namespace net
}  // namespace scidb
