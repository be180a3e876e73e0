#include "common/status.h"

namespace scidb {

namespace {
const std::string& EmptyString() {
  static const std::string* const kEmpty = new std::string();
  return *kEmpty;
}
}  // namespace

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kTypeMismatch:
      return "TypeMismatch";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kBusy:
      return "Busy";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    rep_ = std::make_unique<Rep>(Rep{code, std::move(message)});
  }
}

Status::Status(const Status& other) {
  if (other.rep_) rep_ = std::make_unique<Rep>(*other.rep_);
}

Status& Status::operator=(const Status& other) {
  if (this != &other) {
    rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
  }
  return *this;
}

const std::string& Status::message() const {
  return rep_ ? rep_->message : EmptyString();
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(rep_->code);
  out += ": ";
  out += rep_->message;
  return out;
}

Status Status::WithContext(const std::string& context) const {
  if (ok()) return *this;
  return Status(rep_->code, context + ": " + rep_->message);
}

}  // namespace scidb
