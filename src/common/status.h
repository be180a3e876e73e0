#ifndef SCIDB_COMMON_STATUS_H_
#define SCIDB_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace scidb {

// Error categories used across the engine. Mirrors the coarse taxonomy of
// Arrow/RocksDB status objects: a code plus a human-readable message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kNotImplemented,
  kIOError,
  kCorruption,
  kTypeMismatch,
  kInternal,
  // Networking outcomes (src/net/, DESIGN.md §10). Unavailable = the peer
  // cannot be reached right now (refused, partitioned, shut down) and the
  // call is safe to retry; DeadlineExceeded = the caller's time budget ran
  // out (retrying with the same deadline cannot succeed).
  kUnavailable,
  kDeadlineExceeded,
  // Query-server outcomes (src/server/, DESIGN.md §15). Busy = the
  // admission controller rejected the query because the server is at its
  // concurrency or queued-bytes bound — typed so clients can back off and
  // resubmit instead of treating it as a hard failure. Cancelled = the
  // query was aborted by an explicit client Cancel; retrying verbatim is
  // pointless (the caller asked for the abort).
  kBusy,
  kCancelled,
  // The object is not in the state the call needs (e.g. materializing a
  // named version that another version still reads through); retrying
  // verbatim fails the same way until that state changes.
  kFailedPrecondition,
};

// The last code: decoders reject any ordinal above it.
inline constexpr StatusCode kMaxStatusCode = StatusCode::kFailedPrecondition;

// Returns a stable human-readable name ("InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

// Status is the library-wide error carrier. Library code does not throw;
// every fallible operation returns Status (or Result<T>, see result.h).
// The OK state is represented by a null rep so that passing around OK
// statuses costs a single pointer.
//
// The class-level [[nodiscard]] makes every function returning Status by
// value warn when the result is ignored; the lint gate (tools/lint.py)
// compiles a probe with -Werror=unused-result to keep this enforced.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK.
  Status(StatusCode code, std::string message);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status TypeMismatch(std::string msg) {
    return Status(StatusCode::kTypeMismatch, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(StatusCode::kBusy, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return rep_ == nullptr; }
  [[nodiscard]] StatusCode code() const {
    return rep_ ? rep_->code : StatusCode::kOk;
  }
  [[nodiscard]] const std::string& message() const;

  bool IsInvalid() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsNotImplemented() const {
    return code() == StatusCode::kNotImplemented;
  }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsTypeMismatch() const { return code() == StatusCode::kTypeMismatch; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsBusy() const { return code() == StatusCode::kBusy; }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }

  // "OK" or "InvalidArgument: <message>".
  std::string ToString() const;

  // Returns a copy of this status with `context` prepended to the message.
  // No-op for OK statuses.
  Status WithContext(const std::string& context) const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<Rep> rep_;  // null == OK
};

}  // namespace scidb

#endif  // SCIDB_COMMON_STATUS_H_
