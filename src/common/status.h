// Status / StatusOr: error handling without exceptions (library-wide).
#ifndef I2MR_COMMON_STATUS_H_
#define I2MR_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace i2mr {

/// Result of a fallible operation. Cheap to copy when OK.
///
/// [[nodiscard]]: silently dropping a Status hides I/O failures on commit
/// paths; deliberate best-effort call sites must say so with a cast to void
/// (or log the failure).
class [[nodiscard]] Status {
 public:
  enum class Code : int {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIOError = 4,
    kAborted = 5,
    kFailedPrecondition = 7,
    kInternal = 8,
    kResourceExhausted = 9,
    kUnavailable = 10,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  /// A quota or rate limit said no (admission control); retryable later.
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  /// The component is temporarily not serving this operation (e.g. a
  /// pipeline in degraded read-only mode); retry after it recovers.
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  /// Human-readable "CODE: message" string.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Either a value of T or an error Status. Access to value() requires ok().
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr from OK status needs a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace i2mr

/// Propagate a non-OK Status from the current function.
#define I2MR_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::i2mr::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

#endif  // I2MR_COMMON_STATUS_H_
