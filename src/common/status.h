#ifndef PHOEBE_COMMON_STATUS_H_
#define PHOEBE_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

namespace phoebe {

/// Wait descriptor attached to a kBlocked status. Tells the coroutine layer
/// what the operation is waiting on so the scheduler can classify urgency
/// (Section 7.1 of the paper: latch spins and async reads are high urgency,
/// tuple-lock waits are low urgency).
enum class WaitKind : uint8_t {
  kNone = 0,
  kLatch = 1,        // high urgency: contended latch, retry soon
  kAsyncRead = 2,    // high urgency: page read in flight
  kXidLock = 3,      // low urgency: waiting for another transaction to finish
  kCommitFlush = 4,  // low urgency: waiting for WAL group flush (RFA commit)
};

/// Status codes for all fallible operations. PhoebeDB does not use C++
/// exceptions; every fallible public API returns Status or Result<T>.
enum class StatusCode : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kCorruption = 2,
  kInvalidArgument = 3,
  kIOError = 4,
  kBlocked = 5,        // operation would block; see wait_kind()/wait_xid()
  kAborted = 6,        // transaction must abort (e.g. RR first-updater-wins)
  kAlreadyExists = 7,
  kNotSupported = 8,
  kBufferFull = 9,     // no evictable frame available right now
  kKeyExists = 10,     // unique index violation
  kUnavailable = 11,   // engine fail-stop (e.g. WAL sync failure); retry
                       // after reopen/recovery, never treat as success
};

/// Lightweight status object. Ok status carries no allocation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status AlreadyExists(std::string msg = "") {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status BufferFull() { return Status(StatusCode::kBufferFull, ""); }
  static Status KeyExists() { return Status(StatusCode::kKeyExists, ""); }
  static Status Unavailable(std::string msg = "") {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  /// A blocked status carrying the wait descriptor. `xid` is the blocking
  /// transaction for kXidLock waits, 0 otherwise.
  static Status Blocked(WaitKind kind, uint64_t xid = 0) {
    Status s(StatusCode::kBlocked, "");
    s.wait_kind_ = kind;
    s.wait_xid_ = xid;
    return s;
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsBlocked() const { return code_ == StatusCode::kBlocked; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsBufferFull() const { return code_ == StatusCode::kBufferFull; }
  bool IsKeyExists() const { return code_ == StatusCode::kKeyExists; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  StatusCode code() const { return code_; }
  WaitKind wait_kind() const { return wait_kind_; }
  uint64_t wait_xid() const { return wait_xid_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  StatusCode code_;
  WaitKind wait_kind_ = WaitKind::kNone;
  uint64_t wait_xid_ = 0;
  std::string msg_;
};

/// Result<T>: a value or an error status (value is valid iff status().ok()).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  T& value() { return value_; }
  const T& value() const { return value_; }
  T& operator*() { return value_; }
  const T& operator*() const { return value_; }
  T* operator->() { return &value_; }

 private:
  Status status_;
  T value_{};
};

/// Propagate a non-ok Status from an expression.
#define PHOEBE_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::phoebe::Status _st = (expr);              \
    if (!_st.ok()) return _st;                  \
  } while (0)

}  // namespace phoebe

#endif  // PHOEBE_COMMON_STATUS_H_
