// Status: lightweight error propagation for the storage engine.
//
// Follows the RocksDB convention: operations that can fail return a Status
// (or a value + Status out-param) rather than throwing. Transaction-abort
// conditions (deadlock, conflict) are ordinary Status codes so that the
// engine can roll back and retry without unwinding through exceptions.

#ifndef DORADB_UTIL_STATUS_H_
#define DORADB_UTIL_STATUS_H_

#include <cstdint>
#include <string>

namespace doradb {

class Status {
 public:
  enum class Code : uint8_t {
    kOk = 0,
    kNotFound = 1,       // key / record / page absent
    kDuplicate = 2,      // unique-key violation
    kDeadlock = 3,       // lock manager chose this txn as a victim
    kAborted = 4,        // transaction aborted (user or system initiated)
    kTimeout = 5,        // lock wait timed out
    kBusy = 6,           // resource transiently unavailable
    kInvalidArgument = 7,
    kFull = 8,           // page / buffer pool out of space
    kCorruption = 9,     // integrity check failed
    kNotSupported = 10,
    kIOError = 11,
    kUnavailable = 12,   // service degraded (e.g. log media poisoned)
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Duplicate(std::string msg = "") {
    return Status(Code::kDuplicate, std::move(msg));
  }
  static Status Deadlock(std::string msg = "") {
    return Status(Code::kDeadlock, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status Timeout(std::string msg = "") {
    return Status(Code::kTimeout, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status Full(std::string msg = "") {
    return Status(Code::kFull, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsDuplicate() const { return code_ == Code::kDuplicate; }
  bool IsDeadlock() const { return code_ == Code::kDeadlock; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsTimeout() const { return code_ == Code::kTimeout; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsFull() const { return code_ == Code::kFull; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }
  std::string ToString() const;

  // Stable lowercase label for the code, suitable as a metric-name suffix
  // (e.g. "txn.aborts." + s.CodeName()).
  const char* CodeName() const {
    switch (code_) {
      case Code::kOk: return "ok";
      case Code::kNotFound: return "not_found";
      case Code::kDuplicate: return "duplicate";
      case Code::kDeadlock: return "deadlock";
      case Code::kAborted: return "aborted";
      case Code::kTimeout: return "timeout";
      case Code::kBusy: return "busy";
      case Code::kInvalidArgument: return "invalid_argument";
      case Code::kFull: return "full";
      case Code::kCorruption: return "corruption";
      case Code::kNotSupported: return "not_supported";
      case Code::kIOError: return "io_error";
      case Code::kUnavailable: return "unavailable";
    }
    return "unknown";
  }

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

// Propagate non-OK status to the caller.
#define DORADB_RETURN_NOT_OK(expr)          \
  do {                                      \
    ::doradb::Status _s = (expr);           \
    if (!_s.ok()) return _s;                \
  } while (0)

}  // namespace doradb

#endif  // DORADB_UTIL_STATUS_H_
