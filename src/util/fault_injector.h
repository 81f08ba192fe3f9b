// FaultInjector: deterministic storage fault injection for the durability
// path.
//
// Every syscall on the durability path (segment-file WAL, pages.db,
// catalog.db) goes through the wrappers below instead of calling
// pwrite/fdatasync/open directly. With no plan armed the wrappers are a
// single relaxed atomic load plus the raw syscall — cheap enough to leave
// compiled in unconditionally, which is what makes the chaos CI job able
// to drive the production binaries.
//
// A plan picks one syscall (`op`), an errno to inject (`EIO`, `ENOSPC`,
// ...), which occurrence to hit (`nth`, 1-based, counted per-op across the
// process), whether the fault repeats (`sticky`) and how the write fails:
//  * kError      — the syscall does nothing and returns -1/errno;
//  * kShortWrite — pwrite really writes about half the buffer and returns
//                  that count (no errno): the transient partial-write case
//                  a correct caller must loop on;
//  * kTorn       — pwrite really writes about half the buffer and THEN
//                  returns -1/errno: media died mid-write, leaving a torn
//                  record on disk for recovery to trim.
// `path_substr` (optional) restricts the fault to file paths containing
// the substring, so a test can target the WAL but not the catalog.
//
// Configuration is programmatic only (Arm/Reset); the engine reads no
// environment. The bench rigs map the chaos CI's DORADB_FAULT_* variables
// to a plan and arm it once per process (bench/bench_common.h).
//
// Determinism: occurrences are counted with a per-op atomic, so a
// single-threaded test hits exactly the Nth call. Concurrent flushers make
// the *global* ordinal racy, which is fine for chaos runs (the property
// under test — no acked commit lost — must hold wherever the fault lands).
//
// Thread safety: Arm/Reset are for quiesced moments (test setup); the
// wrappers themselves are lock-free and safe from any thread.

#ifndef DORADB_UTIL_FAULT_INJECTOR_H_
#define DORADB_UTIL_FAULT_INJECTOR_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>

namespace doradb {

enum class FaultOp : uint8_t { kNone = 0, kPwrite, kFdatasync, kOpen };
enum class FaultMode : uint8_t { kError = 0, kShortWrite, kTorn };

struct FaultPlan {
  FaultOp op = FaultOp::kNone;
  int err = 5;                     // EIO
  uint64_t nth = 1;                // 1-based occurrence that faults
  bool sticky = false;             // fault every occurrence >= nth
  FaultMode mode = FaultMode::kError;  // pwrite failure shape
  std::string path_substr;         // empty = any path
};

class FaultInjector {
 public:
  // Process-wide instance, like obs::MetricsRegistry::Default(). Starts
  // disarmed.
  static FaultInjector& Default();

  // Replace the armed plan (op = kNone disarms) and zero the occurrence
  // counters. Call while the instrumented files are quiesced.
  void Arm(const FaultPlan& plan);
  void Reset() { Arm(FaultPlan{}); }

  // Total faults actually injected since the last Arm/Reset.
  uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  // Syscall wrappers. Each either injects per the armed plan or performs
  // the raw syscall. `path` is the file the fd belongs to (for the
  // path_substr filter); pass what the caller knows, "" is acceptable.
  ssize_t Pwrite(int fd, const void* buf, size_t n, off_t off,
                 const char* path);
  int Fdatasync(int fd, const char* path);
  // fsync shares the kFdatasync plan and counter (one "sync" op family).
  int Fsync(int fd, const char* path);
  int Open(const char* path, int flags, mode_t mode);

 private:
  FaultInjector();

  // Returns true when this occurrence of `op` on `path` should fault.
  bool ShouldFault(FaultOp op, const char* path);

  FaultPlan plan_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> count_[4];  // per-op occurrence counters
  std::atomic<uint64_t> injected_{0};
};

}  // namespace doradb

#endif  // DORADB_UTIL_FAULT_INJECTOR_H_
