#include "util/fault_injector.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

namespace doradb {

FaultInjector::FaultInjector() {
  for (auto& c : count_) c.store(0, std::memory_order_relaxed);
}

FaultInjector& FaultInjector::Default() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Arm(const FaultPlan& plan) {
  armed_.store(false, std::memory_order_release);
  plan_ = plan;
  for (auto& c : count_) c.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
  armed_.store(plan.op != FaultOp::kNone, std::memory_order_release);
}

bool FaultInjector::ShouldFault(FaultOp op, const char* path) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  if (plan_.op != op) return false;
  if (!plan_.path_substr.empty() &&
      (path == nullptr ||
       strstr(path, plan_.path_substr.c_str()) == nullptr)) {
    return false;
  }
  const uint64_t seq =
      count_[static_cast<int>(op)].fetch_add(1, std::memory_order_relaxed) + 1;
  const bool hit = plan_.sticky ? seq >= plan_.nth : seq == plan_.nth;
  if (hit) injected_.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

ssize_t FaultInjector::Pwrite(int fd, const void* buf, size_t n, off_t off,
                              const char* path) {
  if (ShouldFault(FaultOp::kPwrite, path)) {
    const FaultMode mode = plan_.mode;
    if (mode == FaultMode::kShortWrite || mode == FaultMode::kTorn) {
      // Really land a prefix so the medium holds a torn record. A 1-byte
      // write has no shorter prefix: short-write mode passes it through
      // whole (a 0-byte success would spin correct retry loops).
      const size_t half = n > 1 ? n / 2 : n;
      const ssize_t w = ::pwrite(fd, buf, half, off);
      if (mode == FaultMode::kShortWrite) return w;
    }
    errno = plan_.err;
    return -1;
  }
  return ::pwrite(fd, buf, n, off);
}

int FaultInjector::Fdatasync(int fd, const char* path) {
  if (ShouldFault(FaultOp::kFdatasync, path)) {
    errno = plan_.err;
    return -1;
  }
  return ::fdatasync(fd);
}

int FaultInjector::Fsync(int fd, const char* path) {
  if (ShouldFault(FaultOp::kFdatasync, path)) {
    errno = plan_.err;
    return -1;
  }
  return ::fsync(fd);
}

int FaultInjector::Open(const char* path, int flags, mode_t mode) {
  if (ShouldFault(FaultOp::kOpen, path)) {
    errno = plan_.err;
    return -1;
  }
  return ::open(path, flags, mode);
}

}  // namespace doradb
