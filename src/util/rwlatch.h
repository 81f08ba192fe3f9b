// Reader-writer spin latch for physical (page / node) consistency.
//
// Latching protects the physical consistency of in-memory structures and is
// distinct from logical locking (see the paper's footnote in Section 3).
// Writer-preference keeps B+Tree structure modifications from starving.

#ifndef DORADB_UTIL_RWLATCH_H_
#define DORADB_UTIL_RWLATCH_H_

#include <atomic>
#include <cstdint>

#include "util/spinlock.h"
#include "util/sync_stats.h"

namespace doradb {

class RwLatch {
 public:
  RwLatch() = default;
  RwLatch(const RwLatch&) = delete;
  RwLatch& operator=(const RwLatch&) = delete;

  bool TryReadLock() {
    uint32_t s = state_.load(std::memory_order_relaxed);
    while ((s & kWriterBits) == 0) {
      if (state_.compare_exchange_weak(s, s + kReaderOne,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void ReadLock(TimeClass tc = TimeClass::kOtherContention) {
    if (TryReadLock()) return;
    ScopedTimeClass timer(tc);
    Backoff backoff;
    while (!TryReadLock()) backoff.Spin();
  }

  void ReadUnlock() {
    state_.fetch_sub(kReaderOne, std::memory_order_release);
  }

  bool TryWriteLock() {
    uint32_t expected = 0;
    return state_.compare_exchange_strong(expected, kWriterLocked,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void WriteLock(TimeClass tc = TimeClass::kOtherContention) {
    if (TryWriteLock()) return;
    ScopedTimeClass timer(tc);
    Backoff backoff;
    // Announce intent so new readers back off (writer preference).
    state_.fetch_or(kWriterWaiting, std::memory_order_relaxed);
    for (;;) {
      uint32_t s = state_.load(std::memory_order_relaxed);
      if ((s & ~kWriterWaiting) == 0) {
        if (state_.compare_exchange_weak(s, kWriterLocked,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          return;
        }
      } else {
        backoff.Spin();
        // Re-announce: another writer may have consumed the flag.
        state_.fetch_or(kWriterWaiting, std::memory_order_relaxed);
      }
    }
  }

  void WriteUnlock() { state_.store(0, std::memory_order_release); }

 private:
  static constexpr uint32_t kWriterLocked = 1u;
  static constexpr uint32_t kWriterWaiting = 2u;
  static constexpr uint32_t kWriterBits = kWriterLocked | kWriterWaiting;
  static constexpr uint32_t kReaderOne = 4u;

  std::atomic<uint32_t> state_{0};
};

class ReadGuard {
 public:
  explicit ReadGuard(RwLatch& latch,
                     TimeClass tc = TimeClass::kOtherContention)
      : latch_(latch) {
    latch_.ReadLock(tc);
  }
  ~ReadGuard() { latch_.ReadUnlock(); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

 private:
  RwLatch& latch_;
};

class WriteGuard {
 public:
  explicit WriteGuard(RwLatch& latch,
                      TimeClass tc = TimeClass::kOtherContention)
      : latch_(latch) {
    latch_.WriteLock(tc);
  }
  ~WriteGuard() { latch_.WriteUnlock(); }
  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;

 private:
  RwLatch& latch_;
};

}  // namespace doradb

#endif  // DORADB_UTIL_RWLATCH_H_
