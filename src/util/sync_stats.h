// Per-thread time-breakdown and lock-count accounting.
//
// Reproduces the measurement methodology of the paper's evaluation:
//  * Figs. 1(b,c), 2: wall time divided into Work / LockMgr contention /
//    LockMgr other / other contention / DORA local locking.
//  * Fig. 3: time inside the lock manager divided into Acquire / Release
//    and their contention (latch spinning) components.
//  * Fig. 5: counts of acquired locks by class (row-level / higher-level /
//    DORA thread-local).
//
// Model: every thread is, at any instant, in exactly one TimeClass. A
// ScopedTimeClass guard switches the class and restores the previous one on
// destruction, so attribution is exact and non-overlapping even when
// instrumented sections nest (e.g. a latch spin inside lock acquire).

#ifndef DORADB_UTIL_SYNC_STATS_H_
#define DORADB_UTIL_SYNC_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

namespace doradb {

namespace obs {
class Counter;
}  // namespace obs

enum class TimeClass : uint8_t {
  kUnaccounted = 0,      // outside any measured region (driver code, idle)
  kWork,                 // useful transaction work
  kLockAcquire,          // centralized lock manager: grant path, uncontended
  kLockAcquireContention,// spinning on a lock-head latch during acquire
  kLockWait,             // blocked waiting for an incompatible lock
  kLockRelease,          // release path, uncontended
  kLockReleaseContention,// spinning on a lock-head latch during release
  kLockOther,            // deadlock detection, hierarchy bookkeeping
  kDoraLocalLock,        // DORA thread-local lock table operations
  kDoraQueue,            // DORA incoming/completed queue transfer + latches
  kDoraRvp,              // RVP counter updates and phase hand-off
  kLogWork,              // log buffer copy / flush work
  kLogContention,        // spinning on the log buffer latch
  kBufferContention,     // buffer pool latch spinning
  kOtherContention,      // any other instrumented latch
  kClassCount
};

const char* TimeClassName(TimeClass tc);

constexpr size_t kNumTimeClasses = static_cast<size_t>(TimeClass::kClassCount);

enum class LockCounter : uint8_t {
  kRowLevel = 0,    // centralized row (RID) locks
  kHigherLevel,     // centralized non-row locks (table / database intents)
  kDoraLocal,       // DORA thread-local (key-prefix) locks
  kCounterCount
};

constexpr size_t kNumLockCounters =
    static_cast<size_t>(LockCounter::kCounterCount);

// Snapshot of accumulated statistics (aggregated or per-thread).
struct StatsSnapshot {
  std::array<uint64_t, kNumTimeClasses> cycles{};
  std::array<uint64_t, kNumLockCounters> lock_counts{};

  StatsSnapshot operator-(const StatsSnapshot& rhs) const;
  uint64_t TotalCycles() const;
  // Fraction of total accounted time spent in `tc`.
  double Fraction(TimeClass tc) const;
  uint64_t Cycles(TimeClass tc) const {
    return cycles[static_cast<size_t>(tc)];
  }
  uint64_t Locks(LockCounter lc) const {
    return lock_counts[static_cast<size_t>(lc)];
  }
  std::string ToString() const;
};

// One accumulator per thread; registered globally so benchmarks can
// aggregate across all worker threads.
class ThreadStats {
 public:
  ThreadStats();

  // Switch the current time class, accruing elapsed cycles to the previous
  // one. Returns the previous class so callers can restore it.
  TimeClass SwitchClass(TimeClass tc) {
    const uint64_t now = Cycles::Now();
    auto& slot = cycles_[static_cast<size_t>(current_)];
    // Only the owner thread writes; relaxed store avoids an atomic RMW.
    slot.store(slot.load(std::memory_order_relaxed) + (now - mark_),
               std::memory_order_relaxed);
    mark_ = now;
    const TimeClass prev = current_;
    current_ = tc;
    return prev;
  }

  void CountLock(LockCounter lc, uint64_t n = 1) {
    auto& slot = lock_counts_[static_cast<size_t>(lc)];
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  // Flush the in-progress interval into the accumulator (so snapshots taken
  // from other threads see up-to-date numbers modulo the current interval).
  void Flush() { SwitchClass(current_); }

  StatsSnapshot Snapshot() const;
  void Reset();

  // The calling thread's accumulator (created and registered on first use).
  static ThreadStats& Local();

  // Aggregate across every thread that ever registered.
  static StatsSnapshot AggregateSnapshot();
  // Zero all registered accumulators. Call only while workers are quiescent.
  static void ResetAll();

 private:
  std::array<std::atomic<uint64_t>, kNumTimeClasses> cycles_{};
  std::array<std::atomic<uint64_t>, kNumLockCounters> lock_counts_{};
  TimeClass current_ = TimeClass::kUnaccounted;
  uint64_t mark_ = 0;
};

// ---- durability accounting (file-backed log segments + page store) ----

enum class DurabilityCounter : uint8_t {
  kFsyncCalls = 0,      // fsync/fdatasync system calls issued
  kBytesFlushed,        // log bytes written to segment files
  kSegmentsSealed,      // segments closed to further appends
  kSegmentsUnlinked,    // sealed segments deleted by checkpoint truncation
  kDurabilityCount
};

constexpr size_t kNumDurabilityCounters =
    static_cast<size_t>(DurabilityCounter::kDurabilityCount);

const char* DurabilityCounterName(DurabilityCounter dc);

// Stream id used by the file-backed page store (pages.db); log streams use
// their partition index (the one-partition central log is stream 0).
constexpr uint32_t kPageStoreStream = 0xFFFFFFFFu;

// Per-stream durability counters. Streams are log partitions plus the page
// store. The counts live in the process-wide metrics registry as
// "durability.<log-N|pages>.<counter>", the single store; a stream
// resolves its registry counters once (DurabilityStats::Stream), so
// counting on a flush path takes no lock.
class DurabilityStats {
 public:
  struct Row {
    uint32_t stream;  // partition index, or kPageStoreStream
    std::array<uint64_t, kNumDurabilityCounters> counts{};
  };

  // One stream's counters. Construction registers them (it takes the
  // registry mutex: do it at startup, not under a log latch); Count is
  // then one relaxed add. A default-constructed Stream must not count.
  class Stream {
   public:
    Stream() = default;
    explicit Stream(uint32_t stream);
    void Count(DurabilityCounter dc, uint64_t n = 1) const;

   private:
    std::array<obs::Counter*, kNumDurabilityCounters> counters_{};
  };

  // Every stream with a non-zero count, partitions first (ascending), the
  // page store last.
  static std::vector<Row> Snapshot();
  // Zero every stream's counters (a snapshot right after is empty).
  static void Reset();
  // One line per stream: "log-0: fsyncs=12 bytes=4096 sealed=1 unlinked=0".
  static std::string ToString();
};

// RAII guard: enter a time class, restore the previous class on scope exit.
class ScopedTimeClass {
 public:
  explicit ScopedTimeClass(TimeClass tc)
      : stats_(ThreadStats::Local()), prev_(stats_.SwitchClass(tc)) {}
  ~ScopedTimeClass() { stats_.SwitchClass(prev_); }

  ScopedTimeClass(const ScopedTimeClass&) = delete;
  ScopedTimeClass& operator=(const ScopedTimeClass&) = delete;

 private:
  ThreadStats& stats_;
  TimeClass prev_;
};

}  // namespace doradb

#endif  // DORADB_UTIL_SYNC_STATS_H_
