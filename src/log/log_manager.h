// Central write-ahead log with group commit.
//
// All transactions append through one latched buffer — the paper observes
// (§5.4) that once DORA removes lock-manager contention, "the log manager
// becomes the new bottleneck" for write-heavy workloads (TPC-B, TPC-C
// NewOrder/Payment); spin time on the buffer latch is charged to
// TimeClass::kLogContention so benchmarks can show exactly that.
//
// Durability model: a background flusher moves buffered bytes to the
// "stable" region (the paper's in-memory log file system) and advances
// flushed_lsn. Commit waits until its commit record is covered. A crash
// (SimulateCrash) discards the volatile buffer; recovery reads only the
// stable region and must tolerate a torn tail.

#ifndef DORADB_LOG_LOG_MANAGER_H_
#define DORADB_LOG_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "log/log_backend.h"
#include "log/log_record.h"
#include "log/log_storage.h"
#include "util/spinlock.h"
#include "util/status.h"

namespace doradb {

class LogManager final : public LogBackend {
 public:
  struct Options {
    uint64_t flush_interval_us = 50;  // group-commit window
    bool synchronous = false;         // flush inline on every append (tests)
    // File-backed partitioned log only: an idle partition whose periodic
    // flush would persist nothing but a watermark-header advance may skip
    // the fdatasync up to this many consecutive ticks (then a heartbeat
    // sync bounds the persisted claim's lag). Waiters (commit acks,
    // explicit WaitFlushed) always force the sync, so durability
    // acknowledgements never observe the skip. The central backend — whose
    // single stream only syncs when it has data — ignores this.
    uint32_t idle_sync_skip_ticks = 64;
    // Non-empty: back the stable region with segment files under
    // `<data_dir>/central` (log/segment_file.h); existing segments are
    // adopted at construction and LSN allocation resumes past them. The
    // partitioned backend ignores this field (it has its own data_dir).
    std::string data_dir;
    size_t segment_target_bytes = 1 << 20;
  };

  explicit LogManager(Options options);
  LogManager() : LogManager(Options()) {}
  ~LogManager() override;
  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // Append a record; assigns and returns its LSN (end-of-record byte
  // offset, so flushed_lsn >= lsn means the record is durable).
  Lsn Append(LogRecord* rec) override;

  // Block until everything up to `lsn` is stable (group commit wait).
  // Unavailable once the stable medium is poisoned and lsn is uncovered.
  Status WaitFlushed(Lsn lsn) override;
  // Trigger + wait: used by the buffer pool's WAL rule before page steals.
  Status FlushTo(Lsn lsn) override;

  Lsn flushed_lsn() const override {
    return flushed_lsn_.load(std::memory_order_acquire);
  }
  Lsn current_lsn() const override {
    return next_lsn_.load(std::memory_order_relaxed);
  }

  // Crash simulation: drop all unflushed bytes.
  void DiscardVolatileTail() override;

  // Recovery: decode the stable region (tolerates a torn last record).
  std::vector<LogRecord> ReadStable() const override;

  // Checkpoint truncation: drop whole stable records with lsn < point.
  // LSNs are byte offsets, but nothing indexes the stable region by
  // offset — records carry their own LSN and decode sequentially, so
  // dropping a byte prefix keeps the stream self-describing. Segment
  // unlinks and the directory fsync run after stable_mu_ is released.
  void ReclaimStableBelow(Lsn point) override;
  uint64_t reclaimed_bytes() const override {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  // Test hook: flip one stable byte, simulating media corruption in the
  // middle of the log (the per-record CRC must catch it).
  void FlipStableByte(size_t index);

  uint64_t appends() const override {
    return appends_.load(std::memory_order_relaxed);
  }
  uint64_t flushes() const override {
    return flushes_.load(std::memory_order_relaxed);
  }
  size_t stable_size() const override;
  size_t segment_files() const override;
  PageId recovered_max_page_id() const override {
    return stable_->recovered_max_page_id();
  }

  // True once the stable medium latched a persistent I/O failure: the
  // flush horizon is frozen, logged commits fail Unavailable, reads keep
  // serving from what is already durable.
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

 private:
  void FlusherLoop();
  // Moves the volatile buffer into the stable region. Returns new flushed lsn.
  Lsn DoFlush();

  const Options options_;

  TatasLock buffer_latch_;          // guards buffer_ and next_lsn_ assignment
  std::vector<uint8_t> buffer_;     // volatile tail [flushed_lsn_, next_lsn_)
  // Under stable_mu_: the buffer DoFlush drains into (by swap) and writes
  // out. Swapping with it instead of a fresh vector keeps both buffers'
  // capacity, so appends never regrow buffer_ from empty under the latch.
  std::vector<uint8_t> spare_;
  std::atomic<Lsn> next_lsn_{1};    // LSN 0 is kInvalidLsn
  std::atomic<Lsn> flushed_lsn_{1};

  mutable std::mutex stable_mu_;
  // The durability medium: in-memory bytes, or segment files when
  // Options::data_dir is set (see log/log_storage.h).
  std::unique_ptr<LogStorage> stable_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> poisoned_{false};  // mirrors stable_->poisoned()
  std::thread flusher_;

  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> reclaimed_{0};
};

}  // namespace doradb

#endif  // DORADB_LOG_LOG_MANAGER_H_
