// LogPartition: one partition of the plog — a private latched buffer, a
// private stable stream (in memory or segment files, see
// log/log_storage.h), and a durability watermark.
//
// An executor bound to this partition appends here without ever touching
// another partition's latch; with a 1:1 executor/partition binding the
// latch is uncontended and TimeClass::kLogContention drops to ~zero.
//
// Watermark invariant: every record this partition hosts with
// GSN <= watermark() is in the stable stream. The watermark advances on
// every flush to the clock's last_issued value read while the (drained)
// buffer latch is held — any later append of this partition must draw a
// strictly larger GSN, so the claim stays true even for an idle partition,
// which is what keeps one quiet partition from capping the global
// recovery horizon. With a file-backed stream the watermark is persisted
// (Sync) before it is advertised, so the invariant — and therefore every
// commit acknowledgement gated on it — holds across process lifetimes.

#ifndef DORADB_PLOG_LOG_PARTITION_H_
#define DORADB_PLOG_LOG_PARTITION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "log/log_record.h"
#include "log/log_storage.h"
#include "plog/gsn_clock.h"
#include "util/spinlock.h"

namespace doradb {
namespace plog {

class LogPartition {
 public:
  // `storage` nullptr selects the in-memory medium (the seed behaviour).
  LogPartition(GsnClock* clock, std::unique_ptr<LogStorage> storage)
      : clock_(clock),
        stable_(storage != nullptr
                    ? std::move(storage)
                    : std::make_unique<MemoryLogStorage>()) {
    buffer_.reserve(1 << 18);
    // Born poisoned (open-time media failure): reads/recovery still work,
    // but the watermark will never advance.
    if (stable_->poisoned()) {
      poisoned_.store(true, std::memory_order_release);
    }
  }
  explicit LogPartition(GsnClock* clock) : LogPartition(clock, nullptr) {}
  LogPartition(const LogPartition&) = delete;
  LogPartition& operator=(const LogPartition&) = delete;

  // Stamp `rec` with a fresh GSN and buffer it. Returns the GSN.
  Lsn Append(LogRecord* rec);

  // Move buffered bytes to the stable stream, make them durable, and
  // advance the watermark.
  //
  // `force_watermark` distinguishes the two callers. Waiters (commit
  // acks, WaitFlushed, shutdown) pass true — the watermark must advance
  // now, whatever it costs. The periodic flusher passes false: an IDLE
  // file-backed partition (nothing appended, only the global GSN horizon
  // moved) may then skip the watermark-only header write + fdatasync for
  // up to idle_sync_skip_ticks consecutive ticks. The in-memory watermark
  // only ever advances after the claim is persisted, so the skip trades a
  // bounded horizon lag (waiters force through it on demand) for not
  // fsyncing every quiet partition on every tick — it can never
  // un-acknowledge a commit.
  //
  // `target` (waiters only; kInvalidLsn = none) is the GSN the caller needs
  // stable. Flushes serialize on stable_mu_, so a caller that queued behind
  // another flush re-checks once it holds the mutex and returns at once if
  // the watermark already covers `target` — the leader's AppendBatch and
  // Sync covered it, and a second round would only delay the next waiter.
  void Flush(bool force_watermark = true, Lsn target = kInvalidLsn);

  // All records of this partition with GSN <= watermark() are stable.
  Lsn watermark() const { return watermark_.load(std::memory_order_acquire); }

  // True once the stable stream latched a persistent I/O failure (failed
  // fsync or exhausted write retries). The watermark is frozen: it can
  // never advance again, so any wait gating on a GSN above it must fail
  // Unavailable instead of spinning.
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  // Cold-start (file-backed stream recovered from a previous lifetime):
  // derive the partition's durability claim — the larger of the persisted
  // watermark and the last decodable GSN — set the watermark to it, and
  // return it so the facade can advance the shared clock past it.
  Lsn RecoverFromStorage();

  // Crash simulation: drop buffered records and return this partition's
  // durability claim — the GSN through which it is guaranteed to hold
  // every record it ever hosted. If nothing was lost (empty buffer, clean
  // stable stream) that is the clock's last issued GSN; otherwise it is
  // the last decodable stable GSN, because the stable stream is a prefix
  // of the partition's append stream and every loss is a suffix. The
  // facade takes the min across partitions and truncates to it.
  Lsn DiscardVolatileAndClaim();

  // Kill simulation (harsher than a crash): drop buffered records and
  // freeze the partition — no truncation, no further flushes, the stable
  // stream stays exactly as the "dead process" left it (torn tails, stale
  // watermark headers and all). Only meaningful for file-backed streams
  // that a second lifetime will reopen.
  void Kill();

  // Restart truncation: drop every stable record with GSN > `horizon`
  // (plus any torn bytes) and raise the watermark to the horizon, so a
  // later crash/recover cycle sees a globally consistent prefix.
  void TruncateStableTo(Lsn horizon);

  // Checkpoint truncation (the other end): reclaim every stable record
  // with GSN < `point`. The checkpoint coordinator vouches that those
  // records are reflected in the disk image and that no live transaction
  // can still need them for undo. The memory medium drops the exact byte
  // prefix; segment files seal and unlink whole segments whose max GSN
  // sits below the point — either way the surviving stream remains a
  // decodable GSN-ordered suffix of the append stream. The unlinks and
  // the directory fsync run after stable_mu_ is released.
  void ReclaimStableBelow(Lsn point);
  uint64_t reclaimed_bytes() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  // Decode the stable stream. Returns records in GSN order; if `tail` is
  // non-null it is set OK for a clean stream, or to a Corruption status
  // naming the segment file and byte offset of the first torn/corrupt
  // record — in which case the partition's effective horizon is the last
  // decoded GSN, not watermark().
  std::vector<LogRecord> ReadStable(Status* tail) const;

  // Test hook: tear `bytes` off the stable tail, simulating a partial
  // last write to this partition's log file.
  void TearStableTail(size_t bytes);

  // Test hook: flip one stable byte, simulating media corruption in the
  // middle of the stream (the per-record CRC must catch it).
  void FlipStableByte(size_t index);

  // Test hook: crash mid-flush — move only the first `bytes` bytes of the
  // volatile buffer to the stable stream (possibly ending mid-record,
  // i.e. a torn tail), drop the rest, and do NOT advance the watermark,
  // exactly as an interrupted flush would leave the partition.
  void PartialFlushTorn(size_t bytes);

  // Consecutive-tick budget for skipping idle watermark-only syncs.
  void set_idle_sync_skip_ticks(uint32_t n) { idle_skip_limit_ = n; }

  uint64_t appends() const { return appends_.load(std::memory_order_relaxed); }
  uint64_t flushes() const { return flushes_.load(std::memory_order_relaxed); }
  // Watermark-only header fdatasyncs elided on idle periodic flushes.
  uint64_t idle_syncs_skipped() const {
    return idle_syncs_skipped_.load(std::memory_order_relaxed);
  }
  size_t stable_size() const;
  size_t segment_count() const;
  PageId recovered_max_page_id() const {
    return stable_->recovered_max_page_id();
  }
  // Last decodable GSN found by the storage's open scan (0 when none).
  Lsn recovered_last_gsn() const { return stable_->recovered_last_lsn(); }

 private:
  GsnClock* const clock_;

  TatasLock buffer_latch_;       // guards buffer_, last stamp, GSN stamping
  std::vector<uint8_t> buffer_;  // volatile tail, records in GSN order
  // Under stable_mu_: the buffer Flush drains into (by swap) and writes
  // out; it keeps its capacity for the next swap.
  std::vector<uint8_t> spare_;
  Lsn buffer_last_gsn_ = 0;      // highest GSN currently in buffer_

  mutable std::mutex stable_mu_;  // serializes flushes + stable reads
  const std::unique_ptr<LogStorage> stable_;
  std::atomic<Lsn> watermark_{0};  // written only under stable_mu_
  bool killed_ = false;            // under stable_mu_
  std::atomic<bool> poisoned_{false};  // set under stable_mu_, one-way

  uint32_t idle_skip_limit_ = 0;  // 0 = never skip
  uint32_t idle_skips_ = 0;       // consecutive skips so far (under stable_mu_)

  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> reclaimed_{0};
  std::atomic<uint64_t> idle_syncs_skipped_{0};
};

}  // namespace plog
}  // namespace doradb

#endif  // DORADB_PLOG_LOG_PARTITION_H_
