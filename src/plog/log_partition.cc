#include "plog/log_partition.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/clock.h"

namespace doradb {
namespace plog {

Lsn LogPartition::Append(LogRecord* rec) {
  Lsn gsn;
  {
    TatasGuard g(buffer_latch_, TimeClass::kLogContention);
    ScopedTimeClass timer(TimeClass::kLogWork);
    // Stamping under the latch keeps this partition's buffer in GSN order
    // and lets Flush() read a safe watermark from the drained buffer.
    gsn = clock_->Next();
    rec->lsn = gsn;
    rec->SerializeTo(&buffer_);
    buffer_last_gsn_ = gsn;
  }
  appends_.fetch_add(1, std::memory_order_relaxed);
  return gsn;
}

void LogPartition::Flush(bool force_watermark, Lsn target) {
  // Histogram records happen after stable_mu_ drops: commit acks gate on
  // this mutex, so any cycles spent inside it (including the rdtsc pair)
  // stretch the serialized flush section for every waiter. fsync timing
  // is only taken on durable media — on the in-memory medium Sync() is a
  // no-op and timing it would just measure the clock.
  size_t flushed_bytes = 0;
  uint64_t sync_ns = 0;
  bool synced = false;
  const bool metrics = obs::MetricsEnabled();
  {
    std::lock_guard<std::mutex> g(stable_mu_);
    if (killed_ || poisoned_.load(std::memory_order_relaxed)) return;
    if (target != kInvalidLsn &&
        watermark_.load(std::memory_order_relaxed) >= target) {
      return;  // follower: the flush it queued behind covered it
    }
    std::vector<uint8_t>& pending = spare_;
    pending.clear();
    Lsn horizon, batch_gsn;
    {
      TatasGuard b(buffer_latch_, TimeClass::kLogContention);
      pending.swap(buffer_);
      batch_gsn = buffer_last_gsn_;
      // Buffer is empty and the latch blocks new stamps: every future record
      // of this partition gets a GSN > horizon.
      horizon = clock_->last_issued();
    }
    if (!pending.empty()) {
      ScopedTimeClass timer(TimeClass::kLogWork);
      if (!stable_->AppendBatch(pending.data(), pending.size(), batch_gsn)
               .ok()) {
        // Persistent write failure (the storage latched itself poisoned):
        // the watermark freezes here and waiters fail Unavailable.
        poisoned_.store(true, std::memory_order_release);
        return;
      }
      flushes_.fetch_add(1, std::memory_order_relaxed);
      flushed_bytes = pending.size();
    }
    if (horizon > watermark_.load(std::memory_order_relaxed)) {
      // Idle watermark-only advance on a durable medium: the header write +
      // fdatasync buys no local durability (no new records), only a fresher
      // persisted claim for cold restart. Periodic flushes may defer it for
      // a bounded run of ticks; the watermark then stays put, so any waiter
      // gating on it will come back with force_watermark and pay the sync.
      if (pending.empty() && !force_watermark && stable_->durable() &&
          idle_skips_ < idle_skip_limit_) {
        ++idle_skips_;
        idle_syncs_skipped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Durability before advertisement: commit acks gate on the watermark,
      // so it must be persisted (data + claim, one fsync) before it moves.
      ScopedTimeClass timer(TimeClass::kLogWork);
      const bool time_sync = metrics && stable_->durable();
      const uint64_t t0 = time_sync ? Cycles::Now() : 0;
      if (!stable_->Sync(horizon).ok()) {
        // fsyncgate rule: one failed durability point freezes the
        // watermark permanently — never re-ack over a failed fsync.
        poisoned_.store(true, std::memory_order_release);
        return;
      }
      if (time_sync) {
        sync_ns = static_cast<uint64_t>(Cycles::ToNanos(Cycles::Now() - t0));
        synced = true;
      }
      watermark_.store(horizon, std::memory_order_release);
    }
    idle_skips_ = 0;
  }
  if (metrics && flushed_bytes > 0) {
    static Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
        "log.group_commit_bytes", "bytes");
    h->Record(flushed_bytes);
  }
  if (synced) {
    static Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
        "log.fsync_ns", "ns");
    h->Record(sync_ns);
  }
}

Lsn LogPartition::RecoverFromStorage() {
  std::lock_guard<std::mutex> g(stable_mu_);
  // Two independently valid claims, both found by the storage's open
  // scan: the persisted watermark (covers idle stretches — the partition
  // hosted nothing above the last record when it was written) and the
  // last decodable GSN (the stable stream is a prefix of the append
  // stream, so everything hosted at or below it is present).
  const Lsn claim = std::max(stable_->recovered_watermark(),
                             stable_->recovered_last_lsn());
  if (claim > watermark_.load(std::memory_order_relaxed)) {
    watermark_.store(claim, std::memory_order_release);
  }
  return claim;
}

Lsn LogPartition::DiscardVolatileAndClaim() {
  std::lock_guard<std::mutex> g(stable_mu_);
  TatasGuard b(buffer_latch_, TimeClass::kLogContention);
  const bool lost_buffered = !buffer_.empty();
  buffer_.clear();
  Status tail;
  std::vector<LogRecord> recs = stable_->Decode(&tail);
  const Lsn last = recs.empty() ? 0 : recs.back().lsn;
  const bool torn = !tail.ok();
  if (lost_buffered || torn) {
    // Losses are a suffix of the stream and every lost GSN exceeds the
    // watermark, so the partition still vouches for the larger of the two.
    return std::max(last, watermark_.load(std::memory_order_relaxed));
  }
  // Nothing of this partition was lost: it cannot constrain the horizon,
  // and any future append draws a GSN beyond last_issued.
  return clock_->last_issued();
}

void LogPartition::Kill() {
  std::lock_guard<std::mutex> g(stable_mu_);
  TatasGuard b(buffer_latch_, TimeClass::kLogContention);
  buffer_.clear();
  killed_ = true;
}

void LogPartition::TruncateStableTo(Lsn horizon) {
  std::lock_guard<std::mutex> g(stable_mu_);
  stable_->TruncateTo(horizon);
  if (horizon > watermark_.load(std::memory_order_relaxed)) {
    watermark_.store(horizon, std::memory_order_release);
  }
}

std::vector<LogRecord> LogPartition::ReadStable(Status* tail) const {
  std::lock_guard<std::mutex> g(stable_mu_);
  return stable_->Decode(tail);
}

void LogPartition::ReclaimStableBelow(Lsn point) {
  // Unlinks and the directory fsync run unlocked: every commit ack waits
  // on stable_mu_ through the min-over-partitions flush horizon.
  LogStorage::Reclaimed r;
  {
    std::lock_guard<std::mutex> g(stable_mu_);
    r = stable_->ReclaimBelow(point);
    // Sealing the active segment can fail: the medium poisoned itself.
    if (stable_->poisoned()) poisoned_.store(true, std::memory_order_release);
  }
  Status s = stable_->RemoveDetached(r.files);
  if (!s.ok()) {
    std::lock_guard<std::mutex> g(stable_mu_);
    (void)stable_->Poison(std::move(s));
    poisoned_.store(true, std::memory_order_release);
  }
  reclaimed_.fetch_add(r.bytes, std::memory_order_relaxed);
}

void LogPartition::FlipStableByte(size_t index) {
  std::lock_guard<std::mutex> g(stable_mu_);
  stable_->FlipByte(index);
}

void LogPartition::PartialFlushTorn(size_t bytes) {
  std::lock_guard<std::mutex> g(stable_mu_);
  TatasGuard b(buffer_latch_, TimeClass::kLogContention);
  bytes = std::min(bytes, buffer_.size());
  // kInvalidLsn batch GSN: the receiving segment may hold a torn record,
  // so it must never be unlinked on the strength of a known max GSN.
  (void)stable_->AppendBatch(buffer_.data(), bytes, kInvalidLsn);
  buffer_.clear();
}

void LogPartition::TearStableTail(size_t bytes) {
  std::lock_guard<std::mutex> g(stable_mu_);
  stable_->TearTail(bytes);
}

size_t LogPartition::stable_size() const {
  std::lock_guard<std::mutex> g(stable_mu_);
  return stable_->size();
}

size_t LogPartition::segment_count() const {
  std::lock_guard<std::mutex> g(stable_mu_);
  return stable_->segment_count();
}

}  // namespace plog
}  // namespace doradb
