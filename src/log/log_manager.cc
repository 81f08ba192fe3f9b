#include "log/log_manager.h"

#include <algorithm>

#include "log/segment_file.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace doradb {

LogManager::LogManager(Options options) : options_(options) {
  buffer_.reserve(1 << 20);
  if (options_.data_dir.empty()) {
    stable_ = std::make_unique<MemoryLogStorage>();
  } else {
    SegmentFileStorage::Options so;
    so.target_segment_bytes = options_.segment_target_bytes;
    stable_ = std::make_unique<SegmentFileStorage>(
        options_.data_dir + "/central", 0, so);
    // Cold start: resume LSN allocation past everything a previous
    // lifetime made durable. Central LSNs are byte offsets, so the stream
    // ends at the last record's start plus its encoded size — found by
    // the storage's open scan.
    const Lsn end = std::max(stable_->recovered_watermark(),
                             stable_->recovered_stream_end());
    if (end > 1) {
      next_lsn_.store(end, std::memory_order_relaxed);
      flushed_lsn_.store(end, std::memory_order_relaxed);
    }
    // Born poisoned (open-time media failure): reads and recovery still
    // work; logged commits will fail Unavailable from the first wait.
    if (stable_->poisoned()) poisoned_.store(true, std::memory_order_release);
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

LogManager::~LogManager() {
  stop_.store(true, std::memory_order_release);
  if (flusher_.joinable()) flusher_.join();
  DoFlush();
}

Lsn LogManager::Append(LogRecord* rec) {
  Lsn end;
  {
    // The single latched buffer every transaction appends through: the
    // §5.4 "new bottleneck" once lock contention is gone.
    TatasGuard g(buffer_latch_, TimeClass::kLogContention);
    ScopedTimeClass timer(TimeClass::kLogWork);
    rec->lsn = next_lsn_.load(std::memory_order_relaxed);
    const size_t sz = rec->SerializeTo(&buffer_);
    end = rec->lsn + sz;
    next_lsn_.store(end, std::memory_order_relaxed);
  }
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (options_.synchronous) (void)FlushTo(end);
  return end;
}

Status LogManager::WaitFlushed(Lsn lsn) {
  if (flushed_lsn_.load(std::memory_order_acquire) >= lsn) return Status::OK();
  ScopedTimeClass timer(TimeClass::kLogWork);
  // Self-service group commit: the waiter performs a flush, carrying every
  // record buffered so far (its own and everyone else's).
  DoFlush();
  while (flushed_lsn_.load(std::memory_order_acquire) < lsn) {
    // A poisoned stream's horizon is frozen: waiting longer cannot make
    // `lsn` durable, and pretending otherwise would re-ack over a failed
    // fsync. Bail with the typed error commits surface to clients.
    if (poisoned_.load(std::memory_order_acquire)) {
      return Status::Unavailable("log: central stream poisoned");
    }
    NapMicros(options_.flush_interval_us);
    DoFlush();
  }
  return Status::OK();
}

Status LogManager::FlushTo(Lsn lsn) { return WaitFlushed(lsn); }

Lsn LogManager::DoFlush() {
  // Metrics are recorded after stable_mu_ is released: in the central
  // backend every committing client funnels through this mutex, so extra
  // cycles inside it (even two rdtsc reads) serialize all committers.
  // fsync timing is only taken on durable media — timing a no-op memory
  // Sync() would just measure the clock.
  size_t flushed_bytes = 0;
  uint64_t sync_ns = 0;
  bool synced = false;
  bool failed = false;
  const bool metrics = obs::MetricsEnabled();
  Lsn upto;
  {
    std::lock_guard<std::mutex> g(stable_mu_);
    if (poisoned_.load(std::memory_order_relaxed)) {
      return flushed_lsn_.load(std::memory_order_relaxed);
    }
    std::vector<uint8_t>& pending = spare_;
    pending.clear();
    {
      TatasGuard b(buffer_latch_, TimeClass::kLogContention);
      pending.swap(buffer_);
      upto = next_lsn_.load(std::memory_order_relaxed);
    }
    if (!pending.empty()) {
      // `upto` upper-bounds every record LSN in the batch — conservative
      // for segment unlinking, exact for the flush horizon.
      if (!stable_->AppendBatch(pending.data(), pending.size(), upto).ok()) {
        failed = true;
      } else {
        flushes_.fetch_add(1, std::memory_order_relaxed);
        flushed_bytes = pending.size();
      }
    }
    if (!failed && upto > flushed_lsn_.load(std::memory_order_relaxed)) {
      // Durability before advertisement: commits gate on flushed_lsn.
      const bool time_sync = metrics && stable_->durable();
      const uint64_t t0 = time_sync ? Cycles::Now() : 0;
      if (!stable_->Sync(upto).ok()) {
        failed = true;
      } else if (time_sync) {
        sync_ns = static_cast<uint64_t>(Cycles::ToNanos(Cycles::Now() - t0));
        synced = true;
      }
    }
    if (failed) {
      // The medium poisoned itself (storage latches on the first hard
      // failure); freeze the advertised horizon exactly where the last
      // successful Sync left it — anything past it is unprovable.
      poisoned_.store(true, std::memory_order_release);
      return flushed_lsn_.load(std::memory_order_relaxed);
    }
    flushed_lsn_.store(upto, std::memory_order_release);
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
  return upto;
}

void LogManager::FlusherLoop() {
  // Watchdog heartbeat: the nap is idle time; a DoFlush that hangs in
  // fsync shows up as stalled-in-"flush".
  obs::ScopedHeartbeat hb("log.flusher.central");
  while (!stop_.load(std::memory_order_acquire)) {
    hb->SetStage("nap");
    hb->SetIdle(true);
    NapMicros(options_.flush_interval_us);
    hb->SetIdle(false);
    hb->SetStage("flush");
    DoFlush();
    hb->Beat();
  }
}

void LogManager::DiscardVolatileTail() {
  std::lock_guard<std::mutex> g(stable_mu_);
  TatasGuard b(buffer_latch_, TimeClass::kLogContention);
  buffer_.clear();
  // Restart LSN allocation at the stable boundary so log-offset == LSN
  // stays true for recovery.
  next_lsn_.store(flushed_lsn_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

std::vector<LogRecord> LogManager::ReadStable() const {
  std::lock_guard<std::mutex> g(stable_mu_);
  return stable_->Decode(nullptr);
}

void LogManager::ReclaimStableBelow(Lsn point) {
  // Unlinks and the directory fsync run unlocked: every committer flushes
  // through stable_mu_.
  reclaimed_.fetch_add(
      ReclaimStable(stable_.get(), &stable_mu_, &poisoned_, point),
      std::memory_order_relaxed);
}

void LogManager::FlipStableByte(size_t index) {
  std::lock_guard<std::mutex> g(stable_mu_);
  stable_->FlipByte(index);
}

size_t LogManager::stable_size() const {
  std::lock_guard<std::mutex> g(stable_mu_);
  return stable_->size();
}

size_t LogManager::segment_files() const {
  if (options_.data_dir.empty()) return 0;
  std::lock_guard<std::mutex> g(stable_mu_);
  return stable_->segment_count();
}

}  // namespace doradb
