#include "storage/disk_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "obs/health.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/sync_stats.h"

namespace doradb {

namespace {
// Transient-error policy for the page store, matching the WAL's segment
// layer: EINTR retries free, other pwrite errors get a few backed-off
// attempts before the write is declared failed.
constexpr int kIoRetries = 3;
constexpr uint64_t kRetryBackoffUs = 200;
}  // namespace

DiskManager::DiskManager(uint64_t simulated_latency_ns)
    : simulated_latency_ns_(simulated_latency_ns) {}

DiskManager::DiskManager(const std::string& data_dir,
                         uint64_t simulated_latency_ns)
    : simulated_latency_ns_(simulated_latency_ns) {
  if (data_dir.empty()) return;
  durability_ = DurabilityStats::Stream(kPageStoreStream);
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  path_ = data_dir + "/pages.db";
  fd_ = FaultInjector::Default().Open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    // Durable mode was requested and the medium refused it. Silently
    // falling back to memory pages — while checkpoints keep truncating the
    // file-backed log — would lose committed data without a single error
    // surfacing; aborting would take reads down with the writes. Degrade
    // instead: every page I/O on this store fails with the parked error.
    Poison(Status::IOError("pages: open failed: " + path_ + ": " +
                           std::strerror(errno)));
    return;
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size > 0) {
    next_page_id_ = static_cast<PageId>(
        (static_cast<uint64_t>(size) + kPageSize - 1) / kPageSize);
  }
}

DiskManager::~DiskManager() {
  if (fd_ >= 0) {
    // Close-time sync failure cannot be returned; at least count and log
    // it instead of silently losing the last flushed pages.
    if (::fdatasync(fd_) != 0 && !poisoned_) {
      obs::EngineHealth::Default().CountIOError();
      std::fprintf(stderr,
                   "disk_manager: close-time fdatasync failed for %s: %s\n",
                   path_.c_str(), std::strerror(errno));
    }
    ::close(fd_);
  }
}

PageId DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> g(mu_);
  allocated_.fetch_add(1, std::memory_order_relaxed);
  if (!free_list_.empty()) {
    const PageId id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  const PageId id = next_page_id_++;
  if (fd_ < 0) {
    const size_t extent = id / kPagesPerExtent;
    if (extent >= extents_.size()) {
      extents_.push_back(
          std::make_unique<uint8_t[]>(kPagesPerExtent * kPageSize));
    }
  }
  return id;
}

void DiskManager::DeallocatePage(PageId page_id) {
  std::lock_guard<std::mutex> g(mu_);
  allocated_.fetch_sub(1, std::memory_order_relaxed);
  free_list_.push_back(page_id);
}

void DiskManager::EnsureAllocatedThrough(PageId end) {
  std::lock_guard<std::mutex> g(mu_);
  while (next_page_id_ < end) {
    const PageId id = next_page_id_++;
    if (fd_ < 0) {
      const size_t extent = id / kPagesPerExtent;
      if (extent >= extents_.size()) {
        extents_.push_back(
            std::make_unique<uint8_t[]>(kPagesPerExtent * kPageSize));
      }
    }
  }
}

uint8_t* DiskManager::FrameFor(PageId page_id) {
  const size_t extent = page_id / kPagesPerExtent;
  const size_t off = (page_id % kPagesPerExtent) * kPageSize;
  std::lock_guard<std::mutex> g(mu_);
  if (extent >= extents_.size()) return nullptr;
  return extents_[extent].get() + off;
}

void DiskManager::SimulateLatency() {
  if (simulated_latency_ns_ == 0) return;
  const uint64_t start = Cycles::Now();
  const uint64_t target =
      static_cast<uint64_t>(simulated_latency_ns_ * Cycles::PerNanosecond());
  while (Cycles::Now() - start < target) {
  }
}

Status DiskManager::Poison(Status s) {
  // One-way latch, first error wins (later failures keep their counters).
  obs::EngineHealth::Default().CountIOError();
  if (!poisoned_) {
    poisoned_ = true;
    io_status_ = s;
    obs::EngineHealth::Default().Degrade(io_status_.ToString());
    std::fprintf(stderr, "disk_manager: degraded: %s\n",
                 io_status_.ToString().c_str());
  }
  return io_status_;
}

Status DiskManager::ReadPage(PageId page_id, void* out) {
  if (poisoned_ && fd_ < 0) return io_status_;  // born poisoned: no medium
  if (fd_ >= 0) {
    if (page_id >= end_page_id()) {
      return Status::IOError("page beyond device size");
    }
    SimulateLatency();
    // Short reads (file holes / ids past EOF that recovery materializes
    // from the log) read as zeroes, like a fresh extent.
    uint8_t* dst = static_cast<uint8_t*>(out);
    size_t got = 0;
    const off_t base = static_cast<off_t>(page_id) * kPageSize;
    while (got < kPageSize) {
      const ssize_t r = ::pread(fd_, dst + got, kPageSize - got,
                                base + static_cast<off_t>(got));
      if (r < 0) return Status::IOError("pread failed: " + path_);
      if (r == 0) break;  // EOF
      got += static_cast<size_t>(r);
    }
    std::memset(dst + got, 0, kPageSize - got);
    reads_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  uint8_t* frame = FrameFor(page_id);
  if (frame == nullptr) return Status::IOError("page beyond device size");
  SimulateLatency();
  std::memcpy(out, frame, kPageSize);
  reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskManager::WritePage(PageId page_id, const void* data) {
  if (poisoned_) return io_status_;
  if (fd_ >= 0) {
    if (page_id >= end_page_id()) {
      return Status::IOError("page beyond device size");
    }
    SimulateLatency();
    const uint8_t* src = static_cast<const uint8_t*>(data);
    size_t put = 0;
    int attempts = 0;
    const off_t base = static_cast<off_t>(page_id) * kPageSize;
    // Short writes continue from the written prefix; EINTR retries free;
    // other errors get bounded backed-off retries before failing the page.
    while (put < kPageSize) {
      const ssize_t w = FaultInjector::Default().Pwrite(
          fd_, src + put, kPageSize - put, base + static_cast<off_t>(put),
          path_.c_str());
      if (w > 0) {
        put += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (attempts >= kIoRetries) {
        obs::EngineHealth::Default().CountIOError();
        return Status::IOError("pages: pwrite failed: " + path_ + ": " +
                               std::strerror(w < 0 ? errno : EIO));
      }
      obs::EngineHealth::Default().CountRetry();
      NapMicros(kRetryBackoffUs << attempts);
      ++attempts;
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    durability_.Count(DurabilityCounter::kBytesFlushed, kPageSize);
    return Status::OK();
  }
  uint8_t* frame = FrameFor(page_id);
  if (frame == nullptr) return Status::IOError("page beyond device size");
  SimulateLatency();
  std::memcpy(frame, data, kPageSize);
  writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskManager::Sync() {
  if (poisoned_) return io_status_;
  if (fd_ < 0) return Status::OK();
  const bool metrics = obs::MetricsEnabled();
  const uint64_t t0 = metrics ? Cycles::Now() : 0;
  // fsyncgate rule, same as the WAL's segment layer: after a failed
  // fdatasync the kernel may have marked dirty pages clean, so a retried
  // "success" proves nothing about the pages this sync was vouching for.
  // Latch the store failed — checkpoints stop publishing horizons over it.
  if (FaultInjector::Default().Fdatasync(fd_, path_.c_str()) != 0) {
    return Poison(Status::IOError("pages: fdatasync failed: " + path_ + ": " +
                                  std::strerror(errno)));
  }
  if (metrics) {
    static Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
        "pages.fsync_ns", "ns");
    h->Record(static_cast<uint64_t>(Cycles::ToNanos(Cycles::Now() - t0)));
  }
  durability_.Count(DurabilityCounter::kFsyncCalls);
  return Status::OK();
}

}  // namespace doradb
