// Page store standing in for the disk.
//
// The paper stores database and log on an in-memory file system to saturate
// the CPU while still exercising every storage-manager code path (§5.1); we
// do the same by default. Page frames are allocated in fixed-size extents
// whose addresses never move, so reads/writes need no global lock.
//
// With a data directory (Database::Options::data_dir) the store becomes a
// real file — `<data_dir>/pages.db`, pages at fixed offsets page_id *
// kPageSize — so checkpointed pages survive process death and a second
// lifetime can recover from disk alone. Reads of never-written pages (file
// holes, or ids beyond EOF that recovery re-materializes from the log)
// return zeroed frames, exactly what a fresh in-memory extent would hold.

#ifndef DORADB_STORAGE_DISK_MANAGER_H_
#define DORADB_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/status.h"
#include "util/sync_stats.h"

namespace doradb {

class DiskManager {
 public:
  // `simulated_latency_ns` > 0 adds a busy-wait to each I/O, for experiments
  // that want to model slower devices.
  explicit DiskManager(uint64_t simulated_latency_ns = 0);
  // Non-empty `data_dir`: file-backed mode (pages.db); a pre-existing file
  // is adopted, with allocation resuming past its highest page.
  explicit DiskManager(const std::string& data_dir,
                       uint64_t simulated_latency_ns = 0);
  ~DiskManager();
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  // Allocate a fresh page (possibly reusing a deallocated one).
  PageId AllocatePage();
  void DeallocatePage(PageId page_id);

  Status ReadPage(PageId page_id, void* out);
  Status WritePage(PageId page_id, const void* data);

  // Make every written page durable (fdatasync; no-op in memory mode).
  // Checkpoints call this before trusting flushed pages in a redo horizon.
  Status Sync();

  // Recovery support: extend the device so every id below `end` is a valid
  // page (redo may reference pages a dead process allocated but never
  // wrote back — they read as zeroes and are re-materialized from the log).
  void EnsureAllocatedThrough(PageId end);

  bool file_backed() const { return fd_ >= 0; }

  // Failed-store latch: set when durable mode could not open its file or a
  // page-store fdatasync failed (fsyncgate: a retry proving nothing, the
  // store stops vouching for its pages). Writes and syncs return the
  // parked error; reads keep serving whenever the medium still answers.
  bool poisoned() const { return poisoned_; }
  const Status& io_status() const { return io_status_; }

  uint64_t NumAllocated() const {
    return allocated_.load(std::memory_order_relaxed);
  }
  // One past the highest page id ever allocated; recovery scans [0, end).
  PageId end_page_id() const {
    std::lock_guard<std::mutex> g(mu_);
    return next_page_id_;
  }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kPagesPerExtent = 1024;

  uint8_t* FrameFor(PageId page_id);  // nullptr if out of range

  void SimulateLatency();

  // Latch the store failed (one-way), report degraded engine health, and
  // return the parked error for the caller to propagate.
  Status Poison(Status s);

  mutable std::mutex mu_;  // guards extent growth + free list
  std::vector<std::unique_ptr<uint8_t[]>> extents_;
  std::vector<PageId> free_list_;
  PageId next_page_id_ = 0;

  int fd_ = -1;  // pages.db (file-backed mode only)
  std::string path_;
  DurabilityStats::Stream durability_;  // file-backed mode only
  bool poisoned_ = false;
  Status io_status_;

  std::atomic<uint64_t> allocated_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  const uint64_t simulated_latency_ns_;
};

}  // namespace doradb

#endif  // DORADB_STORAGE_DISK_MANAGER_H_
