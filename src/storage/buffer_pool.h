// Buffer pool with CLOCK replacement (the Shore-MT substrate's design).
//
// All tables share one pool ("all data resides in the same bufferpool",
// §4.1.1 — DORA's partitioning is purely logical). Frames are pinned by
// PageGuard RAII handles; physical consistency within a page is protected by
// a per-frame reader-writer latch, attributed to TimeClass::kBufferContention
// when contended.
//
// No pool-wide latch. The page table is split into kNumShards cache-line-
// aligned shards, each a TATAS latch over its own map; a page id hashes to
// one shard. Latch order is shard latch, then pin, then frame latch:
//  * A pin is only taken under the shard latch of the frame's page (hits,
//    flushes) or by claiming an unpinned frame with a CAS of pin_count from
//    0 to 1 (replacement). A victim's claim is made under its shard latch,
//    so no fetch can pin it concurrently, and a mapping is erased only
//    while it still points at the claimed frame.
//  * The CLOCK hand is an atomic counter; each claimer sweeps on its own.
//  * No shard latch is ever held across I/O or the WAL callback. A miss
//    claims a frame, publishes the mapping in a *loading* state, and reads
//    the page outside every latch; a concurrent fetcher of the same page
//    pins the frame and waits for the load (counted in read_waits()). A
//    failed read unpublishes the mapping and its waiters retry. A dirty
//    victim is written back under its own frame read latch only.
//
// WAL rule: a dirty page may only be written back after the log has been
// flushed up to the page's LSN. Every write-back — eviction, FlushPage,
// FlushAll, FlushPartition — goes through one helper that calls the
// registered wal-flush callback first and clears the dirty state only if
// the page write succeeded. A page whose write-back fails (unreachable
// log horizon or a failed page write) stays dirty and resident; eviction
// skips it.
//
// Checkpoint support (src/ckpt/): each frame remembers the LSN of the
// record that first dirtied it since it was last clean (its rec_lsn — the
// ARIES dirty-page-table entry) and the log partition of its most recent
// logged writer. FlushPartition() writes back only one partition's dirty
// pages — under the frame read latch, so the disk image is a consistent
// page version — and reports the minimum rec_lsn over the dirty pages it
// left behind, which is the redo-horizon contribution of the pool.

#ifndef DORADB_STORAGE_BUFFER_POOL_H_
#define DORADB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>

#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "storage/types.h"
#include "util/rwlatch.h"
#include "util/spinlock.h"
#include "util/status.h"

namespace doradb {

class BufferPool;

// RAII pin on a page frame. Move-only. Latching is explicit (callers decide
// shared vs exclusive); the destructor releases any held latch and the pin.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_idx, uint8_t* data);
  ~PageGuard() { Release(); }

  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool Valid() const { return pool_ != nullptr; }

  void LatchShared();
  void LatchExclusive();
  void Unlatch();

  // Mark the frame dirty (must hold the exclusive latch).
  void MarkDirty();
  // Mark dirty with the dirtying record's LSN: records the frame's rec_lsn
  // (first dirtier since last clean) and attributes the write to the
  // calling thread's log partition. Heap operations use this; unlogged
  // writers (B+Tree nodes — derived state) use the plain overload and
  // never constrain the checkpoint redo horizon.
  void MarkDirty(Lsn rec_lsn);

  uint8_t* data() { return data_; }
  SlottedPage AsSlotted() { return SlottedPage(data_); }

  // Unpin (and unlatch) immediately.
  void Release();

 private:
  enum class LatchState { kNone, kShared, kExclusive };

  BufferPool* pool_ = nullptr;
  size_t frame_idx_ = 0;
  uint8_t* data_ = nullptr;
  LatchState latch_state_ = LatchState::kNone;
};

class BufferPool {
 public:
  // writer_partition value when the last dirtier is unknown (unlogged
  // writes, or pages dirtied before any logged operation touched them).
  static constexpr uint32_t kNoWriterPartition = 0xFFFFFFFFu;

  // What one fuzzy checkpoint scan observed.
  struct CheckpointScan {
    // Minimum rec_lsn over dirty pages left unflushed by this scan (~0 if
    // none): the pool's contribution to the checkpoint redo horizon.
    Lsn min_rec_lsn = ~Lsn{0};
    // writer_partition of the page that set min_rec_lsn: the partition
    // whose checkpoint would lift this bound.
    uint32_t min_rec_partition = kNoWriterPartition;
    size_t pages_flushed = 0;   // dirty pages written back by this scan
    size_t pages_skipped = 0;   // dirty pages left to other partitions
  };

  BufferPool(DiskManager* disk, size_t num_frames);
  ~BufferPool();

  // Called with the page LSN before any dirty page write-back. Returns
  // true once the log is durable through that LSN. Returning false means
  // the flush horizon cannot reach it (poisoned log stream): the WAL rule
  // then forbids the write-back — eviction skips the victim, explicit
  // flushes fail Unavailable — because a stolen page whose records never
  // became durable would survive a crash with no log to undo it.
  void SetWalFlushCallback(std::function<bool(Lsn)> cb) {
    wal_flush_ = std::move(cb);
  }

  // Resolves the calling thread's log partition for write attribution
  // (Database wires this to LogBackend::CurrentPartition). Unset: all
  // logged writes attribute to partition 0.
  void SetPartitionResolver(std::function<uint32_t()> fn) {
    partition_of_thread_ = std::move(fn);
  }

  // Allocate + pin a fresh, zero-initialized page.
  Status NewPage(PageGuard* out, PageId* page_id);

  // Pin an existing page, reading it from disk on miss.
  Status FetchPage(PageId page_id, PageGuard* out);

  Status FlushPage(PageId page_id);
  Status FlushAll();

  // Durability point for previously flushed pages (no-op when the page
  // store is in-memory). A checkpoint's redo horizon is only valid once
  // the pages it vouches for are actually on the medium.
  Status SyncDisk() { return disk_->Sync(); }

  // Fuzzy checkpoint flush: write back dirty pages attributed to
  // `partition` (all logged-writer pages when `all_partitions`), without
  // quiescing writers — each page is copied under its frame read latch, so
  // the disk image is a consistent version even while executors keep
  // updating other pages. Dirty pages left behind report their minimum
  // rec_lsn through `scan`. Unlogged dirty pages (rec_lsn unknown) are
  // skipped entirely: B+Tree nodes are derived state, and a logged write
  // whose rec_lsn stamp is still in flight belongs to a registered
  // transaction, which the checkpoint's active-txn minimum already covers.
  Status FlushPartition(uint32_t partition, bool all_partitions,
                        CheckpointScan* scan);

  // Crash simulation: drop every frame WITHOUT writing dirty pages back.
  // All pins must have been released (the system is quiesced).
  void DiscardAll();

  size_t num_frames() const { return num_frames_; }
  // Fetches served from a resident frame, including read_waits().
  uint64_t hits() const { return SumShards(&Shard::hits); }
  // Fetches that read the page from disk.
  uint64_t misses() const { return SumShards(&Shard::misses); }
  // Frames reclaimed from a resident page.
  uint64_t evictions() const { return SumShards(&Shard::evictions); }
  // Fetches that found the page's read in flight and waited for it.
  uint64_t read_waits() const { return SumShards(&Shard::read_waits); }

 private:
  friend class PageGuard;

  static constexpr size_t kNumShards = 64;

  struct Frame {
    // Written by the owner of a claimed frame and under the page's shard
    // latch; read without a latch by the CLOCK sweep and flush scans.
    std::atomic<PageId> page_id{kInvalidPageId};
    std::atomic<uint32_t> pin_count{0};
    std::atomic<bool> referenced{false};
    // True while the page is being read into the frame: fetchers that pin
    // the frame wait for false (acquire) before touching its data.
    std::atomic<bool> loading{false};
    // Atomic because flush scans read it without the frame latch while
    // MarkDirty sets it under the frame latch.
    std::atomic<bool> dirty{false};
    // LSN of the record that first dirtied this frame since it was last
    // clean (kInvalidLsn if no logged write since then) and the log
    // partition of its most recent logged writer. Atomics because the
    // checkpoint scan reads them under the shard latch while writers
    // mutate them under the frame latch — the values feed the redo
    // horizon, so a torn read is a correctness bug, not noise. Relaxed
    // ordering is enough: a scan that misses an in-flight store is covered
    // by the writer transaction's undo-low pin (see ckpt/README.md).
    std::atomic<Lsn> rec_lsn{kInvalidLsn};
    std::atomic<uint32_t> writer_partition{kNoWriterPartition};
    RwLatch latch;
  };

  // One slice of the page table. Counters are only written under `latch`
  // (load + store, no read-modify-write) and read relaxed by the getters.
  struct alignas(64) Shard {
    TatasLock latch;
    std::unordered_map<PageId, size_t> table;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> read_waits{0};
  };

  static void Bump(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  uint64_t SumShards(std::atomic<uint64_t> Shard::*counter) const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += (s.*counter).load(std::memory_order_relaxed);
    }
    return sum;
  }

  Shard& ShardOf(PageId page_id) {
    // Fibonacci hashing: consecutive page ids land on different shards.
    return shards_[(page_id * 0x9E3779B97F4A7C15ull) >> 58];
  }
  static_assert(kNumShards == 64, "ShardOf keeps the top 6 hash bits");

  // Reset a frame's dirty-tracking metadata (after write-back or discard).
  static void CleanFrame(Frame& f) {
    f.dirty.store(false, std::memory_order_relaxed);
    f.rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
    f.writer_partition.store(kNoWriterPartition, std::memory_order_relaxed);
  }

  // Claim a free or evictable frame: on success the frame is unmapped,
  // clean, and pinned once by the caller. Returns false if the sweep found
  // nothing claimable (every frame pinned or unwritable). May write a dirty
  // victim back; holds no shard latch across that I/O.
  bool ClaimFrame(size_t* out_idx);

  // Pin frame `idx` under its page's shard latch if it still holds a
  // resident page and `pred(frame)` (called under that latch) agrees.
  // Returns false if nothing was pinned.
  template <typename Pred>
  bool PinResident(size_t idx, Pred pred);

  // Write a pinned frame back if it is dirty. The caller holds the frame
  // read latch, so the disk image is a consistent page version and nobody
  // can re-dirty the frame before its dirty state is cleared. Applies the
  // WAL rule first and clears the dirty state only if the page write
  // succeeded; `*wrote` reports whether a page was written.
  Status WriteBack(size_t idx, bool* wrote);

  // WriteBack under a freshly taken read latch, then drop the caller's pin.
  Status FlushPinned(size_t idx, bool* wrote);

  void Unpin(size_t frame_idx);

  uint8_t* FrameData(size_t idx) { return slab_.get() + idx * kPageSize; }

  DiskManager* const disk_;
  const size_t num_frames_;
  std::unique_ptr<uint8_t[]> slab_;
  std::unique_ptr<Frame[]> frames_;

  Shard shards_[kNumShards];
  std::atomic<size_t> clock_hand_{0};

  std::function<bool(Lsn)> wal_flush_;
  std::function<uint32_t()> partition_of_thread_;
};

}  // namespace doradb

#endif  // DORADB_STORAGE_BUFFER_POOL_H_
