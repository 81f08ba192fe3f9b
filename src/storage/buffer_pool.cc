#include "storage/buffer_pool.h"

#include <cassert>
#include <cstring>

namespace doradb {

PageGuard::PageGuard(BufferPool* pool, size_t frame_idx, uint8_t* data)
    : pool_(pool), frame_idx_(frame_idx), data_(data) {}

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_idx_ = o.frame_idx_;
    data_ = o.data_;
    latch_state_ = o.latch_state_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.latch_state_ = LatchState::kNone;
  }
  return *this;
}

void PageGuard::LatchShared() {
  assert(latch_state_ == LatchState::kNone);
  pool_->frames_[frame_idx_].latch.ReadLock(TimeClass::kBufferContention);
  latch_state_ = LatchState::kShared;
}

void PageGuard::LatchExclusive() {
  assert(latch_state_ == LatchState::kNone);
  pool_->frames_[frame_idx_].latch.WriteLock(TimeClass::kBufferContention);
  latch_state_ = LatchState::kExclusive;
}

void PageGuard::Unlatch() {
  if (latch_state_ == LatchState::kShared) {
    pool_->frames_[frame_idx_].latch.ReadUnlock();
  } else if (latch_state_ == LatchState::kExclusive) {
    pool_->frames_[frame_idx_].latch.WriteUnlock();
  }
  latch_state_ = LatchState::kNone;
}

void PageGuard::MarkDirty() {
  assert(latch_state_ == LatchState::kExclusive);
  pool_->frames_[frame_idx_].dirty.store(true, std::memory_order_relaxed);
}

void PageGuard::MarkDirty(Lsn rec_lsn) {
  assert(latch_state_ == LatchState::kExclusive);
  BufferPool::Frame& f = pool_->frames_[frame_idx_];
  f.dirty.store(true, std::memory_order_relaxed);
  if (rec_lsn != kInvalidLsn) {
    // rec_lsn keeps the FIRST dirtier since the frame was last clean (the
    // redo horizon must reach back to the oldest un-persisted change);
    // attribution follows the LAST logged writer (that partition's
    // checkpoint will flush the page). The exclusive frame latch excludes
    // competing dirty-path writers, so load+store suffices.
    const Lsn cur = f.rec_lsn.load(std::memory_order_relaxed);
    if (cur == kInvalidLsn || rec_lsn < cur) {
      f.rec_lsn.store(rec_lsn, std::memory_order_relaxed);
    }
    f.writer_partition.store(pool_->partition_of_thread_
                                 ? pool_->partition_of_thread_()
                                 : 0,
                             std::memory_order_relaxed);
  }
}

void PageGuard::Release() {
  if (pool_ == nullptr) return;
  Unlatch();
  pool_->Unpin(frame_idx_);
  pool_ = nullptr;
  data_ = nullptr;
}

BufferPool::BufferPool(DiskManager* disk, size_t num_frames)
    : disk_(disk),
      num_frames_(num_frames),
      slab_(std::make_unique<uint8_t[]>(num_frames * kPageSize)),
      frames_(std::make_unique<Frame[]>(num_frames)) {
  for (Shard& s : shards_) s.table.reserve(2 * num_frames / kNumShards + 1);
}

BufferPool::~BufferPool() { (void)FlushAll(); }

bool BufferPool::ClaimFrame(size_t* out_idx) {
  // CLOCK sweep: at most two full passes (first clears reference bits).
  for (size_t scanned = 0; scanned < num_frames_ * 2; ++scanned) {
    const size_t idx =
        clock_hand_.fetch_add(1, std::memory_order_relaxed) % num_frames_;
    Frame& f = frames_[idx];
    if (f.pin_count.load(std::memory_order_relaxed) != 0) continue;
    const PageId pid = f.page_id.load(std::memory_order_acquire);
    uint32_t unpinned = 0;
    if (pid == kInvalidPageId) {
      // Free frame. The CAS makes it ours; the re-check catches a claimer
      // that mapped it and unpinned between our two loads.
      if (!f.pin_count.compare_exchange_strong(unpinned, 1,
                                               std::memory_order_acquire)) {
        continue;
      }
      if (f.page_id.load(std::memory_order_acquire) != kInvalidPageId) {
        Unpin(idx);
        continue;
      }
      *out_idx = idx;
      return true;
    }
    if (f.referenced.load(std::memory_order_relaxed)) {
      f.referenced.store(false, std::memory_order_relaxed);
      continue;
    }
    // Victim candidate. Claim it under its shard latch, so no fetch can
    // pin it between the claim and the unmap.
    Shard& shard = ShardOf(pid);
    shard.latch.Lock(TimeClass::kBufferContention);
    if (f.page_id.load(std::memory_order_relaxed) != pid ||
        !f.pin_count.compare_exchange_strong(unpinned, 1,
                                             std::memory_order_acquire)) {
      shard.latch.Unlock();
      continue;
    }
    if (f.dirty.load(std::memory_order_relaxed)) {
      // Nobody else holds a pin, so nobody holds the frame latch: the try
      // cannot fail in practice, and eviction never blocks on a page latch.
      if (!f.latch.TryReadLock()) {
        shard.latch.Unlock();
        Unpin(idx);
        continue;
      }
      // Write back outside the shard latch. The mapping stays live, so
      // fetchers may pin the page meanwhile; a writer waits for the read
      // latch.
      shard.latch.Unlock();
      bool wrote;
      const Status ws = WriteBack(idx, &wrote);
      f.latch.ReadUnlock();
      shard.latch.Lock(TimeClass::kBufferContention);
      // Skip the victim if its write-back failed (it stays dirty and
      // resident) or if it was pinned or re-dirtied in the meantime.
      if (!ws.ok() || f.pin_count.load(std::memory_order_acquire) != 1 ||
          f.dirty.load(std::memory_order_relaxed)) {
        shard.latch.Unlock();
        Unpin(idx);
        continue;
      }
    }
    auto it = shard.table.find(pid);
    if (it != shard.table.end() && it->second == idx) shard.table.erase(it);
    f.page_id.store(kInvalidPageId, std::memory_order_relaxed);
    Bump(shard.evictions);
    shard.latch.Unlock();
    *out_idx = idx;
    return true;
  }
  return false;
}

Status BufferPool::NewPage(PageGuard* out, PageId* page_id) {
  const PageId id = disk_->AllocatePage();
  size_t idx;
  if (!ClaimFrame(&idx)) return Status::Full("all frames pinned");
  Frame& f = frames_[idx];
  f.referenced.store(true, std::memory_order_relaxed);
  // A new page must eventually reach the disk image.
  f.dirty.store(true, std::memory_order_relaxed);
  std::memset(FrameData(idx), 0, kPageSize);
  Shard& shard = ShardOf(id);
  {
    TatasGuard g(shard.latch, TimeClass::kBufferContention);
    shard.table[id] = idx;
    f.page_id.store(id, std::memory_order_release);
  }
  *out = PageGuard(this, idx, FrameData(idx));
  *page_id = id;
  return Status::OK();
}

Status BufferPool::FetchPage(PageId page_id, PageGuard* out) {
  Shard& shard = ShardOf(page_id);
  for (;;) {
    shard.latch.Lock(TimeClass::kBufferContention);
    auto it = shard.table.find(page_id);
    if (it != shard.table.end()) {
      const size_t idx = it->second;
      Frame& f = frames_[idx];
      f.pin_count.fetch_add(1, std::memory_order_relaxed);
      f.referenced.store(true, std::memory_order_relaxed);
      const bool loading = f.loading.load(std::memory_order_acquire);
      Bump(shard.hits);
      if (loading) Bump(shard.read_waits);
      shard.latch.Unlock();
      if (loading) {
        // Our pin keeps the frame from being reclaimed, so once the load
        // settles it holds either this page or, after a failed read,
        // nothing — then retry, which re-reads or reports the error.
        ScopedTimeClass timer(TimeClass::kBufferContention);
        Backoff backoff;
        while (f.loading.load(std::memory_order_acquire)) backoff.Spin();
        if (f.page_id.load(std::memory_order_relaxed) != page_id) {
          Unpin(idx);
          continue;
        }
      }
      *out = PageGuard(this, idx, FrameData(idx));
      return Status::OK();
    }
    shard.latch.Unlock();

    size_t idx;
    if (!ClaimFrame(&idx)) return Status::Full("all frames pinned");
    Frame& f = frames_[idx];
    f.referenced.store(true, std::memory_order_relaxed);
    f.loading.store(true, std::memory_order_relaxed);
    shard.latch.Lock(TimeClass::kBufferContention);
    if (!shard.table.emplace(page_id, idx).second) {
      // Another fetcher published the page first: give the frame back.
      shard.latch.Unlock();
      f.loading.store(false, std::memory_order_relaxed);
      Unpin(idx);
      continue;
    }
    f.page_id.store(page_id, std::memory_order_relaxed);
    Bump(shard.misses);
    shard.latch.Unlock();

    const Status s = disk_->ReadPage(page_id, FrameData(idx));
    if (!s.ok()) {
      // Nobody else can unmap a frame we hold pinned.
      shard.latch.Lock(TimeClass::kBufferContention);
      shard.table.erase(page_id);
      f.page_id.store(kInvalidPageId, std::memory_order_relaxed);
      shard.latch.Unlock();
    }
    f.loading.store(false, std::memory_order_release);
    if (!s.ok()) {
      Unpin(idx);
      return s;
    }
    *out = PageGuard(this, idx, FrameData(idx));
    return Status::OK();
  }
}

Status BufferPool::WriteBack(size_t idx, bool* wrote) {
  *wrote = false;
  Frame& f = frames_[idx];
  if (!f.dirty.load(std::memory_order_relaxed)) return Status::OK();
  const auto* hdr = reinterpret_cast<const PageHeaderBase*>(FrameData(idx));
  // WAL rule under failure: if the log cannot become durable through this
  // page's LSN (poisoned stream), the page must not reach the disk image.
  if (wal_flush_ && !wal_flush_(hdr->page_lsn)) {
    return Status::Unavailable("wal: flush horizon unreachable");
  }
  DORADB_RETURN_NOT_OK(disk_->WritePage(
      f.page_id.load(std::memory_order_relaxed), FrameData(idx)));
  CleanFrame(f);
  *wrote = true;
  return Status::OK();
}

Status BufferPool::FlushPinned(size_t idx, bool* wrote) {
  Status s;
  {
    ReadGuard g(frames_[idx].latch, TimeClass::kBufferContention);
    s = WriteBack(idx, wrote);
  }
  Unpin(idx);
  return s;
}

template <typename Pred>
bool BufferPool::PinResident(size_t idx, Pred pred) {
  Frame& f = frames_[idx];
  const PageId pid = f.page_id.load(std::memory_order_acquire);
  if (pid == kInvalidPageId) return false;
  Shard& shard = ShardOf(pid);
  TatasGuard g(shard.latch, TimeClass::kBufferContention);
  if (f.page_id.load(std::memory_order_relaxed) != pid || !pred(f)) {
    return false;
  }
  f.pin_count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status BufferPool::FlushPage(PageId page_id) {
  Shard& shard = ShardOf(page_id);
  size_t idx;
  {
    TatasGuard g(shard.latch, TimeClass::kBufferContention);
    auto it = shard.table.find(page_id);
    if (it == shard.table.end()) return Status::NotFound("page not resident");
    idx = it->second;
    frames_[idx].pin_count.fetch_add(1, std::memory_order_relaxed);
  }
  bool wrote;
  return FlushPinned(idx, &wrote);
}

Status BufferPool::FlushAll() {
  for (size_t i = 0; i < num_frames_; ++i) {
    if (!frames_[i].dirty.load(std::memory_order_relaxed)) continue;
    if (!PinResident(i, [](const Frame&) { return true; })) continue;
    bool wrote;
    DORADB_RETURN_NOT_OK(FlushPinned(i, &wrote));
  }
  return Status::OK();
}

Status BufferPool::FlushPartition(uint32_t partition, bool all_partitions,
                                  CheckpointScan* scan) {
  *scan = CheckpointScan{};
  for (size_t i = 0; i < num_frames_; ++i) {
    if (!frames_[i].dirty.load(std::memory_order_relaxed)) continue;
    // Decide under the page's shard latch, so an eviction cannot unmap the
    // page between the decision and the pin.
    const bool pinned = PinResident(i, [&](const Frame& f) {
      if (!f.dirty.load(std::memory_order_relaxed)) return false;
      const Lsn rec_lsn = f.rec_lsn.load(std::memory_order_relaxed);
      if (rec_lsn == kInvalidLsn) return false;  // unlogged; see header
      const uint32_t writer =
          f.writer_partition.load(std::memory_order_relaxed);
      if (all_partitions || writer == partition) return true;
      if (rec_lsn < scan->min_rec_lsn) {
        scan->min_rec_lsn = rec_lsn;
        scan->min_rec_partition = writer;
      }
      ++scan->pages_skipped;
      return false;
    });
    if (!pinned) continue;
    bool wrote;
    // A failure aborts the scan: the caller's checkpoint must not publish
    // a horizon computed from a flush that could not complete.
    DORADB_RETURN_NOT_OK(FlushPinned(i, &wrote));
    if (wrote) ++scan->pages_flushed;
  }
  return Status::OK();
}

void BufferPool::DiscardAll() {
  for (Shard& s : shards_) {
    TatasGuard g(s.latch, TimeClass::kBufferContention);
    s.table.clear();
  }
  for (size_t i = 0; i < num_frames_; ++i) {
    Frame& f = frames_[i];
    f.page_id.store(kInvalidPageId, std::memory_order_relaxed);
    f.pin_count.store(0, std::memory_order_relaxed);
    f.referenced.store(false, std::memory_order_relaxed);
    f.loading.store(false, std::memory_order_relaxed);
    CleanFrame(f);
  }
  clock_hand_.store(0, std::memory_order_relaxed);
}

void BufferPool::Unpin(size_t frame_idx) {
  frames_[frame_idx].pin_count.fetch_sub(1, std::memory_order_release);
}

}  // namespace doradb
