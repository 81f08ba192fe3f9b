#include "ckpt/checkpoint_coordinator.h"

#include <algorithm>

#include "obs/health.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace doradb {
namespace ckpt {

CheckpointCoordinator::CheckpointCoordinator(BufferPool* pool,
                                             LogBackend* log,
                                             TxnManager* txns,
                                             Options options,
                                             size_t segment_bytes)
    : pool_(pool),
      log_(log),
      txns_(txns),
      options_(options),
      segment_bytes_(segment_bytes) {
  size_at_last_visit_.resize(log_->num_partitions(), 0);
  visits_.resize(log_->num_partitions(), 0);
}

CheckpointCoordinator::~CheckpointCoordinator() { Stop(); }

void CheckpointCoordinator::Start() {
  if (!stop_.exchange(false, std::memory_order_acq_rel)) return;  // running
  daemon_ = std::thread([this] { DaemonLoop(); });
}

void CheckpointCoordinator::Stop() {
  stop_.store(true, std::memory_order_release);
  if (daemon_.joinable()) daemon_.join();
}

void CheckpointCoordinator::DaemonLoop() {
  // Watchdog heartbeat: checkpoints legitimately take a while (they flush
  // pages), so the beat lands before AND after each DoCheckpoint — only a
  // checkpoint exceeding the stall threshold reads as stuck.
  obs::ScopedHeartbeat hb("ckpt.daemon");
  while (!stop_.load(std::memory_order_acquire)) {
    hb->SetStage("nap");
    hb->SetIdle(true);
    NapMicros(kPollIntervalUs);
    hb->SetIdle(false);
    if (stop_.load(std::memory_order_acquire)) return;
    hb->Beat();
    const std::optional<uint32_t> due = PickPartition();
    if (!due) continue;
    hb->SetStage("checkpoint");
    (void)DoCheckpoint(*due, /*all_partitions=*/false);
    hb->Beat();
  }
}

std::optional<uint32_t> CheckpointCoordinator::PickPartition() {
  std::lock_guard<std::mutex> g(ckpt_mu_);
  if (pinned_by_ != kNoPartition) return pinned_by_;
  // Truncation frees whole segments, so a visit before a partition's log
  // grew by one segment would mostly cost an all-partition flush and a
  // page scan for nothing. Among the due partitions, the fastest-growing
  // has the most to free.
  std::optional<uint32_t> best;
  size_t best_growth = 0;
  for (uint32_t p = 0; p < log_->num_partitions(); ++p) {
    const size_t size = log_->PartitionStableSize(p);
    // A restart truncation or a global round can shrink a stream below
    // its baseline; growth counts from the low point.
    size_t& base = size_at_last_visit_[p];
    base = std::min(base, size);
    const size_t growth = size - base;
    if (growth >= segment_bytes_ && growth > best_growth) {
      best = p;
      best_growth = growth;
    }
  }
  return best;
}

Status CheckpointCoordinator::CheckpointPartition(uint32_t partition) {
  return DoCheckpoint(partition % log_->num_partitions(),
                      /*all_partitions=*/false);
}

Status CheckpointCoordinator::CheckpointGlobal() {
  return DoCheckpoint(kGlobalCheckpointPartition, /*all_partitions=*/true);
}

Status CheckpointCoordinator::DoCheckpoint(uint32_t partition,
                                           bool all_partitions) {
  std::lock_guard<std::mutex> g(ckpt_mu_);
  // A degraded engine takes no new checkpoints: the log horizon may be
  // frozen behind a poisoned partition, and any truncation computed now
  // could drop records recovery still needs to reach that frozen point.
  if (obs::EngineHealth::Default().degraded()) {
    return Status::Unavailable("ckpt: engine degraded, checkpoint skipped");
  }
  const bool metrics = obs::MetricsEnabled();
  const uint64_t t0 = metrics ? Cycles::Now() : 0;
  const uint64_t reclaimed_before = log_->reclaimed_bytes();
  const size_t size_before =
      all_partitions ? 0 : log_->PartitionStableSize(partition);

  // (0) Catalog snapshot: the schema description must be durable before
  // this round may truncate any log it describes.
  if (persist_catalog_) DORADB_RETURN_NOT_OK(persist_catalog_());

  // (1) Horizon cap, snapshotted before anything else: any record stamped
  // after this instant carries a larger LSN, so every in-flight operation
  // the scans below might miss is beyond the horizon by construction.
  const Lsn begin_lsn = log_->current_lsn();

  // (2) Active transactions: their undo-low pins lower-bound every
  // undoable record they ever log, covering changes whose rec_lsn stamp or
  // heap apply is still in flight (registration outlives the last apply).
  // Lock-only transactions (DORA's table-IX system transaction) never pin.
  Lsn min_active_pin;
  std::vector<TxnId> active = txns_->ActiveTxnSnapshot(&min_active_pin);

  // (3) Fuzzy flush of this partition's share of the dirty pages; the
  // pages left to other partitions' visits bound the horizon instead.
  BufferPool::CheckpointScan scan;
  DORADB_RETURN_NOT_OK(
      pool_->FlushPartition(partition, all_partitions, &scan));
  // File-backed page store: the horizon's claim is "reflected in the disk
  // image", so the flushed pages must actually be on the medium before
  // the checkpoint record (and any truncation) trusts them.
  DORADB_RETURN_NOT_OK(pool_->SyncDisk());

  // (4) The redo horizon this checkpoint vouches for.
  const Lsn horizon =
      std::min({begin_lsn, min_active_pin, scan.min_rec_lsn});

  // (5) Publish it: the record rides this partition's own stream. The
  // caller's binding is restored afterwards — a bound executor invoking a
  // manual checkpoint must not lose its private partition affinity.
  const uint32_t prev_binding = log_->CurrentPartition();
  if (!all_partitions) log_->BindThisThread(partition);
  LogRecord rec;
  rec.type = LogType::kCheckpointPart;
  rec.ckpt_partition = all_partitions ? kGlobalCheckpointPartition : partition;
  rec.redo_horizon = horizon;
  rec.active_txns = std::move(active);
  const Lsn end = log_->Append(&rec);
  if (!all_partitions) log_->BindThisThread(prev_binding);
  // If the wait fails (a partition poisoned mid-checkpoint) the round must
  // NOT truncate: the computed horizon assumed a flush that never became
  // durable, and truncating past a poisoned partition's frozen watermark
  // would drop records recovery still needs.
  DORADB_RETURN_NOT_OK(log_->WaitFlushed(end));

  // (6) Advance the truncation point. Safe regardless of whether the
  // checkpoint record itself survives a crash: the horizon's validity
  // rests on the page flushes above, which are already in the disk image.
  if (options_.truncate) {
    if (all_partitions) {
      log_->ReclaimStableBelow(horizon);
    } else {
      log_->ReclaimPartitionBelow(partition, horizon);
    }
  }

  last_horizon_.store(horizon, std::memory_order_release);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  pages_flushed_.fetch_add(scan.pages_flushed, std::memory_order_relaxed);
  pages_skipped_.fetch_add(scan.pages_skipped, std::memory_order_relaxed);

  // (7) Trigger bookkeeping: growth is measured from the post-visit
  // (post-truncation) size.
  const uint64_t reclaimed = log_->reclaimed_bytes() - reclaimed_before;
  if (all_partitions) {
    for (uint32_t p = 0; p < log_->num_partitions(); ++p) {
      size_at_last_visit_[p] = log_->PartitionStableSize(p);
    }
    pinned_by_ = kNoPartition;
  } else {
    ++visits_[partition];
    size_at_last_visit_[partition] = log_->PartitionStableSize(partition);
    if (pinned_by_ == partition) pinned_by_ = kNoPartition;
    // No pinning by a cold partition: if another partition's dirty page
    // set the horizon and this visit freed nothing of a segment's worth of
    // log, that partition holds truncation back. Visit it next, whatever
    // its growth. Requiring "freed nothing" keeps one visit from chaining
    // into the next: under load nearly every horizon is bounded by some
    // other partition's page, yet truncation still advances.
    const bool page_bound = horizon == scan.min_rec_lsn &&
                            scan.min_rec_partition < visits_.size();
    if (options_.truncate && page_bound && reclaimed == 0 &&
        size_before >= segment_bytes_) {
      pinned_by_ = scan.min_rec_partition;
    }
  }
  if (metrics) {
    static Histogram* dur = obs::MetricsRegistry::Default().GetHistogram(
        "ckpt.duration_ns", "ns");
    dur->Record(static_cast<uint64_t>(Cycles::ToNanos(Cycles::Now() - t0)));
    if (reclaimed > 0) {
      static obs::Counter* trunc = obs::MetricsRegistry::Default().GetCounter(
          "ckpt.truncated_bytes", "bytes");
      trunc->Add(reclaimed);
    }
  }
  return Status::OK();
}

std::vector<uint64_t> CheckpointCoordinator::partition_visits() const {
  std::lock_guard<std::mutex> g(ckpt_mu_);
  return visits_;
}

CheckpointCoordinator::Stats CheckpointCoordinator::stats() const {
  Stats s;
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.pages_flushed = pages_flushed_.load(std::memory_order_relaxed);
  s.pages_skipped = pages_skipped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ckpt
}  // namespace doradb
