// PartitionedLogManager: the engine's write-ahead log — N LogPartitions
// behind one append/wait/read surface (log/log_backend.h names it
// LogBackend), so TxnManager, BufferPool, and Recovery see a single
// GSN-ordered log however many partitions back it.
//
// Append path: a thread appends to its bound partition (DORA executors
// bind 1:1 via BindThisThread; unbound threads get a sticky round-robin
// partition on first use). The only shared write is the GsnClock
// fetch_add — the §5.4 log-buffer latch convoy is gone by construction.
// With num_partitions = 1 every thread appends through that one
// partition's latch: the centralized log the paper's §5.4 measures
// (Database's LogBackendKind::kCentral).
//
// Durability: flushed_lsn() is the *global* stable horizon
//     H = min over partitions p of watermark(p),
// i.e. the GSN below which every partition has persisted everything it
// hosts. WaitFlushed(gsn) triggers flushes on lagging partitions until
// H >= gsn. Because commit acks gate on H, and GSNs are issued in real-time
// order, an acked commit can never depend on an unacked one — this is the
// property that makes DORA's early lock release safe: a dependent
// transaction's commit record always carries a larger GSN and therefore
// cannot become durable-acked before its predecessor's. (A read-only
// dependent appends no record; it gates on the early-release horizon —
// see Database::CommitAppend.)
//
// Recovery: ReadStable() decodes every partition stream (each tolerating
// its own torn tail), computes the recovery horizon
//     H' = min over p of max(watermark(p), last decodable GSN of p),
// drops records above H', and merges the rest by GSN. The result is a
// single totally-ordered stream containing *all* records with GSN <= H' —
// the committed prefix — so RecoveryDriver sees one log. A crash
// (DiscardVolatileTail) also truncates every stable tail to H', as a
// restart would, so repeated crash/recover cycles replay the same prefix.

#ifndef DORADB_PLOG_PARTITIONED_LOG_MANAGER_H_
#define DORADB_PLOG_PARTITIONED_LOG_MANAGER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "log/log_record.h"
#include "plog/gsn_clock.h"
#include "plog/log_partition.h"
#include "util/status.h"

namespace doradb {
namespace plog {

// Flush policy, set through Database::Options::log.
struct LogOptions {
  uint64_t flush_interval_us = 50;  // group-commit window
  bool synchronous = false;         // flush inline on every append (tests)
  // File-backed log only: an idle partition whose periodic flush would
  // persist nothing but a watermark-header advance may skip the fdatasync
  // up to this many consecutive ticks (then a heartbeat sync bounds the
  // persisted claim's lag). Waiters (commit acks, explicit WaitFlushed)
  // always force the sync, so durability acknowledgements never observe
  // the skip.
  uint32_t idle_sync_skip_ticks = 64;
};

class PartitionedLogManager {
 public:
  struct Options {
    uint32_t num_partitions = 4;
    LogOptions log;
    // Non-empty: back each partition's stable stream with segment files
    // under `<data_dir>/plog-<i>` (see log/segment_file.h). Existing
    // segments are adopted at construction — the cold-start path — and the
    // GSN clock resumes past the highest recovered claim.
    std::string data_dir;
    size_t segment_target_bytes = 1 << 20;
  };

  explicit PartitionedLogManager(Options options);
  ~PartitionedLogManager();
  PartitionedLogManager(const PartitionedLogManager&) = delete;
  PartitionedLogManager& operator=(const PartitionedLogManager&) = delete;

  // Append a record to this thread's partition; stamps rec->lsn with a
  // fresh GSN and returns it. The record is durable once flushed_lsn()
  // covers that GSN.
  Lsn Append(LogRecord* rec);

  // Block until everything up to `lsn` is stable (group commit wait).
  // Returns Unavailable when a partition's stable medium is poisoned (a
  // failed durability point — see LogStorage::poisoned()) and the horizon
  // can never reach `lsn`: the record may or may not be on the platter,
  // but it must NOT be acknowledged as durable.
  Status WaitFlushed(Lsn lsn);

  Lsn flushed_lsn() const;
  Lsn current_lsn() const { return clock_.last_issued(); }

  // Crash simulation: drop every partition's unflushed bytes and truncate
  // the stable streams to the consistent recovery horizon.
  void DiscardVolatileTail();
  // Kill simulation: like a crash, but without the restart-style stable
  // truncation — the stable media are left exactly as the dead process
  // would leave them (torn tails and all), for tests that reopen a
  // file-backed log in a second lifetime.
  void SimulateKill();
  // Recovery: the merged, GSN-ordered committed prefix (see above).
  std::vector<LogRecord> ReadStable() const;

  // Checkpoint-driven truncation: drop stable records with GSN strictly
  // below `point` — the caller (src/ckpt/) vouches that everything below
  // is reflected in the disk image and belongs to no transaction that
  // could still need undo. Whole records only; the streams stay decodable.
  void ReclaimStableBelow(Lsn point);
  // Partition-scoped variant: the checkpoint coordinator advances
  // truncation points per partition.
  void ReclaimPartitionBelow(uint32_t partition, Lsn point);
  // Total bytes dropped by reclamation over this log's life.
  uint64_t reclaimed_bytes() const;

  uint64_t appends() const;
  uint64_t flushes() const;
  // Watermark-only header fdatasyncs elided on idle periodic flushes
  // (see LogOptions::idle_sync_skip_ticks).
  uint64_t idle_syncs_skipped() const;
  size_t stable_size() const;
  // One partition's stable bytes — the checkpoint coordinator visits a
  // partition once this value has grown by one segment.
  size_t PartitionStableSize(uint32_t partition) const {
    return partitions_[partition % partitions_.size()]->stable_size();
  }
  // Segment files currently backing the stable streams (0 when in-memory).
  size_t segment_files() const;
  // Highest page id referenced by any record recovered at cold start
  // (kInvalidPageId when none / in-memory). A reopened Database raises
  // the page allocator past it before application code (eager index
  // roots) can allocate, or redo would clobber the reused page.
  PageId recovered_max_page_id() const;

  // Partition-affinity hint: a DORA executor calls this once with its
  // global index so its appends go to partition `hint % num_partitions()`.
  void BindThisThread(uint32_t hint);
  // The partition this thread's appends go to; DORA routes commit acks to
  // the matching per-partition queue.
  uint32_t CurrentPartition() const;
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(partitions_.size());
  }

  LogPartition* partition(uint32_t i) { return partitions_[i].get(); }
  // Flush one partition only (tests drive skewed flush progress with it).
  void FlushPartition(uint32_t i) { partitions_[i]->Flush(); }

 private:
  void FlusherLoop(uint32_t index, uint32_t stride);
  // This thread's partition index (binding it round-robin on first use).
  uint32_t LocalIndex() const;

  const Options options_;
  const uint64_t instance_id_;  // distinguishes tls bindings across managers
  GsnClock clock_;
  std::vector<std::unique_ptr<LogPartition>> partitions_;

  mutable std::atomic<uint32_t> next_unbound_{0};  // sticky round-robin

  std::atomic<bool> stop_{false};
  // One per partition, capped at the core count (each sweeps a slice).
  std::vector<std::thread> flushers_;
};

}  // namespace plog
}  // namespace doradb

#endif  // DORADB_PLOG_PARTITIONED_LOG_MANAGER_H_
