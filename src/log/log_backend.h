// LogBackend: the append/wait/read surface of the write-ahead log, shared
// by the central LogManager and the partitioned plog backend.
//
// LSN semantics differ per backend but callers never need to care:
//  * Central log: an LSN is a byte offset into one log file; Append returns
//    the end-of-record offset and flushed_lsn() is the stable byte horizon.
//  * Partitioned log: an LSN is a GSN (global sequence number) drawn from
//    one atomic clock shared by all partitions; Append returns the record's
//    own GSN and flushed_lsn() is the GSN below which *every* partition is
//    stable.
// Both satisfy the two properties the rest of the engine relies on:
//  1. LSNs are totally ordered and assigned in append order per
//     transaction and per page (page-LSN monotonicity for redo).
//  2. WaitFlushed(Append(rec)) returning implies rec — and everything
//     ordered before it — survives DiscardVolatileTail.

#ifndef DORADB_LOG_LOG_BACKEND_H_
#define DORADB_LOG_LOG_BACKEND_H_

#include <cstdint>
#include <vector>

#include "log/log_record.h"
#include "util/status.h"

namespace doradb {

class LogBackend {
 public:
  virtual ~LogBackend() = default;

  // Append a record; assigns rec->lsn and returns the LSN that, once
  // covered by flushed_lsn(), makes the record durable.
  virtual Lsn Append(LogRecord* rec) = 0;

  // Block until everything up to `lsn` is stable (group commit wait).
  // Returns Unavailable when the stable medium is poisoned (a failed
  // durability point — see LogStorage::poisoned()) and the horizon can
  // never reach `lsn`: the record may or may not be on the platter, but
  // it must NOT be acknowledged as durable.
  virtual Status WaitFlushed(Lsn lsn) = 0;
  // Trigger + wait: used by the buffer pool's WAL rule before page steals.
  virtual Status FlushTo(Lsn lsn) = 0;

  // Commit-pipelining wait: like WaitFlushed, but the caller vouches that
  // `lsn` lives in `partition_hint`, so the backend may flush only that
  // partition and let the others' flushers advance the horizon on their
  // own cadence — avoiding an all-partition flush storm per commit.
  virtual Status WaitFlushedFrom(uint32_t partition_hint, Lsn lsn) {
    (void)partition_hint;
    return WaitFlushed(lsn);
  }

  virtual Lsn flushed_lsn() const = 0;
  virtual Lsn current_lsn() const = 0;

  // Crash simulation: drop all unflushed bytes.
  virtual void DiscardVolatileTail() = 0;

  // Kill simulation: like a crash, but without the restart-style stable
  // truncation DiscardVolatileTail performs — the stable medium is left
  // exactly as the dead process would leave it (torn tails and all), for
  // tests that reopen a file-backed log in a second lifetime.
  virtual void SimulateKill() { DiscardVolatileTail(); }

  // Recovery: decode the stable region as one LSN-ordered stream
  // (tolerates torn tails; a partitioned backend merges its streams and
  // truncates to the consistent recovery horizon).
  virtual std::vector<LogRecord> ReadStable() const = 0;

  // Checkpoint-driven truncation: drop stable records with LSN strictly
  // below `point` — the caller (src/ckpt/) vouches that everything below
  // is reflected in the disk image and belongs to no transaction that
  // could still need undo. Whole records only; the stream stays decodable.
  virtual void ReclaimStableBelow(Lsn point) { (void)point; }
  // Partition-scoped variant: reclaim only one partition's stable region
  // (the checkpoint coordinator advances truncation points per partition).
  // Single-stream backends ignore the partition and reclaim globally.
  virtual void ReclaimPartitionBelow(uint32_t partition, Lsn point) {
    (void)partition;
    ReclaimStableBelow(point);
  }

  virtual uint64_t appends() const = 0;
  virtual uint64_t flushes() const = 0;
  // Watermark-only header fdatasyncs elided on idle periodic flushes
  // (file-backed partitioned log; see LogManager::Options::
  // idle_sync_skip_ticks). 0 for backends without the optimization.
  virtual uint64_t idle_syncs_skipped() const { return 0; }
  virtual size_t stable_size() const = 0;
  // One partition's stable bytes (the whole stream for single-stream
  // backends) — the checkpoint coordinator visits a partition once this
  // value has grown by one segment.
  virtual size_t PartitionStableSize(uint32_t partition) const {
    (void)partition;
    return stable_size();
  }
  // Segment files currently backing the stable region (0 when in-memory).
  virtual size_t segment_files() const { return 0; }
  // Highest page id referenced by any record recovered at cold start
  // (kInvalidPageId when none / in-memory). A reopened Database raises
  // the page allocator past it before application code (eager index
  // roots) can allocate, or redo would clobber the reused page.
  virtual PageId recovered_max_page_id() const { return kInvalidPageId; }
  // Total bytes dropped by ReclaimStableBelow over this backend's life.
  virtual uint64_t reclaimed_bytes() const { return 0; }

  // Partition-affinity hint: a DORA executor calls this once with its
  // global index so its appends go to a private partition. No-op for the
  // central log.
  virtual void BindThisThread(uint32_t hint) { (void)hint; }
  // The partition this thread's appends currently go to (0 centrally);
  // DORA routes commit acks to the matching per-partition queue.
  virtual uint32_t CurrentPartition() const { return 0; }
  virtual uint32_t num_partitions() const { return 1; }
};

}  // namespace doradb

#endif  // DORADB_LOG_LOG_BACKEND_H_
