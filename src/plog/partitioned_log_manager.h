// PartitionedLogManager: the plog facade — one LogPartition per DORA
// executor behind the LogBackend surface, so TxnManager, BufferPool, and
// Recovery run unchanged against either backend.
//
// Append path: a thread appends to its bound partition (DORA executors
// bind 1:1 via BindThisThread; unbound threads get a sticky round-robin
// partition on first use). The only shared write is the GsnClock
// fetch_add — the §5.4 log-buffer latch convoy is gone by construction.
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
// see Database::CommitAsync.)
//
// Recovery: ReadStable() decodes every partition stream (each tolerating
// its own torn tail), computes the recovery horizon
//     H' = min over p of max(watermark(p), last decodable GSN of p),
// drops records above H', and merges the rest by GSN. The result is a
// single totally-ordered stream containing *all* records with GSN <= H' —
// exactly the committed prefix the central log would expose — so
// RecoveryDriver runs unmodified. A crash (DiscardVolatileTail) also
// truncates every stable tail to H', as a restart would, so repeated
// crash/recover cycles replay the same prefix.

#ifndef DORADB_PLOG_PARTITIONED_LOG_MANAGER_H_
#define DORADB_PLOG_PARTITIONED_LOG_MANAGER_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "log/log_backend.h"
#include "log/log_manager.h"
#include "plog/gsn_clock.h"
#include "plog/log_partition.h"

namespace doradb {
namespace plog {

class PartitionedLogManager final : public LogBackend {
 public:
  struct Options {
    uint32_t num_partitions = 4;
    // Flush cadence / synchronous mode, shared with the central backend so
    // benchmarks can A/B them under identical settings.
    LogManager::Options log;
    // Non-empty: back each partition's stable stream with segment files
    // under `<data_dir>/plog-<i>` (see log/segment_file.h). Existing
    // segments are adopted at construction — the cold-start path — and the
    // GSN clock resumes past the highest recovered claim.
    std::string data_dir;
    size_t segment_target_bytes = 1 << 20;
  };

  explicit PartitionedLogManager(Options options);
  ~PartitionedLogManager() override;
  PartitionedLogManager(const PartitionedLogManager&) = delete;
  PartitionedLogManager& operator=(const PartitionedLogManager&) = delete;

  Lsn Append(LogRecord* rec) override;
  Status WaitFlushed(Lsn lsn) override;
  Status FlushTo(Lsn lsn) override { return WaitFlushed(lsn); }
  Status WaitFlushedFrom(uint32_t partition_hint, Lsn lsn) override;

  Lsn flushed_lsn() const override;
  Lsn current_lsn() const override { return clock_.last_issued(); }

  void DiscardVolatileTail() override;
  void SimulateKill() override;
  std::vector<LogRecord> ReadStable() const override;

  void ReclaimStableBelow(Lsn point) override;
  void ReclaimPartitionBelow(uint32_t partition, Lsn point) override;
  uint64_t reclaimed_bytes() const override;

  uint64_t appends() const override;
  uint64_t flushes() const override;
  uint64_t idle_syncs_skipped() const override;
  size_t stable_size() const override;
  size_t PartitionStableSize(uint32_t partition) const override {
    return partitions_[partition % partitions_.size()]->stable_size();
  }
  size_t segment_files() const override;
  PageId recovered_max_page_id() const override;

  void BindThisThread(uint32_t hint) override;
  uint32_t CurrentPartition() const override;
  uint32_t num_partitions() const override {
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
