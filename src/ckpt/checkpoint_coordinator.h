// CheckpointCoordinator: partition-local fuzzy checkpoints with
// checkpoint-driven log truncation.
//
// Database::Checkpoint used to stall the world — flush the entire buffer
// pool, then write one global checkpoint record — and the stable log grew
// without bound, so restart time scaled with total history. This daemon
// decomposes the checkpoint the same way plog decomposed the append path:
// it visits a log partition once that partition's stable log has grown by
// one segment (the unit truncation frees) and, per visit, runs one *fuzzy*
// checkpoint of that partition, concurrent with transaction execution (no
// quiescence — executors keep appending and dirtying pages throughout):
//
//   1. snapshot `begin_lsn` from the log clock — every record stamped
//      after this instant exceeds it, capping the horizon against all
//      in-flight races;
//   2. snapshot the active-transaction table with its minimum undo-low
//      pin — a registered transaction pins, just before its first heap-op
//      append, a lower bound on every undoable record it will ever log,
//      and stays registered until its last heap apply (post-commit deletes
//      included), so un-applied or un-stamped changes are always covered
//      by this term while lock-only transactions never hold it back;
//   3. flush the dirty pages whose last logged writer was bound to this
//      partition (a consistent copy per page, under the frame read latch),
//      collecting the minimum rec_lsn of the dirty pages left to other
//      partitions' visits;
//   4. the redo horizon H = min(1, 2, 3): every record with LSN < H is
//      reflected in the disk image and belongs to no transaction that
//      could still need undo;
//   5. append a kCheckpointPart record carrying H and the active set into
//      this partition's own stream, wait for it to become durable, and
//   6. advance this partition's truncation point: reclaim its stable
//      region below H.
//
// A visit whose horizon another partition's dirty page held below all of
// this partition's log marks that partition for the next visit, whatever
// its growth: a quiet partition holding one old dirty page would otherwise
// never reach the trigger and would stop every other partition's
// truncation for good.
//
// Recovery consumes the horizons instead of the global record: redo starts
// at the maximum durable H (records below it never need replay), and with
// truncation on, the on-disk log itself is bounded by the un-checkpointed
// suffix — restart cost is O(dirty data), not O(history).

#ifndef DORADB_CKPT_CHECKPOINT_COORDINATOR_H_
#define DORADB_CKPT_CHECKPOINT_COORDINATOR_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "log/log_backend.h"
#include "storage/buffer_pool.h"
#include "txn/txn_manager.h"
#include "util/status.h"

namespace doradb {
namespace ckpt {

class CheckpointCoordinator {
 public:
  struct Options {
    // Run the background daemon (manual Checkpoint* calls work either way).
    bool enabled = false;
    // Reclaim each partition's stable log below the redo horizon.
    bool truncate = true;
  };

  // Daemon poll period: how often it asks PickPartition whether a visit
  // is due. An idle system is polled but never visited.
  static constexpr uint64_t kPollIntervalUs = 2000;

  struct Stats {
    uint64_t checkpoints = 0;    // kCheckpointPart records written
    uint64_t pages_flushed = 0;  // dirty pages written back by checkpoints
    uint64_t pages_skipped = 0;  // dirty pages left to other partitions
  };

  // `segment_bytes` is the log's segment roll target: a partition is due
  // for a visit once its stable log has grown by that much.
  CheckpointCoordinator(BufferPool* pool, LogBackend* log, TxnManager* txns,
                        Options options, size_t segment_bytes);
  ~CheckpointCoordinator();
  CheckpointCoordinator(const CheckpointCoordinator&) = delete;
  CheckpointCoordinator& operator=(const CheckpointCoordinator&) = delete;

  // Start/stop the daemon. Idempotent; Stop joins the thread
  // (a crashed process takes its checkpointer with it, so SimulateCrash
  // stops the daemon and Recover restarts it).
  void Start();
  void Stop();
  bool running() const { return !stop_.load(std::memory_order_acquire); }

  // One fuzzy checkpoint of one partition, synchronously, on the calling
  // thread (which gets log-bound to `partition` so the checkpoint record
  // lands in that partition's stream).
  Status CheckpointPartition(uint32_t partition);

  // One classic global checkpoint: whole-pool flush, one record covering
  // all partitions, truncation of every stream.
  Status CheckpointGlobal();

  // The redo horizon of the most recent completed checkpoint.
  Lsn last_horizon() const {
    return last_horizon_.load(std::memory_order_acquire);
  }
  Stats stats() const;
  // Completed checkpoint visits per log partition (hot partitions should
  // show more visits).
  std::vector<uint64_t> partition_visits() const;

  // Catalog snapshot hook, run at the start of every checkpoint round
  // before a horizon is published: log truncation must never outrun the
  // durable schema description (DDL write-through normally keeps
  // catalog.db current, making this a cheap no-op — see
  // storage/catalog_store.h). A failing persist fails the checkpoint.
  void SetCatalogPersist(std::function<Status()> fn) {
    persist_catalog_ = std::move(fn);
  }

  // The partition the daemon would visit next, if any: a partition marked
  // as holding back another's truncation, else the one whose stable log
  // grew the most since its last visit, provided it grew by at least one
  // segment. nullopt when nothing is due.
  std::optional<uint32_t> PickPartition();

 private:
  void DaemonLoop();
  Status DoCheckpoint(uint32_t partition, bool all_partitions);

  BufferPool* const pool_;
  LogBackend* const log_;
  TxnManager* const txns_;
  const Options options_;
  const size_t segment_bytes_;
  std::function<Status()> persist_catalog_;

  mutable std::mutex ckpt_mu_;  // serializes rounds (daemon + manual callers)
  // Trigger bookkeeping, under ckpt_mu_: per-partition stable size at
  // last visit, completed visits, and the partition marked to visit next
  // (kNoPartition when none).
  static constexpr uint32_t kNoPartition = ~uint32_t{0};
  std::vector<size_t> size_at_last_visit_;
  std::vector<uint64_t> visits_;
  uint32_t pinned_by_ = kNoPartition;
  std::atomic<Lsn> last_horizon_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> pages_flushed_{0};
  std::atomic<uint64_t> pages_skipped_{0};

  std::atomic<bool> stop_{true};
  std::thread daemon_;
};

}  // namespace ckpt
}  // namespace doradb

#endif  // DORADB_CKPT_CHECKPOINT_COORDINATOR_H_
