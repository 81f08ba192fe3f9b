// Deadlock detection over an explicit waits-for graph.
//
// Every blocked transaction records the set of transactions it waits for
// (snapshotted under the lock-head latch). A waiter runs the detector once
// when it blocks and again every detect_interval_us while parked; a waiter
// that finds itself on a cycle self-aborts with Status::Deadlock,
// releasing its locks and breaking the cycle. A timeout backstop catches
// anything detection misses (e.g. edges that became stale mid-walk).
// Detection work is charged to TimeClass::kLockOther — the "Other" slice
// of the paper's Fig. 3 lock-manager breakdown.

#ifndef DORADB_LOCK_DEADLOCK_H_
#define DORADB_LOCK_DEADLOCK_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/types.h"
#include "util/spinlock.h"

namespace doradb {

class Transaction;

// Sharded registry of active transactions: the detector resolves
// TxnId -> Transaction* through it to read waits-for edges, and
// checkpoints snapshot it (TxnManager::ActiveTxnSnapshot).
class ActiveTxnTable {
 public:
  static constexpr size_t kShards = 64;

  void Register(Transaction* txn);
  void Unregister(TxnId id);
  // Append the waits-for edges of `id` to `out`; false if the transaction
  // already finished. The edges are read under the table's shard latch,
  // which Unregister also takes, so a transaction that finishes and is
  // freed concurrently is never dereferenced after its unregistration.
  bool AppendWaitsFor(TxnId id, std::vector<TxnId>* out) const;
  size_t Size() const;
  // The registered ids and their smallest undo-low pin (~0 when none has
  // pinned), read one shard at a time under each shard's latch.
  std::vector<TxnId> Snapshot(Lsn* min_undo_low) const;

 private:
  struct Shard {
    mutable TatasLock lock;
    std::unordered_map<TxnId, Transaction*> map;
  };
  Shard& ShardFor(TxnId id) { return shards_[id % kShards]; }
  const Shard& ShardFor(TxnId id) const { return shards_[id % kShards]; }

  Shard shards_[kShards];
};

class DeadlockDetector {
 public:
  explicit DeadlockDetector(ActiveTxnTable* txns) : txns_(txns) {}

  // DFS from `self` over waits-for edges; true if `self` is on a cycle.
  bool WouldDeadlock(TxnId self) const;

  uint64_t cycles_found() const {
    return cycles_found_.load(std::memory_order_relaxed);
  }

 private:
  ActiveTxnTable* const txns_;
  mutable std::atomic<uint64_t> cycles_found_{0};
};

}  // namespace doradb

#endif  // DORADB_LOCK_DEADLOCK_H_
