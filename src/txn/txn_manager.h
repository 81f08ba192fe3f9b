// Transaction manager: id allocation and active-transaction bookkeeping
// (for checkpoints). Begin logs nothing. The commit/abort protocols live in
// engine::Database, which owns the storage objects they touch.

#ifndef DORADB_TXN_TXN_MANAGER_H_
#define DORADB_TXN_TXN_MANAGER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "lock/lock_manager.h"
#include "txn/transaction.h"

namespace doradb {

class TxnManager {
 public:
  explicit TxnManager(LockManager* lm) : lm_(lm) {}

  // Start a transaction: allocate an id and register it in the lock
  // manager's active-transaction table, the one registry the deadlock
  // detector and checkpoints both read. No log record is written.
  std::unique_ptr<Transaction> Begin();

  // Bookkeeping at transaction end (Database drives the full protocol).
  void Finish(Transaction* txn) { lm_->UnregisterTxn(txn->id()); }

  size_t num_active() const { return lm_->active_txns().Size(); }

  // Fuzzy-checkpoint snapshot: the active ids plus the smallest undo-low
  // pin among them (~0 if no active transaction has logged heap work). A
  // transaction's pin lower-bounds every undoable record it ever logs, is
  // set before its first heap-op append, and the transaction stays
  // registered until its last heap apply (post-commit deletes included) —
  // so no registered transaction can have un-applied or undo-needed log
  // records below the returned minimum. Transactions that never log heap
  // work (the DORA system transaction, pure readers) never pin, keeping
  // long-lived lock holders from freezing truncation.
  //
  // The table is read shard by shard, not atomically, and that suffices
  // for a checkpoint, which reads its `begin_lsn` cap before calling this:
  // a transaction registered before that read sits in one fixed shard (its
  // id picks it) until it unregisters, so the scan sees it unless it
  // unregisters first, and a transaction unregisters only after its last
  // heap apply, leaving nothing for undo and its page changes to the dirty
  // page scan. A transaction registered after the cap read pins, and logs,
  // only above the cap, which bounds the horizon anyway.
  std::vector<TxnId> ActiveTxnSnapshot(Lsn* min_undo_low) const {
    return lm_->active_txns().Snapshot(min_undo_low);
  }

  // Cold-start id resume: ensure every future id exceeds `txn_id`. A
  // reopened lifetime must not reissue an id that still has records
  // (e.g. a kCommit) in the recovered log, or an uncommitted reuse of
  // that id would inherit the old commit and become a recovery winner.
  void AdvanceTxnIdPast(TxnId txn_id) {
    TxnId cur = next_id_.load(std::memory_order_relaxed);
    while (txn_id + 1 > cur &&
           !next_id_.compare_exchange_weak(cur, txn_id + 1,
                                           std::memory_order_acq_rel)) {
    }
  }

  uint64_t started() const { return started_.load(std::memory_order_relaxed); }

 private:
  LockManager* const lm_;
  std::atomic<TxnId> next_id_{1};
  std::atomic<uint64_t> started_{0};
};

}  // namespace doradb

#endif  // DORADB_TXN_TXN_MANAGER_H_
