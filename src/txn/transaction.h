// Transaction state: identity, 2PL lock bookkeeping, in-memory undo chain,
// waits-for edges for deadlock detection, and post-commit actions (used by
// DORA to flag secondary-index entries outside any transaction, §4.2.2).

#ifndef DORADB_TXN_TRANSACTION_H_
#define DORADB_TXN_TRANSACTION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "lock/lock_request.h"
#include "log/log_record.h"
#include "storage/types.h"
#include "util/spinlock.h"

namespace doradb {

enum class TxnState : uint8_t {
  kActive = 0,
  kCommitted,
  kAborted,
};

// Undo information for one heap operation, applied in reverse on abort.
struct UndoRecord {
  enum class Kind : uint8_t { kInsert, kUpdate, kDelete };
  Kind kind;
  TableId table;
  Rid rid;
  std::string before;  // old image for kUpdate / kDelete
  Lsn lsn = kInvalidLsn;
};

// Logical undo for one index operation.
struct IndexUndo {
  enum class Kind : uint8_t { kInsert, kRemove };
  Kind kind;
  IndexId index;
  std::string key;
  Rid rid;
  uint64_t aux = 0;
};

class Transaction {
 public:
  explicit Transaction(TxnId id) : id_(id) {}
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  TxnState state() const { return state_; }
  void set_state(TxnState s) { state_ = s; }

  Lsn last_lsn() const { return last_lsn_; }

  // Cycle timestamp at Begin (TxnManager stamps it); the commit paths
  // derive the commit-latency histogram from it. 0 = never stamped.
  uint64_t start_tsc() const { return start_tsc_; }
  void set_start_tsc(uint64_t tsc) { start_tsc_ = tsc; }

  // Checkpoint pin: a lower bound on the LSN of every undoable (heap)
  // record this transaction has logged or is about to log — set once,
  // immediately before its first heap-op append, to the clock's value at
  // that instant. The fuzzy checkpoint horizon must not pass the minimum
  // pin over registered transactions, or truncation could drop records a
  // restart undo still needs. Transactions that never touch a heap (the
  // DORA system transaction holding table IX locks, pure readers) never
  // pin, so they do not hold back truncation. kInvalidLsn = unset.
  void PinUndoLow(Lsn lsn) {
    Lsn expect = kInvalidLsn;
    undo_low_.compare_exchange_strong(expect, lsn, std::memory_order_release,
                                      std::memory_order_relaxed);
  }
  Lsn undo_low() const { return undo_low_.load(std::memory_order_acquire); }

  // ---- lock manager bookkeeping ----
  //
  // A DORA transaction's actions execute on several executor threads inside
  // one phase, so all per-transaction bookkeeping (request pool, held-lock
  // list, undo chains, log chaining) must tolerate concurrent callers; a
  // short spinlock serializes them.

  // Stable-address pool of request nodes for this transaction.
  LockRequest* NewRequest() {
    TatasGuard g(bk_lock_, TimeClass::kLockOther);
    request_pool_.emplace_back();
    return &request_pool_.back();
  }

  // Record a newly granted request (its lock_id is set).
  void PushHeld(LockRequest* req) {
    TatasGuard g(bk_lock_, TimeClass::kLockOther);
    held_locks_.push_back(req);
    IndexHeld(req);
  }

  // Snapshot + clear, for ReleaseAll (the transaction is quiescent then,
  // but the snapshot keeps the invariant simple).
  std::vector<LockRequest*> TakeHeldLocks() {
    TatasGuard g(bk_lock_, TimeClass::kLockOther);
    std::vector<LockRequest*> out;
    out.swap(held_locks_);
    held_index_.clear();
    return out;
  }

  size_t held_count() const {
    TatasGuard g(bk_lock_, TimeClass::kLockOther);
    return held_locks_.size();
  }

  // The lock cache: O(1) whatever the number of held locks.
  LockRequest* FindHeld(const LockId& id) {
    TatasGuard g(bk_lock_, TimeClass::kLockOther);
    if (held_index_.empty()) return nullptr;
    const size_t mask = held_index_.size() - 1;
    for (size_t i = LockIdHash()(id) & mask;; i = (i + 1) & mask) {
      LockRequest* r = held_index_[i];
      if (r == nullptr || r->lock_id == id) return r;
    }
  }

  // Append a log record chained to this transaction (sets prev_lsn, updates
  // last_lsn atomically w.r.t. sibling actions) and optionally record undo.
  template <typename LogMgr, typename Rec>
  Lsn ChainAppend(LogMgr* log, Rec* rec) {
    TatasGuard g(bk_lock_, TimeClass::kLogWork);
    rec->prev_lsn = last_lsn_;
    const Lsn end = log->Append(rec);
    last_lsn_ = rec->lsn;
    return end;
  }

  // True once any record has been chained. Begin logs nothing, so false
  // means read-only: the commit appends no record and its only durability
  // obligation is the early-release horizon (Database::CommitAppend), and
  // an abort has nothing to compensate. Read by the commit/abort paths,
  // when the transaction is quiescent.
  bool logged_work() const { return last_lsn_ != kInvalidLsn; }

  void PushUndo(UndoRecord rec) {
    TatasGuard g(bk_lock_, TimeClass::kLockOther);
    undo_.push_back(std::move(rec));
  }
  void PushIndexUndo(IndexUndo rec) {
    TatasGuard g(bk_lock_, TimeClass::kLockOther);
    index_undo_.push_back(std::move(rec));
  }

  // ---- waits-for edges (read by the deadlock detector from any thread) ----

  void SetWaitsFor(std::vector<TxnId> holders) {
    TatasGuard g(waits_lock_, TimeClass::kLockOther);
    waits_for_ = std::move(holders);
  }
  void ClearWaitsFor() {
    TatasGuard g(waits_lock_, TimeClass::kLockOther);
    waits_for_.clear();
  }
  std::vector<TxnId> WaitsForSnapshot() const {
    TatasGuard g(waits_lock_, TimeClass::kLockOther);
    return waits_for_;
  }

  // ---- undo chains ----

  std::vector<UndoRecord>& undo() { return undo_; }
  std::vector<IndexUndo>& index_undo() { return index_undo_; }

  // Actions run after a successful commit, outside the transaction (e.g.
  // setting the deleted flag on secondary index entries, §4.2.2).
  void AddPostCommit(std::function<void()> fn) {
    TatasGuard g(bk_lock_, TimeClass::kLockOther);
    post_commit_.push_back(std::move(fn));
  }
  std::vector<std::function<void()>>& post_commit() { return post_commit_; }

 private:
  void IndexHeld(LockRequest* req) {  // bk_lock_ held
    if (2 * held_locks_.size() > held_index_.size()) {
      held_index_.assign(std::max<size_t>(16, 2 * held_index_.size()),
                         nullptr);
      for (LockRequest* held : held_locks_) InsertIndexed(held);
    } else {
      InsertIndexed(req);
    }
  }
  void InsertIndexed(LockRequest* req) {
    const size_t mask = held_index_.size() - 1;
    size_t i = LockIdHash()(req->lock_id) & mask;
    while (held_index_[i] != nullptr) i = (i + 1) & mask;
    held_index_[i] = req;
  }

  const TxnId id_;
  TxnState state_ = TxnState::kActive;
  Lsn last_lsn_ = kInvalidLsn;
  uint64_t start_tsc_ = 0;
  std::atomic<Lsn> undo_low_{kInvalidLsn};

  mutable TatasLock bk_lock_;  // serializes bookkeeping across executors
  std::deque<LockRequest> request_pool_;
  std::vector<LockRequest*> held_locks_;  // acquisition order, for release
  // Open-addressed index over held_locks_ (linear probing on lock_id, at
  // most half full, power-of-two size; empty until the first lock).
  std::vector<LockRequest*> held_index_;

  mutable TatasLock waits_lock_;
  std::vector<TxnId> waits_for_;

  std::vector<UndoRecord> undo_;
  std::vector<IndexUndo> index_undo_;
  std::vector<std::function<void()>> post_commit_;
};

}  // namespace doradb

#endif  // DORADB_TXN_TRANSACTION_H_
