// Centralized hierarchical lock manager, modeled on Shore-MT's (paper §3):
//
//   "In Shore-MT every logical lock is a data structure that contains the
//    lock's mode, the head of a linked list of lock requests (granted or
//    pending), and a latch. When a transaction attempts to acquire a lock
//    the lock manager first ensures the transaction holds higher-level
//    intention locks, requesting them automatically if needed. ... the
//    manager probes a hash table to find the desired lock. Once the lock is
//    located, it is latched and the new request is appended to the request
//    list. ... At transaction completion, the transaction releases the
//    locks one by one starting from the youngest."
//
// The latch on each lock head is a queue-based MCS spinlock; time spent
// spinning on it is charged to kLockAcquireContention/kLockReleaseContention
// so the benchmarks can reproduce the paper's Figs. 1-3 breakdowns. Grants
// are FIFO (upgrades jump the queue). A blocked requester parks on a futex
// word in its request and the releasing thread wakes it. Deadlocks are
// resolved by waiter-side waits-for-graph detection, once when a request
// blocks and then every detect_interval_us, with a timeout backstop. See
// src/lock/README.md.

#ifndef DORADB_LOCK_LOCK_MANAGER_H_
#define DORADB_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "lock/deadlock.h"
#include "lock/lock_id.h"
#include "lock/lock_mode.h"
#include "lock/lock_request.h"
#include "storage/types.h"
#include "util/spinlock.h"
#include "util/status.h"

namespace doradb {

class Transaction;

// One logical lock: group mode is derivable from the granted requests; the
// request list is FIFO-ordered.
struct LockHead {
  LockId id{};
  McsLock latch;
  LockRequest* first = nullptr;
  LockRequest* last = nullptr;
  bool dead = false;       // unlinked from its bucket; retry lookup
  LockHead* bucket_next = nullptr;
};

class LockManager {
 public:
  struct Options {
    uint64_t wait_timeout_us = 2000000;   // blocked-wait backstop
    // Period of the waiter's deadlock re-check while blocked (after the
    // check made when it blocks).
    uint64_t detect_interval_us = 500;
    bool deadlock_detection = true;
  };

  explicit LockManager(Options options);
  LockManager() : LockManager(Options()) {}
  ~LockManager();
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Transactions must be registered before locking (deadlock detection
  // resolves TxnId -> Transaction* through this table).
  void RegisterTxn(Transaction* txn) { txns_.Register(txn); }
  void UnregisterTxn(TxnId id) { txns_.Unregister(id); }
  const ActiveTxnTable& active_txns() const { return txns_; }

  // Acquire (or upgrade to) `mode` on an arbitrary resource.
  Status Lock(Transaction* txn, const LockId& id, LockMode mode);

  // Table lock; counted as "higher-level" for the Fig. 5 lock census.
  Status LockTable(Transaction* txn, TableId table, LockMode mode);

  // Row lock; automatically ensures the intention lock on the table first.
  Status LockRow(Transaction* txn, TableId table, const Rid& rid,
                 LockMode mode);

  // Strict 2PL: release everything, youngest first (paper §3).
  void ReleaseAll(Transaction* txn);

  // Current group mode of a resource (kNL if unlocked); test/debug hook.
  LockMode GroupModeOf(const LockId& id);

  const DeadlockDetector& detector() const { return detector_; }
  uint64_t acquires() const {
    return acquires_.load(std::memory_order_relaxed);
  }
  uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }
  uint64_t deadlocks() const {
    return deadlocks_.load(std::memory_order_relaxed);
  }
  uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kNumBuckets = 1 << 13;
  // Longest single park. The releaser's wake normally ends a park within
  // microseconds, but a wake that lands on a descheduled virtual CPU can
  // take milliseconds; the waiter's own timer bounds that delay.
  static constexpr uint64_t kMaxParkUs = 50;

  struct Bucket {
    TatasLock latch;
    LockHead* heads = nullptr;      // live heads (chained via bucket_next)
    LockHead* free_list = nullptr;  // dead heads available for reuse
  };

  Bucket& BucketFor(const LockId& id) {
    return buckets_[LockIdHash()(id) & (kNumBuckets - 1)];
  }

  // Find or create the head for `id` and return it latched (caller owns
  // `qn` until it unlocks). Handles the lookup/dead race internally.
  LockHead* LatchHead(const LockId& id, McsLock::QNode* qn, TimeClass tc);

  // True if `mode` is compatible with every granted request except `self`.
  static bool CompatibleWithOthers(LockHead* head, const LockRequest* self,
                                   LockMode mode);
  static bool AnyWaitersBefore(LockHead* head, const LockRequest* self);
  static void Unlink(LockHead* head, LockRequest* req);

  // Grant `q` its target mode and wake its owner if it is parked. Called
  // with the head latched: `q` stays linked until its owner re-latches the
  // head, so the wake never touches a released request.
  static void Grant(LockRequest* q);

  // Grant any waiters whose requests are now compatible (FIFO; pending
  // upgrades first). Called with the head latched.
  static void GrantWaiters(LockHead* head);

  // Snapshot of txns blocking `self` (for the waits-for graph).
  static std::vector<TxnId> BlockersOf(LockHead* head,
                                       const LockRequest* self);

  // Blocked wait: checks for a deadlock once, then parks on the request's
  // futex word until granted (each park at most kMaxParkUs), re-checking
  // for a deadlock every detect_interval_us and giving up after
  // wait_timeout_us. Returns OK / Deadlock / Timeout.
  Status WaitForGrant(Transaction* txn, LockRequest* req);

  // Try to garbage-collect a (probably) empty head.
  void MaybeReapHead(const LockId& id);

  const Options options_;
  std::vector<Bucket> buckets_;
  ActiveTxnTable txns_;
  DeadlockDetector detector_;

  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> waits_{0};
  std::atomic<uint64_t> deadlocks_{0};
  std::atomic<uint64_t> timeouts_{0};
};

}  // namespace doradb

#endif  // DORADB_LOCK_LOCK_MANAGER_H_
