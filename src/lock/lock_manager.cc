#include "lock/lock_manager.h"

#include <algorithm>

#include "txn/transaction.h"
#include "util/mpsc_queue.h"

namespace doradb {

LockManager::LockManager(Options options)
    : options_(options), buckets_(kNumBuckets), detector_(&txns_) {}

LockManager::~LockManager() {
  for (Bucket& b : buckets_) {
    LockHead* h = b.heads;
    while (h != nullptr) {
      LockHead* next = h->bucket_next;
      delete h;
      h = next;
    }
    h = b.free_list;
    while (h != nullptr) {
      LockHead* next = h->bucket_next;
      delete h;
      h = next;
    }
  }
}

LockHead* LockManager::LatchHead(const LockId& id, McsLock::QNode* qn,
                                 TimeClass tc) {
  Bucket& bucket = BucketFor(id);
  for (;;) {
    LockHead* head = nullptr;
    {
      TatasGuard g(bucket.latch, tc);
      for (LockHead* h = bucket.heads; h != nullptr; h = h->bucket_next) {
        if (h->id == id) {
          head = h;
          break;
        }
      }
      if (head == nullptr) {
        if (bucket.free_list != nullptr) {
          head = bucket.free_list;
          bucket.free_list = head->bucket_next;
          // Initialize under the head latch: late spinners from the head's
          // previous life may still be queued on it.
          McsLock::QNode init_qn;
          head->latch.Lock(&init_qn, tc);
          head->id = id;
          head->dead = false;
          head->first = head->last = nullptr;
          head->latch.Unlock(&init_qn);
        } else {
          head = new LockHead();
          head->id = id;
        }
        head->bucket_next = bucket.heads;
        bucket.heads = head;
      }
    }
    head->latch.Lock(qn, tc);
    if (!head->dead && head->id == id) return head;
    head->latch.Unlock(qn);  // reaped (and possibly reused); retry lookup
  }
}

bool LockManager::CompatibleWithOthers(LockHead* head,
                                       const LockRequest* self,
                                       LockMode mode) {
  for (LockRequest* q = head->first; q != nullptr; q = q->next) {
    if (q == self || q->granted_mode == LockMode::kNL) continue;
    if (!Compatible(mode, q->granted_mode)) return false;
  }
  return true;
}

bool LockManager::AnyWaitersBefore(LockHead* head, const LockRequest* self) {
  for (LockRequest* q = head->first; q != nullptr; q = q->next) {
    if (q == self) continue;
    if (q->Waiting()) return true;
  }
  return false;
}

void LockManager::Unlink(LockHead* head, LockRequest* req) {
  if (req->prev != nullptr) {
    req->prev->next = req->next;
  } else {
    head->first = req->next;
  }
  if (req->next != nullptr) {
    req->next->prev = req->prev;
  } else {
    head->last = req->prev;
  }
  req->next = req->prev = nullptr;
  req->granted_mode = LockMode::kNL;
  req->target_mode = LockMode::kNL;
}

void LockManager::Grant(LockRequest* q) {
  q->granted_mode = q->target_mode;
  if (q->grant.exchange(LockRequest::kGranted, std::memory_order_acq_rel) ==
      LockRequest::kParked) {
    detail::FutexWake(&q->grant);
  }
}

void LockManager::GrantWaiters(LockHead* head) {
  // Pass 1: pending upgrades jump the queue (they already hold a weaker
  // mode; waiting behind new arrivals could deadlock them).
  for (LockRequest* q = head->first; q != nullptr; q = q->next) {
    if (!q->Waiting() || q->granted_mode == LockMode::kNL) continue;
    if (CompatibleWithOthers(head, q, q->target_mode)) Grant(q);
  }
  // Pass 2: FIFO grants; the first ungrantable waiter is a barrier.
  for (LockRequest* q = head->first; q != nullptr; q = q->next) {
    if (!q->Waiting()) continue;
    if (!CompatibleWithOthers(head, q, q->target_mode)) break;
    Grant(q);
  }
}

std::vector<TxnId> LockManager::BlockersOf(LockHead* head,
                                           const LockRequest* self) {
  std::vector<TxnId> out;
  for (LockRequest* q = head->first; q != nullptr; q = q->next) {
    if (q == self) continue;
    const bool holds_incompatible =
        q->granted_mode != LockMode::kNL &&
        !Compatible(self->target_mode, q->granted_mode);
    // Waiters queued ahead of us will be granted first; if their target
    // conflicts with ours they also block us.
    bool waits_ahead_incompatible = false;
    if (q->Waiting() && !Compatible(self->target_mode, q->target_mode)) {
      for (LockRequest* p = head->first; p != self && p != nullptr;
           p = p->next) {
        if (p == q) {
          waits_ahead_incompatible = true;
          break;
        }
      }
    }
    if (holds_incompatible || waits_ahead_incompatible) {
      out.push_back(q->txn->id());
    }
  }
  return out;
}

Status LockManager::WaitForGrant(Transaction* txn, LockRequest* req) {
  ScopedTimeClass timer(TimeClass::kLockWait);
  const bool detect = options_.deadlock_detection;
  // Block-time check: the waits-for edges are already published, so of
  // two transactions closing a cycle the second to publish sees it.
  if (detect && detector_.WouldDeadlock(txn->id())) {
    return Status::Deadlock("waits-for cycle detected");
  }
  const uint64_t start = detail::SteadyMicros();
  const uint64_t deadline = start + options_.wait_timeout_us;
  uint64_t next_detect = start + options_.detect_interval_us;
  for (;;) {
    uint32_t word = req->grant.load(std::memory_order_acquire);
    if (word == LockRequest::kGranted) return Status::OK();
    const uint64_t now = detail::SteadyMicros();
    if (now >= deadline) return Status::Timeout("lock wait timeout");
    if (detect && now >= next_detect) {
      if (detector_.WouldDeadlock(txn->id())) {
        return Status::Deadlock("waits-for cycle detected");
      }
      next_detect = now + options_.detect_interval_us;
    }
    if (word == LockRequest::kPending &&
        !req->grant.compare_exchange_strong(word, LockRequest::kParked,
                                            std::memory_order_acquire)) {
      continue;  // granted meanwhile
    }
    // Sleep until the granter wakes us, the next detector pass, the
    // timeout, or kMaxParkUs, whichever comes first.
    uint64_t until = std::min(deadline, now + kMaxParkUs);
    if (detect) until = std::min(until, next_detect);
    detail::FutexWait(&req->grant, LockRequest::kParked,
                      static_cast<int64_t>(until - now));
  }
}

Status LockManager::Lock(Transaction* txn, const LockId& id, LockMode mode) {
  ScopedTimeClass timer(TimeClass::kLockAcquire);
  LockRequest* existing = txn->FindHeld(id);
  if (existing != nullptr && Covers(existing->granted_mode, mode)) {
    return Status::OK();
  }
  const LockMode target =
      existing != nullptr ? Supremum(existing->granted_mode, mode) : mode;

  McsLock::QNode qn;
  LockHead* head = LatchHead(id, &qn, TimeClass::kLockAcquireContention);
  acquires_.fetch_add(1, std::memory_order_relaxed);

  LockRequest* req;
  bool immediate = false;
  if (existing != nullptr) {
    req = existing;
    req->target_mode = target;
    if (CompatibleWithOthers(head, req, target)) {
      req->granted_mode = target;
      req->grant.store(LockRequest::kGranted, std::memory_order_relaxed);
      immediate = true;
    } else {
      req->grant.store(LockRequest::kPending, std::memory_order_relaxed);
    }
  } else {
    req = txn->NewRequest();
    req->txn = txn;
    req->head = head;
    req->lock_id = id;
    req->granted_mode = LockMode::kNL;
    req->target_mode = target;
    req->grant.store(LockRequest::kPending, std::memory_order_relaxed);
    req->prev = head->last;
    req->next = nullptr;
    if (head->last != nullptr) {
      head->last->next = req;
    } else {
      head->first = req;
    }
    head->last = req;
    if (!AnyWaitersBefore(head, req) &&
        CompatibleWithOthers(head, req, target)) {
      req->granted_mode = target;
      req->grant.store(LockRequest::kGranted, std::memory_order_relaxed);
      immediate = true;
    }
  }

  std::vector<TxnId> blockers;
  if (!immediate) blockers = BlockersOf(head, req);
  head->latch.Unlock(&qn);

  if (immediate) {
    if (existing == nullptr) txn->PushHeld(req);
    return Status::OK();
  }

  waits_.fetch_add(1, std::memory_order_relaxed);
  txn->SetWaitsFor(std::move(blockers));
  const Status ws = WaitForGrant(txn, req);
  txn->ClearWaitsFor();
  if (ws.ok()) {
    if (existing == nullptr) txn->PushHeld(req);
    return Status::OK();
  }

  // Give up: unlink (or abandon the upgrade) under the head latch.
  McsLock::QNode qn2;
  head->latch.Lock(&qn2, TimeClass::kLockAcquireContention);
  if (req->grant.load(std::memory_order_acquire) == LockRequest::kGranted) {
    // Granted in the race window before we re-latched; accept it.
    head->latch.Unlock(&qn2);
    if (existing == nullptr) txn->PushHeld(req);
    return Status::OK();
  }
  if (req->granted_mode == LockMode::kNL) {
    Unlink(head, req);
  } else {
    req->target_mode = req->granted_mode;  // keep the weaker held mode
  }
  GrantWaiters(head);  // our departure may unblock the queue
  head->latch.Unlock(&qn2);
  if (ws.IsDeadlock()) {
    deadlocks_.fetch_add(1, std::memory_order_relaxed);
  } else {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
  return ws;
}

Status LockManager::LockTable(Transaction* txn, TableId table,
                              LockMode mode) {
  const LockId id = LockId::Table(table);
  LockRequest* existing = txn->FindHeld(id);
  if (existing != nullptr && Covers(existing->granted_mode, mode)) {
    return Status::OK();  // covered by the transaction's lock cache
  }
  DORADB_RETURN_NOT_OK(Lock(txn, id, mode));
  ThreadStats::Local().CountLock(LockCounter::kHigherLevel);
  return Status::OK();
}

Status LockManager::LockRow(Transaction* txn, TableId table, const Rid& rid,
                            LockMode mode) {
  DORADB_RETURN_NOT_OK(LockTable(txn, table, IntentionFor(mode)));
  const LockId id = LockId::Row(table, rid);
  LockRequest* existing = txn->FindHeld(id);
  if (existing != nullptr && Covers(existing->granted_mode, mode)) {
    return Status::OK();
  }
  DORADB_RETURN_NOT_OK(Lock(txn, id, mode));
  ThreadStats::Local().CountLock(LockCounter::kRowLevel);
  return Status::OK();
}

void LockManager::ReleaseAll(Transaction* txn) {
  ScopedTimeClass timer(TimeClass::kLockRelease);
  const auto held = txn->TakeHeldLocks();
  // Youngest-first release order, as in Shore-MT (§3).
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    LockRequest* req = *it;
    LockHead* head = req->head;
    McsLock::QNode qn;
    head->latch.Lock(&qn, TimeClass::kLockReleaseContention);
    Unlink(head, req);
    GrantWaiters(head);
    const bool empty = head->first == nullptr;
    head->latch.Unlock(&qn);
    if (empty) MaybeReapHead(req->lock_id);
  }
}

void LockManager::MaybeReapHead(const LockId& id) {
  Bucket& bucket = BucketFor(id);
  TatasGuard g(bucket.latch, TimeClass::kLockReleaseContention);
  LockHead* prev = nullptr;
  LockHead* head = bucket.heads;
  while (head != nullptr && !(head->id == id)) {
    prev = head;
    head = head->bucket_next;
  }
  if (head == nullptr) return;
  McsLock::QNode qn;
  head->latch.Lock(&qn, TimeClass::kLockReleaseContention);
  if (head->first == nullptr && !head->dead) {
    head->dead = true;
    if (prev != nullptr) {
      prev->bucket_next = head->bucket_next;
    } else {
      bucket.heads = head->bucket_next;
    }
    head->bucket_next = bucket.free_list;
    bucket.free_list = head;
  }
  head->latch.Unlock(&qn);
}

LockMode LockManager::GroupModeOf(const LockId& id) {
  Bucket& bucket = BucketFor(id);
  TatasGuard g(bucket.latch, TimeClass::kLockOther);
  for (LockHead* h = bucket.heads; h != nullptr; h = h->bucket_next) {
    if (!(h->id == id)) continue;
    McsLock::QNode qn;
    h->latch.Lock(&qn, TimeClass::kLockOther);
    LockMode mode = LockMode::kNL;
    for (LockRequest* q = h->first; q != nullptr; q = q->next) {
      mode = Supremum(mode, q->granted_mode);
    }
    h->latch.Unlock(&qn);
    return mode;
  }
  return LockMode::kNL;
}

}  // namespace doradb
