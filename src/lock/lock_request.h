// Lock request node, owned by its transaction, linked into a LockHead's
// request list (the structure whose traversal cost the paper identifies as
// growing with the number of active transactions, §3).

#ifndef DORADB_LOCK_LOCK_REQUEST_H_
#define DORADB_LOCK_LOCK_REQUEST_H_

#include <atomic>
#include <cstdint>

#include "lock/lock_id.h"
#include "lock/lock_mode.h"

namespace doradb {

class Transaction;
struct LockHead;

struct LockRequest {
  Transaction* txn = nullptr;
  LockHead* head = nullptr;
  LockId lock_id{};
  // Mode currently granted to this request (kNL while purely waiting).
  LockMode granted_mode = LockMode::kNL;
  // Mode the request wants; > granted_mode while an upgrade is pending.
  LockMode target_mode = LockMode::kNL;
  // Wait protocol (a futex word): a blocked requester moves kPending to
  // kParked and sleeps on the word; the granting thread stores kGranted
  // under the head latch and wakes the sleeper only if it saw kParked.
  static constexpr uint32_t kPending = 0;
  static constexpr uint32_t kParked = 1;
  static constexpr uint32_t kGranted = 2;
  std::atomic<uint32_t> grant{kPending};

  LockRequest* next = nullptr;
  LockRequest* prev = nullptr;

  bool Waiting() const { return target_mode != granted_mode; }
};

}  // namespace doradb

#endif  // DORADB_LOCK_LOCK_REQUEST_H_
