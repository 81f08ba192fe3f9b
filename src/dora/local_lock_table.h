// Thread-local lock table (paper §4.1.3): each executor serializes
// conflicting actions on its datasets with this structure instead of the
// centralized lock manager. It is touched ONLY by its owning executor
// thread, so it needs no latching at all — this is the mechanism that
// replaces the latched, shared lock heads whose contention the paper
// measures.
//
// Conflict resolution happens at the action-identifier level with two-mode
// (S/X) key-prefix-style locks: an exact identifier locks one routing-field
// value; an empty identifier ("whole dataset") conflicts with everything.
// Local locks are held until the owning transaction commits or aborts
// (strictness), released by the completion message of §4.1.3 steps 10-12.

#ifndef DORADB_DORA_LOCAL_LOCK_TABLE_H_
#define DORADB_DORA_LOCAL_LOCK_TABLE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "dora/action.h"

namespace doradb {
namespace dora {

class LocalLockTable {
 public:
  // Try to grant `a` its local lock. Returns true if granted (the executor
  // runs the action now); false if the action was parked on a wait queue —
  // it will be returned by a later Release call.
  bool TryAcquire(Action* a);

  // Release every lock `dtxn` holds here (commit/abort completion).
  // Appends actions that became runnable, in grant order, to `runnable`.
  void ReleaseAll(DoraTxn* dtxn, std::vector<Action*>* runnable);

  // Undo exactly one grant previously made to `a` (the wake path's
  // stale-route bounce: a parked action granted after a routing migration
  // published must give its lock back and redispatch instead of executing
  // here). Appends any waiters the release unblocks to `runnable`.
  void ReleaseGrant(Action* a, std::vector<Action*>* runnable);

  // Local deadlock resolution (the paper notes DORA must surface local-
  // lock waits to a deadlock detector, §4.2.3): remove parked actions
  // older than `deadline_cycles` into `expired` (the executor aborts their
  // transactions); waiters unblocked by the removals are granted and
  // appended to `runnable`.
  void CollectExpired(uint64_t deadline_cycles, std::vector<Action*>* expired,
                      std::vector<Action*>* runnable);

  bool Empty() const { return holdings_.empty() && whole_.Free(); }
  size_t num_parked() const { return parked_; }

  uint64_t acquires() const { return acquires_; }
  uint64_t conflicts() const { return conflicts_; }

 private:
  struct Entry {
    DoraTxn* x_owner = nullptr;
    uint32_t x_count = 0;  // re-entrant X grants by x_owner
    std::vector<DoraTxn*> s_owners;
    std::deque<Action*> waiters;

    bool Free() const {
      return x_owner == nullptr && s_owners.empty() && waiters.empty();
    }
  };

  // Can `a` be granted right now (ignoring queue fairness)?
  bool Grantable(const Action* a) const;
  static bool EntryGrantable(const Entry& e, const Action* a);
  void Grant(Action* a);
  // Re-check an entry's waiters after a release; grants FIFO until blocked.
  void WakeEntry(Entry& e, std::vector<Action*>* runnable);

  std::unordered_map<uint64_t, Entry> exact_;
  Entry whole_;
  uint32_t exact_granted_ = 0;  // granted exact locks (blocks whole grants)

  struct Holding {
    uint64_t key;
    bool whole;
  };
  std::unordered_map<DoraTxn*, std::vector<Holding>> holdings_;

  size_t parked_ = 0;
  uint64_t acquires_ = 0;
  uint64_t conflicts_ = 0;
};

}  // namespace dora
}  // namespace doradb

#endif  // DORADB_DORA_LOCAL_LOCK_TABLE_H_
