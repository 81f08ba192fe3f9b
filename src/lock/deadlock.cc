#include "lock/deadlock.h"

#include "txn/transaction.h"

namespace doradb {

void ActiveTxnTable::Register(Transaction* txn) {
  Shard& s = ShardFor(txn->id());
  TatasGuard g(s.lock, TimeClass::kLockOther);
  s.map[txn->id()] = txn;
}

void ActiveTxnTable::Unregister(TxnId id) {
  Shard& s = ShardFor(id);
  TatasGuard g(s.lock, TimeClass::kLockOther);
  s.map.erase(id);
}

bool ActiveTxnTable::AppendWaitsFor(TxnId id, std::vector<TxnId>* out) const {
  const Shard& s = ShardFor(id);
  TatasGuard g(s.lock, TimeClass::kLockOther);
  auto it = s.map.find(id);
  if (it == s.map.end()) return false;
  for (TxnId h : it->second->WaitsForSnapshot()) out->push_back(h);
  return true;
}

size_t ActiveTxnTable::Size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    TatasGuard g(s.lock, TimeClass::kLockOther);
    n += s.map.size();
  }
  return n;
}

std::vector<TxnId> ActiveTxnTable::Snapshot(Lsn* min_undo_low) const {
  std::vector<TxnId> out;
  Lsn min_pin = ~Lsn{0};
  for (const auto& s : shards_) {
    TatasGuard g(s.lock, TimeClass::kLockOther);
    for (const auto& [id, txn] : s.map) {
      out.push_back(id);
      const Lsn pin = txn->undo_low();
      if (pin != kInvalidLsn && pin < min_pin) min_pin = pin;
    }
  }
  *min_undo_low = min_pin;
  return out;
}

bool DeadlockDetector::WouldDeadlock(TxnId self) const {
  ScopedTimeClass timer(TimeClass::kLockOther);
  // Iterative DFS; the graph is tiny (bounded by blocked transactions).
  std::vector<TxnId> stack;
  std::vector<TxnId> visited;
  if (!txns_->AppendWaitsFor(self, &stack)) return false;
  while (!stack.empty()) {
    const TxnId cur = stack.back();
    stack.pop_back();
    if (cur == self) {
      cycles_found_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    bool seen = false;
    for (TxnId v : visited) {
      if (v == cur) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    visited.push_back(cur);
    // A finished transaction appends nothing: its edge is stale.
    txns_->AppendWaitsFor(cur, &stack);
  }
  return false;
}

}  // namespace doradb
