#include "txn/txn_manager.h"

#include "util/clock.h"

namespace doradb {

std::unique_ptr<Transaction> TxnManager::Begin() {
  const TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id);
  txn->set_start_tsc(Cycles::Now());
  lm_->RegisterTxn(txn.get());
  // No kBegin record: a transaction enters the log with its first real
  // record, whose prev_lsn is kInvalidLsn — the end of the undo chain
  // recovery walks. Checkpoints need no begin LSN either: truncation is
  // bounded by the undo-low pin set before the first heap-op append.
  // So a transaction that never logs work leaves nothing in the log.
  {
    std::lock_guard<std::mutex> g(mu_);
    active_.emplace(id, txn.get());
  }
  started_.fetch_add(1, std::memory_order_relaxed);
  return txn;
}

void TxnManager::Finish(Transaction* txn) {
  lm_->UnregisterTxn(txn->id());
  std::lock_guard<std::mutex> g(mu_);
  active_.erase(txn->id());
}

std::vector<TxnId> TxnManager::ActiveTxns() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<TxnId> out;
  out.reserve(active_.size());
  for (const auto& [id, txn] : active_) out.push_back(id);
  return out;
}

std::vector<TxnId> TxnManager::ActiveTxnSnapshot(Lsn* min_undo_low) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<TxnId> out;
  out.reserve(active_.size());
  Lsn min_pin = ~Lsn{0};
  for (const auto& [id, txn] : active_) {
    out.push_back(id);
    const Lsn pin = txn->undo_low();
    if (pin != kInvalidLsn && pin < min_pin) min_pin = pin;
  }
  *min_undo_low = min_pin;
  return out;
}

size_t TxnManager::num_active() const {
  std::lock_guard<std::mutex> g(mu_);
  return active_.size();
}

}  // namespace doradb
