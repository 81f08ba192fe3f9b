#include "txn/txn_manager.h"

#include "util/clock.h"

namespace doradb {

std::unique_ptr<Transaction> TxnManager::Begin() {
  const TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id);
  txn->set_start_tsc(Cycles::Now());
  // No kBegin record: a transaction enters the log with its first real
  // record, whose prev_lsn is kInvalidLsn — the end of the undo chain
  // recovery walks. Checkpoints need no begin LSN either: truncation is
  // bounded by the undo-low pin set before the first heap-op append.
  // So a transaction that never logs work leaves nothing in the log.
  // Pointers in the table stay valid: every path that ends a transaction
  // calls Finish before the object can be destroyed.
  lm_->RegisterTxn(txn.get());
  started_.fetch_add(1, std::memory_order_relaxed);
  return txn;
}

}  // namespace doradb
