// Per-executor transaction-context arenas.
//
// The arena keeps a free list of fully-constructed DoraTxn contexts, each
// of which holds its transaction's flow graph. Recycling happens when the
// last reference (client handle or completion message) drops, i.e. as a
// consequence of FinishTxn's fan-out draining: the context's actions, and
// with them their captures, are destroyed, and every vector keeps its
// capacity, so a warmed-up engine builds and runs transactions with zero
// graph-state allocations.
//
// One arena per executor (clients pick one with a sticky thread-local
// index) keeps the free-list latch sharded the same way the inboxes are.

#ifndef DORADB_DORA_ARENA_H_
#define DORADB_DORA_ARENA_H_

#include <atomic>
#include <memory>
#include <vector>

#include "dora/action.h"
#include "util/spinlock.h"

namespace doradb {
namespace dora {

class TxnArena {
 public:
  TxnArena() = default;
  ~TxnArena() = default;
  TxnArena(const TxnArena&) = delete;
  TxnArena& operator=(const TxnArena&) = delete;

  // Pop a recycled context or construct a new one. The caller must Reset()
  // it before use; it carries one reference.
  DoraTxn* Acquire() {
    {
      TatasGuard g(mu_);
      if (!free_.empty()) {
        DoraTxn* t = free_.back();
        free_.pop_back();
        return t;
      }
    }
    allocs_.fetch_add(1, std::memory_order_relaxed);
    auto t = std::make_unique<DoraTxn>(this);
    DoraTxn* raw = t.get();
    TatasGuard g(mu_);
    owned_.push_back(std::move(t));
    return raw;
  }

  // Called by DoraTxn::Unref on the last release. Drops the storage-level
  // Transaction (its work finished at commit/abort) and the graph, but
  // keeps the vectors' capacity.
  void Recycle(DoraTxn* t) {
    t->txn_.reset();
    t->actions.clear();  // destroys the bodies and their captures
    t->phase_starts_.clear();
    recycles_.fetch_add(1, std::memory_order_relaxed);
    TatasGuard g(mu_);
    free_.push_back(t);
  }

  uint64_t allocs() const { return allocs_.load(std::memory_order_relaxed); }
  uint64_t recycles() const {
    return recycles_.load(std::memory_order_relaxed);
  }

 private:
  TatasLock mu_;
  std::vector<DoraTxn*> free_;
  std::vector<std::unique_ptr<DoraTxn>> owned_;  // everything ever created
  std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> recycles_{0};
};

}  // namespace dora
}  // namespace doradb

#endif  // DORADB_DORA_ARENA_H_
