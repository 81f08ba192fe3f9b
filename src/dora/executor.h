// Executor: the worker thread bound to one or more datasets of a table
// (paper §4.1.3). It owns one lock-free MPSC inbox carrying both incoming
// actions and completion messages, and a thread-local lock table. Actions
// are served FIFO; conflicting actions park in the local lock table and
// resume when the blocking transaction's completion message releases its
// locks. A granted action runs at once, one at a time (§4.1-4.2); the
// executor that zeroes a transaction's terminal RVP commits it through the
// per-transaction path (DoraEngine::FinishTxn).
//
// Inbox protocol: producers (dispatchers and other executors) push with
// one CAS; this thread drains the whole list per iteration and parks on a
// futex only when a drain comes up empty — so an executor wakes at most
// once per batch and a push onto a busy executor costs no syscall.
// Multi-queue dispatches carry a global ticket (dora/ticket.h); drained
// ticketed actions are deferred until the published horizon covers them
// and then admitted in ticket order, preserving the §4.2.3 atomic-enqueue
// guarantee without latching any queue.
//
// Baton: DORA needs one thread at a time per dataset (§4.1), not always
// the same thread. An atomic ownership word says who may touch this
// executor's state (lock table, runnable list): the executor thread, or a
// guest — a client running its single-executor transaction inline while
// the executor sleeps (RunAsGuest, src/dora/README.md "Guest execution").

#ifndef DORADB_DORA_EXECUTOR_H_
#define DORADB_DORA_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "dora/action.h"
#include "dora/local_lock_table.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "util/mpsc_queue.h"

namespace doradb {
namespace dora {

class DoraEngine;

class Executor {
 public:
  // `global_index` defines the executor's position in the engine-wide
  // order: its log-partition binding, its pinned core (Options::
  // pin_threads), and its arena all key off it.
  Executor(DoraEngine* engine, Database* db, TableId table,
           uint32_t index_in_table, uint32_t global_index);

  void Start();
  void Stop();

  TableId table() const { return table_; }
  uint32_t index_in_table() const { return index_in_table_; }
  uint32_t global_index() const { return global_index_; }

  // The only producer path into the lock-free inbox (Action /
  // CompletionMsg / StopMsg / WakeMsg nodes): stamps the entry's enqueue
  // timestamp and the depth accounting (metrics on), then pushes.
  void PushToInbox(InboxEntry* entry);

  // Client side of guest execution: if the inbox is idle and the baton is
  // free, take it and run `t`'s only phase on the calling thread — the
  // admission checks, the bodies, and (when every action ran) the commit
  // through DoraEngine::FinishTxn with a local lock release. Returns false,
  // having touched nothing, when a message is queued, the executor holds
  // the baton, or another guest still holds it after a short wait; the
  // caller then dispatches as usual. An action that parks stays in the
  // lock table, and the transaction finishes on the executor like a
  // dispatched one.
  bool RunAsGuest(DoraTxn* t);

  // Baton holder only (a completion message, or FinishTxn on a guest):
  // release `t`'s local locks here and run the actions that become
  // runnable.
  void ReleaseLocks(DoraTxn* t);

  // --- stats ---
  // Actions run here, bodies skipped on abort included
  // (dora.exec.<g>.load).
  uint64_t actions_executed() const {
    return actions_executed_.load(std::memory_order_relaxed);
  }
  uint64_t local_lock_conflicts() const { return locks_.conflicts(); }
  // Non-empty inbox drains and the messages they carried.
  uint64_t inbox_batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  uint64_t inbox_items() const {
    return items_.load(std::memory_order_relaxed);
  }
  // Producer-side futex wakes (pushes that found this executor parked).
  uint64_t inbox_wakeups() const { return inbox_.wakeups(); }
  // Messages ever pushed via PushToInbox. pushed - items approximates the
  // live inbox depth (the per-executor load gauge the repartitioning
  // roadmap item consumes); it undercounts by pushes made while metrics
  // were off and by the drained-but-unprocessed window, never below zero
  // after clamping.
  uint64_t inbox_pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  int64_t inbox_depth() const {
    const int64_t d = static_cast<int64_t>(inbox_pushed()) -
                      static_cast<int64_t>(inbox_items());
    return d > 0 ? d : 0;
  }
  // Cycles spent inside ProcessInbox batches that did work, plus guest
  // sessions (metrics on). busy_cycles delta / wall cycles delta = the
  // executor's busy fraction over a window; the load heatmap sweeps this.
  uint64_t busy_cycles() const {
    return busy_cycles_.load(std::memory_order_relaxed);
  }
  // Per-executor queue-wait histogram (dora.exec.<g>.queue_wait_ns);
  // the heatmap computes windowed p99 from its bucket deltas.
  const Histogram* queue_wait_hist() const { return queue_wait_hist_; }

 private:
  // Baton states. The executor holds it whenever it processes anything and
  // frees it only to sleep on an empty inbox.
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kExecutor = 1;
  static constexpr uint32_t kGuest = 2;
  // A guest holds it and the executor sleeps on the word: the guest's
  // release hands the baton straight to the executor and wakes it.
  static constexpr uint32_t kGuestExecWaiting = 3;

  void Loop();
  // Executor side: take the baton back after the inbox wait, waiting out a
  // guest's session.
  void TakeBaton();
  // Guest side: give the baton back (to the executor if it is waiting).
  void ReleaseGuestBaton();
  // Split a drained chain into completions / ready / deferred.
  void Classify(MpscNode* chain);
  // Completions first (paper steps 11-12), then unticketed actions FIFO,
  // then the ticket-ordered admission loop. Returns true if any work ran.
  bool ProcessInbox(MpscNode* chain);
  // Admit one action: bounce if stale-routed, else local-lock + run.
  void AdmitAction(Action* a);
  // Local-lock deadlock resolution (§4.2.3): abort over-age parked waits.
  void ExpireStaleParked(uint64_t timeout_cycles);
  // Execute the woken actions in runnable_, re-checking routing first: an
  // action parked before a migration published may wake on an executor
  // that no longer owns its key — it gives the grant back and redispatches
  // instead of executing here. Index loop: ReleaseGrant can append.
  void RunRunnable();
  // Run the body (unless the txn already aborted) and report to the RVP.
  void ExecuteGranted(Action* a);
  void ReportToRvp(Action* a);

  DoraEngine* const engine_;
  Database* const db_;
  const TableId table_;
  const uint32_t index_in_table_;
  const uint32_t global_index_;

  MpscQueue inbox_;
  StopMsg stop_msg_;
  // A guest that parked an action pushes wake_msg_ so the executor
  // re-parks with the expiry timeout; wake_pending_ keeps the node from
  // being queued twice (cleared when the executor drains it).
  WakeMsg wake_msg_;
  std::atomic<bool> wake_pending_{false};

  // Held by the executor until its thread first sleeps (so no guest runs
  // before Start, or after the executor exits on stop).
  std::atomic<uint32_t> baton_{kExecutor};

  // Consumer-thread state (touched only by Loop()).
  bool stop_seen_ = false;
  std::vector<DoraTxn*> comps_;
  std::vector<Action*> ready_;
  std::vector<Action*> deferred_;  // ticketed, sorted by ticket (stable)
  std::vector<Action*> runnable_;

  // Baton-holder state: the executor thread, or a guest in its session.
  LocalLockTable locks_;  // no latching: the baton serializes access
  DoraTxn* guest_txn_ = nullptr;  // the guest's own txn; null = no guest
  bool guest_finish_ = false;     // its terminal RVP reached zero
  bool guest_parked_ = false;     // an action it admitted parked here

  std::thread thread_;
  std::atomic<uint64_t> actions_executed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> items_{0};
  std::atomic<uint64_t> pushed_{0};
  std::atomic<uint64_t> busy_cycles_{0};

  // Watchdog heartbeat, registered for the lifetime of Loop(). The baton
  // holder writes through it: this thread, or a guest for its session
  // (the handle's fields are atomics; the baton orders the writers). The
  // watchdog reads via table snapshots.
  obs::Heartbeats::Handle* hb_ = nullptr;

  // Registry-owned instrumentation (resolved once at construction; hot
  // paths record through the cached pointers gated on
  // obs::MetricsEnabled()). The queue-wait histogram is this executor's
  // own; the others are shared across executors.
  Histogram* batch_size_hist_;      // dora.inbox.batch_size
  Histogram* queue_wait_hist_;      // dora.exec.<g>.queue_wait_ns
  obs::Counter* ticket_deferred_;   // dora.tickets.deferred
};

}  // namespace dora
}  // namespace doradb

#endif  // DORADB_DORA_EXECUTOR_H_
