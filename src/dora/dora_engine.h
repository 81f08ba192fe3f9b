// DoraEngine: the data-oriented transaction execution engine (paper §4).
//
// Couples worker threads (executors) to disjoint datasets via per-table
// routing rules, decomposes transactions into flow graphs of actions, and
// executes them with thread-local locking. Built as a layer over the
// conventional storage manager (engine::Database), exactly as the paper's
// prototype is layered over Shore-MT (§4.3).
//
// Messaging fabric: each executor owns a lock-free MPSC inbox
// (util/mpsc_queue.h) carrying actions and completion messages alike; the
// §4.2.3 atomic multi-queue enqueue is preserved by global dispatch
// tickets (dora/ticket.h) instead of ordered queue latches. Transaction
// contexts are pooled in per-executor arenas (dora/arena.h). A one-phase
// single-executor transaction whose executor is idle runs on the client's
// own thread as a guest (Executor::RunAsGuest), with no handoff at all.
//
// Commit is pipelined with early lock release (Aether, §5.4): the thread
// that zeroes the terminal RVP appends the commit record and releases the
// local locks; the client then waits for durability on its own thread, so
// no executor blocks in WaitFlushed. Safe because acks gate on the global
// flush horizon: a dependent writer's commit carries a larger GSN, and a
// dependent reader waits for the early-release horizon, so neither is
// acknowledged before the transaction it read from.
//
// Usage:
//   DoraEngine engine(&db, options);
//   engine.RegisterTable(warehouse_tid, /*key_space=*/W, /*executors=*/2);
//   ...
//   engine.Start();
//   auto dtxn = engine.BeginTxn();
//   dtxn->AddPhase().AddAction(warehouse_tid, w_id, LocalMode::kX, body);
//   ...more actions and phases...
//   Status s = engine.Run(dtxn);   // blocks (closed loop)

#ifndef DORADB_DORA_DORA_ENGINE_H_
#define DORADB_DORA_DORA_ENGINE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dora/action.h"
#include "dora/arena.h"
#include "dora/executor.h"
#include "dora/routing.h"
#include "dora/ticket.h"
#include "obs/metrics.h"

namespace doradb {
namespace dora {

class DoraEngine {
 public:
  struct Options {
    // Pin each executor to the core matching its global index (which is
    // also its log-partition binding) — the first step of the NUMA
    // placement roadmap item: one partition's locks, WAL, and working set
    // stay on one context. Leave off on hosts with fewer cores than
    // executors + clients.
    bool pin_threads = false;
    bool hold_table_locks = true;  // inert: nothing reads it; perfbench sets it
    // Parked actions older than this are expired and their transactions
    // aborted with kDeadlock — the local-lock deadlock resolution the
    // paper requires the storage manager to support (§4.2.3). Local locks
    // are held only until commit, normally sub-millisecond; the margin
    // absorbs scheduling hiccups on oversubscribed hosts.
    uint64_t local_wait_timeout_us = 150000;
    bool pipelined_commit = true;  // inert: nothing reads it; perfbench sets it
    uint32_t epoch_batch_min = 0;  // inert: nothing reads it; perfbench sets it
  };

  // Inbox / arena / ticket counters, aggregated over all executors.
  struct InboxStats {
    uint64_t batches = 0;        // non-empty drains
    uint64_t items = 0;          // messages those drains carried
    uint64_t wakeups = 0;        // producer-side futex wakes
    uint64_t actions = 0;        // actions executed
    uint64_t tickets = 0;        // multi-queue dispatches issued
    uint64_t arena_allocs = 0;   // DoraTxn contexts ever constructed
    uint64_t arena_recycles = 0; // contexts returned for reuse

    InboxStats operator-(const InboxStats& rhs) const {
      InboxStats d;
      d.batches = batches - rhs.batches;
      d.items = items - rhs.items;
      d.wakeups = wakeups - rhs.wakeups;
      d.actions = actions - rhs.actions;
      d.tickets = tickets - rhs.tickets;
      d.arena_allocs = arena_allocs - rhs.arena_allocs;
      d.arena_recycles = arena_recycles - rhs.arena_recycles;
      return d;
    }
    double actions_per_drain() const {
      return batches == 0 ? 0.0 : static_cast<double>(items) / batches;
    }
    double wakeups_per_action() const {
      return actions == 0 ? 0.0 : static_cast<double>(wakeups) / actions;
    }
  };

  DoraEngine(Database* db, Options options);
  DoraEngine(Database* db) : DoraEngine(db, Options()) {}
  ~DoraEngine();
  DoraEngine(const DoraEngine&) = delete;
  DoraEngine& operator=(const DoraEngine&) = delete;

  // Declare a table and its executor group. Must precede Start().
  // `key_space` is the routing-field domain size (used for the initial
  // uniform partitioning). The configuration is recorded in the catalog
  // (durable mode: written through to catalog.db), so a later lifetime
  // can rebuild the same wiring with RegisterFromCatalog.
  void RegisterTable(TableId table, uint64_t key_space, uint32_t executors);

  // Self-contained reopen: register every catalog table that carries a
  // persisted DORA configuration, in creation (id) order — reproducing
  // each table's executor group and routing rule without workload code.
  // Executor global indexes (and with them log-partition/core bindings)
  // follow creation order, which matches the prior lifetime only if the
  // workload also registered in creation order; any assignment is
  // functionally equivalent — routing is per table. Returns the number of
  // tables registered. Must precede Start().
  uint32_t RegisterFromCatalog();

  void Start();
  void Stop();

  Database* db() { return db_; }

  // --- transaction execution (dispatcher side) ---

  DoraTxnRef BeginTxn();

  // Run the flow graph built in `dtxn`: set its RVP counts, then run it
  // inline as a guest of its executor (one phase, one executor, executor
  // idle) or dispatch phase 0 (ticket-ordered enqueue); wait for the
  // terminal RVP, then for the commit's durability (Database::AwaitCommit),
  // on this thread either way. Returns the transaction's final status.
  Status Run(const DoraTxnRef& dtxn);

  // --- routing ---

  uint32_t RouteIndex(TableId table, uint64_t routing_value) const;
  Executor* RouteToExecutor(TableId table, uint64_t routing_value) const;
  Executor* ExecutorAt(TableId table, uint32_t index) const;
  uint32_t executors_of(TableId table) const;
  const RoutingTable* routing_of(TableId table) const;
  uint64_t key_space_of(TableId table) const;
  // Registered table ids in registration order (stable decision order for
  // the rebalance controller).
  std::vector<TableId> RegisteredTables() const;

  // Ticket-fenced live migration of a table's routing rule (§A.2.1 made
  // online). The fence is a system transaction whose first phase takes a
  // whole-dataset X lock on every executor whose ownership differs between
  // the current rule and `rule` — a multi-executor phase, so DispatchPhase
  // stamps it with a dispatch ticket. Every action ticketed before the
  // fence is admitted ahead of it (FIFO inboxes + ticket order) and
  // executes under the old rule; the X grant doubles as the drain barrier
  // (commit-held local locks). Phase 2 publishes the rule while the
  // affected executors are still locked out; anything admitted afterwards
  // re-checks routing at admission and bounces to its new owner — there is
  // no window in which two executors accept the same range, and §4.2.3
  // deadlock freedom is untouched because the fence is ordered by the same
  // ticket discipline as any other multi-queue enqueue.
  //
  // `rule->version` must exceed the current version; a concurrent migration
  // that wins the fence first fails this one with kBusy (the check runs
  // under the X locks). After publication the assignment is
  // written through the durable catalog (SetDoraRouting) so the split
  // survives restart; a persist failure is returned (the rule stays live
  // in memory — routing is a dispatch concern, recovery does not depend on
  // it). Emits dora.rebalance.{splits,moved_ranges,fence_wait_ns};
  // `fence_wait_ns` (optional) receives the fence's wall-clock cost.
  Status MigrateRoutingRule(TableId table,
                            std::shared_ptr<const RoutingRule> rule,
                            uint64_t* fence_wait_ns = nullptr);

  const Options& options() const { return options_; }
  TicketLine& tickets() { return tickets_; }

  // First error parked by RegisterTable's catalog write-through (OK when
  // every registration persisted). Run() refuses with it, so a durable
  // database can never execute on routing wiring a reopened lifetime
  // would not see.
  const Status& registration_status() const { return registration_status_; }

  // --- internal (executor callbacks) ---

  // Enqueue all actions of `phase`. Phases targeting more than one
  // executor are stamped with a global ticket and published afterwards
  // (§4.2.3 ordering without queue latches).
  void DispatchPhase(DoraTxn* dtxn, size_t phase);

  // Re-route a stale-routed action to its current owner (after a routing
  // rule change).
  void Redispatch(Action* a);

  // Commit append (Database::CommitAppend, early-release horizon) or abort,
  // then completion fan-out; runs on the thread that zeroed the terminal
  // (or aborting) RVP. The client finishes the commit (Run). `local` is the
  // executor whose baton a guest holds: its locks are released directly
  // instead of by message.
  void FinishTxn(DoraTxn* dtxn, Executor* local = nullptr);

  // --- stats ---
  uint64_t txns_committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t txns_aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }
  // Writer commits (all released their locks before durability). Read-only
  // commits count only in txns_committed (and "txn.read_only_commits").
  uint64_t txns_pipelined() const {
    return pipelined_.load(std::memory_order_relaxed);
  }
  // Writer commits whose GSN the flush horizon already covered when
  // FinishTxn ran, so the client's durable wait returned at once.
  uint64_t txns_acked_inline() const {
    return acked_inline_.load(std::memory_order_relaxed);
  }
  // Commits run entirely on the client's thread as a guest
  // (dora.txns.inline).
  uint64_t txns_inline() const {
    return inline_.load(std::memory_order_relaxed);
  }
  InboxStats CollectInboxStats() const;
  std::vector<Executor*> AllExecutors() const;

 private:
  // The executor `dtxn` may run on as a guest: its graph has one phase
  // whose actions all route to that executor, none whole-dataset, and the
  // engine is not degraded. Null otherwise.
  Executor* GuestHost(DoraTxn* dtxn) const;
  // Completion fan-out (§A.1 steps 10-12): hand the txn back to every
  // executor that ran one of its actions so they release local locks.
  // Each message carries one reference on the context. `local`'s locks
  // (a guest's executor) are released directly, after the messages go.
  void FanOutCompletions(DoraTxn* dtxn, Executor* local);

  struct TableGroup {
    TableId table;
    uint64_t key_space;
    RoutingTable routing;
    std::vector<std::unique_ptr<Executor>> executors;
  };

  Database* const db_;
  const Options options_;
  bool started_ = false;
  Status registration_status_;

  std::unordered_map<TableId, std::unique_ptr<TableGroup>> tables_;
  uint32_t next_global_index_ = 0;

  // Long-lived system transaction through which executors hold table IX
  // locks across client transactions (§4.1.3: "Each executor implicitly
  // holds an intent exclusive (IX) lock for the whole table").
  std::unique_ptr<Transaction> system_txn_;

  TicketLine tickets_;

  // Per-executor transaction-context arenas; clients pick one with a
  // sticky thread-local slot.
  std::vector<std::unique_ptr<TxnArena>> arenas_;
  std::atomic<uint64_t> next_client_slot_{0};

  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> pipelined_{0};
  std::atomic<uint64_t> acked_inline_{0};
  std::atomic<uint64_t> inline_{0};

  // dora.aborts.<code>, each looked up in the registry at the first abort
  // with that code (FinishTxn).
  static constexpr size_t kNumCodes =
      static_cast<size_t>(Status::Code::kUnavailable) + 1;
  std::array<std::once_flag, kNumCodes> abort_counter_once_;
  std::array<obs::Counter*, kNumCodes> abort_counters_{};

  // Metrics-registry callback tokens (registered by Start, released by
  // Stop — the callbacks read this engine's executors, so they must not
  // outlive it in the process-wide registry).
  std::vector<uint64_t> obs_tokens_;

  // Load-heatmap source token (obs/heatmap.h): Start registers a source
  // that snapshots every executor's raw load counters; Stop unregisters it
  // before stopping executors, for the same lifetime reason as above.
  uint64_t heatmap_token_ = 0;
};

}  // namespace dora
}  // namespace doradb

#endif  // DORADB_DORA_DORA_ENGINE_H_
