#include "dora/executor.h"

#include <sched.h>

#include "dora/dora_engine.h"
#include "dora/ticket.h"
#include "obs/trace.h"
#include "util/spinlock.h"
#include "util/thread_pool.h"

namespace doradb {
namespace dora {

namespace {

// How long an executor woken while a guest holds its baton yields before
// it sleeps on the baton word.
constexpr double kBatonSpinUs = 30.0;
// How long a would-be guest spins on a baton another guest holds before it
// dispatches instead.
constexpr double kGuestWaitUs = 10.0;

}  // namespace

Executor::Executor(DoraEngine* engine, Database* db, TableId table,
                   uint32_t index_in_table, uint32_t global_index)
    : engine_(engine),
      db_(db),
      table_(table),
      index_in_table_(index_in_table),
      global_index_(global_index),
      batch_size_hist_(obs::MetricsRegistry::Default().GetHistogram(
          "dora.inbox.batch_size", "msgs")),
      queue_wait_hist_(obs::MetricsRegistry::Default().GetHistogram(
          "dora.exec." + std::to_string(global_index) + ".queue_wait_ns",
          "ns")),
      ticket_deferred_(obs::MetricsRegistry::Default().GetCounter(
          "dora.tickets.deferred", "actions")) {}

void Executor::PushToInbox(InboxEntry* entry) {
  if (obs::MetricsEnabled()) {
    entry->enqueued_tsc = Cycles::Now();
    pushed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    entry->enqueued_tsc = 0;
  }
  inbox_.Push(entry);
}

void Executor::Start() {
  thread_ = std::thread([this] { Loop(); });
}

void Executor::Stop() {
  if (!thread_.joinable()) return;
  PushToInbox(&stop_msg_);
  thread_.join();
}

void Executor::Loop() {
  // Watchdog heartbeat: beaten once per batch, marked idle across the
  // park so an empty inbox never reads as a stall, but a body that never
  // returns does (stage stays "execute", beats stop).
  obs::ScopedHeartbeat hb("dora.exec." + std::to_string(global_index_));
  hb_ = hb.get();
  // First step of the NUMA roadmap item: partition-index affinity. The
  // executor, its log partition, and its core all share global_index_, so
  // an action's locks, WAL appends, and working set stay on one context.
  if (engine_->options().pin_threads) BindToCore(global_index_);
  // Partitioned WAL affinity: this executor's appends (and its
  // transactions' commit records) go to a private log partition.
  db_->log_manager()->BindThisThread(global_index_);
  const uint64_t timeout_cycles = static_cast<uint64_t>(
      engine_->options().local_wait_timeout_us * 1000.0 *
      Cycles::PerNanosecond());
  for (;;) {
    MpscNode* chain;
    {
      ScopedTimeClass timer(TimeClass::kDoraQueue);
      chain = inbox_.TryDrain();
    }
    if (locks_.num_parked() != 0) ExpireStaleParked(timeout_cycles);
    // Busy-fraction accounting for the load heatmap: cycles spent in
    // batches that did work, over the wall cycles of the window.
    const bool metrics = obs::MetricsEnabled();
    const uint64_t t0 = metrics ? Cycles::Now() : 0;
    const bool did = ProcessInbox(chain);
    if (metrics && did) {
      busy_cycles_.fetch_add(Cycles::Now() - t0, std::memory_order_relaxed);
    }
    if (did) continue;
    if (!deferred_.empty()) {
      // Waiting on the published-ticket horizon: the owning dispatcher is
      // mid-enqueue (a nanosecond-scale window). Yield so it can finish —
      // spinning here would starve it on saturated or single-core hosts.
      sched_yield();
      continue;
    }
    if (stop_seen_) {
      hb_ = nullptr;  // exits holding the baton: no guest after stop
      return;
    }
    // Nothing runnable anywhere: free the baton (guests may run meanwhile)
    // and sleep. With parked actions present, wake periodically to expire
    // stale waits (cross-graph local-lock deadlock resolution); otherwise
    // sleep until a producer pushes. The inbox is left undrained until the
    // baton is back, so a waiting message keeps new guests out.
    const int64_t timeout_us = locks_.num_parked() != 0 ? 20000 : -1;
    hb->SetStage("park");
    hb->SetIdle(true);
    baton_.store(kFree, std::memory_order_release);
    inbox_.Await(timeout_us);
    TakeBaton();
    hb->SetIdle(false);
  }
}

void Executor::TakeBaton() {
  uint32_t s = kFree;
  if (baton_.compare_exchange_strong(s, kExecutor, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    return;
  }
  // A guest is mid-session: one transaction's admission, body and commit
  // append, a few microseconds. The push that woke this thread already
  // paid one futex wake; yield the session out rather than pay a second,
  // and sleep on the word only past the bound.
  const uint64_t spin_until =
      Cycles::Now() +
      static_cast<uint64_t>(kBatonSpinUs * 1000.0 * Cycles::PerNanosecond());
  for (;;) {
    s = baton_.load(std::memory_order_acquire);
    if (s == kExecutor) return;  // handed over by a releasing guest
    if (s == kFree) {
      if (baton_.compare_exchange_weak(s, kExecutor,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
      continue;
    }
    if (Cycles::Now() < spin_until) {
      sched_yield();
      continue;
    }
    if (s == kGuest &&
        !baton_.compare_exchange_weak(s, kGuestExecWaiting,
                                      std::memory_order_relaxed)) {
      continue;
    }
    detail::FutexWait(&baton_, kGuestExecWaiting, /*timeout_us=*/-1);
  }
}

void Executor::ReleaseGuestBaton() {
  uint32_t s = kGuest;
  if (baton_.compare_exchange_strong(s, kFree, std::memory_order_release,
                                     std::memory_order_relaxed)) {
    return;
  }
  // kGuestExecWaiting: hand the baton straight to the sleeping executor,
  // so a following guest cannot overtake it.
  baton_.store(kExecutor, std::memory_order_release);
  detail::FutexWake(&baton_);
}

bool Executor::RunAsGuest(DoraTxn* t) {
  if (!inbox_.Idle()) return false;
  // Another guest's session is a few microseconds: wait it out while
  // nothing is queued for the executor, rather than dispatch and wake the
  // executor only to wait for the same baton. The executor's own hold, or
  // a queued message, sends this client the dispatch way at once.
  uint32_t s = kFree;
  uint64_t give_up = 0;
  while (!baton_.compare_exchange_weak(s, kGuest, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
    if (s == kFree) continue;  // spurious failure
    if (s != kGuest || !inbox_.Idle()) return false;
    const uint64_t now = Cycles::Now();
    if (give_up == 0) {
      give_up = now + static_cast<uint64_t>(kGuestWaitUs * 1000.0 *
                                            Cycles::PerNanosecond());
    } else if (now >= give_up) {
      return false;
    }
    CpuRelax();
    s = kFree;
  }
  const bool metrics = obs::MetricsEnabled();
  const uint64_t t0 = metrics ? Cycles::Now() : 0;
  // The session appends (body records, commit record) to this executor's
  // log partition, exactly as the executor thread would.
  db_->log_manager()->BindThisThread(global_index_);
  const uint64_t id = t->txn()->id();
  obs::CommitTracer::Stamp(id, obs::TraceStage::kEnqueue);
  obs::CommitTracer::Stamp(id, obs::TraceStage::kDrain);
  // The baton orders this guest's heartbeat writes after the executor's
  // "park": a body that wedges the session reads as a stalled executor.
  hb_->SetStage("guest");
  hb_->SetIdle(false);
  guest_txn_ = t;
  guest_finish_ = false;
  guest_parked_ = false;
  for (Action& a : t->actions) {
    a.owner = this;
    a.ticket = 0;
    AdmitAction(&a);
  }
  // Every action ran here: commit (CommitAppend, horizon raise) before any
  // lock goes, then release the locks locally (ReleaseLocks). Whatever
  // arrived in the inbox meanwhile is left to the executor it woke.
  if (guest_finish_) {
    ScopedTimeClass timer(TimeClass::kDoraRvp);
    engine_->FinishTxn(t, this);
  }
  guest_txn_ = nullptr;
  const bool parked = guest_parked_;
  if (metrics) {
    busy_cycles_.fetch_add(Cycles::Now() - t0, std::memory_order_relaxed);
  }
  hb_->SetStage("park");
  hb_->SetIdle(true);
  ReleaseGuestBaton();
  // The executor may be asleep without a timeout, which would leave the
  // parked action outside the §4.2.3 expiry check: wake it to re-park
  // with one.
  if (parked && !wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    PushToInbox(&wake_msg_);
  }
  return true;
}

void Executor::ReleaseLocks(DoraTxn* t) {
  runnable_.clear();
  locks_.ReleaseAll(t, &runnable_);
  RunRunnable();
}

void Executor::Classify(MpscNode* chain) {
  const bool metrics = obs::MetricsEnabled();
  const bool tracing = obs::CommitTracer::Enabled();
  uint64_t n = 0;
  uint64_t oldest_tsc = 0;  // oldest stamped enqueue in this drain
  while (chain != nullptr) {
    MpscNode* next = chain->next;
    auto* entry = static_cast<InboxEntry*>(chain);
    ++n;
    if (entry->enqueued_tsc != 0 &&
        (oldest_tsc == 0 || entry->enqueued_tsc < oldest_tsc)) {
      oldest_tsc = entry->enqueued_tsc;
    }
    switch (entry->kind) {
      case InboxEntry::Kind::kAction: {
        Action* a = static_cast<Action*>(entry);
        if (tracing) {
          obs::CommitTracer::Stamp(a->dtxn->txn()->id(),
                                   obs::TraceStage::kDrain);
        }
        if (a->ticket == 0) {
          ready_.push_back(a);
        } else {
          if (metrics) ticket_deferred_->Add();
          // Insertion keeps deferred_ sorted by ticket; strict comparison
          // preserves arrival order among equal tickets (same dispatch).
          deferred_.push_back(a);
          size_t i = deferred_.size() - 1;
          while (i > 0 && deferred_[i - 1]->ticket > a->ticket) {
            deferred_[i] = deferred_[i - 1];
            --i;
          }
          deferred_[i] = a;
        }
        break;
      }
      case InboxEntry::Kind::kCompletion:
        comps_.push_back(static_cast<CompletionMsg*>(entry)->dtxn);
        break;
      case InboxEntry::Kind::kStop:
        stop_seen_ = true;
        break;
      case InboxEntry::Kind::kWake:
        // The node is out of the queue: a later guest may push it again.
        wake_pending_.store(false, std::memory_order_release);
        break;
    }
    chain = next;
  }
  if (n != 0) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    items_.fetch_add(n, std::memory_order_relaxed);
    if (metrics) {
      // One record per drain, not per message: the histograms stay off the
      // per-action path. Queue wait is the drain's worst case (oldest
      // stamped enqueue).
      batch_size_hist_->Record(n);
      if (oldest_tsc != 0) {
        const uint64_t now = Cycles::Now();
        if (now > oldest_tsc) {
          const uint64_t wait_ns =
              static_cast<uint64_t>(Cycles::ToNanos(now - oldest_tsc));
          queue_wait_hist_->Record(wait_ns);  // per-executor skew signal
        }
      }
    }
  }
}

bool Executor::ProcessInbox(MpscNode* chain) {
  bool did = chain != nullptr;
  for (;;) {
    if (hb_ != nullptr) {
      hb_->Beat();
      hb_->SetStage("run");
    }
    if (chain != nullptr) {
      ScopedTimeClass timer(TimeClass::kDoraQueue);
      Classify(chain);
      chain = nullptr;
    }
    // Completions first (paper steps 11-12): release the transaction's
    // local locks and serially execute any actions that become runnable.
    if (!comps_.empty()) {
      did = true;
      for (DoraTxn* t : comps_) {
        ReleaseLocks(t);
        t->Unref();  // completion message's reference
      }
      comps_.clear();
    }
    // Then unticketed (single-queue) actions, FIFO.
    if (!ready_.empty()) {
      did = true;
      for (size_t i = 0; i < ready_.size(); ++i) AdmitAction(ready_[i]);
      ready_.clear();
    }
    if (deferred_.empty()) return did;
    // Ticket-ordered admission (§4.2.3 without latches): an action with
    // ticket t may be admitted only after (a) observing the published
    // horizon at >= t and (b) draining the inbox once more AFTER that
    // observation. Every multi-queue dispatch with a smaller ticket was
    // fully enqueued before the horizon reached t, so that drain provably
    // holds any smaller-ticket action bound for this executor — admission
    // order here therefore matches the global ticket order at every
    // executor, which is exactly what the ordered-latch protocol enforced.
    const uint64_t h = engine_->tickets().horizon();
    if (deferred_.front()->ticket > h) return did;
    {
      ScopedTimeClass timer(TimeClass::kDoraQueue);
      Classify(inbox_.TryDrain());
    }
    // Completions that arrived in that drain must release before admitted
    // actions acquire; loop back if any.
    if (!comps_.empty() || !ready_.empty()) {
      // Admit the covered prefix after the next pass's completion run.
      // (Re-reading the horizon then only ever admits more.)
      continue;
    }
    size_t admit = 0;
    while (admit < deferred_.size() && deferred_[admit]->ticket <= h) {
      ++admit;
    }
    for (size_t i = 0; i < admit; ++i) AdmitAction(deferred_[i]);
    deferred_.erase(deferred_.begin(), deferred_.begin() + admit);
    did = true;
  }
}

void Executor::AdmitAction(Action* a) {
  // A routing-rule change may have happened after this action was
  // dispatched; bounce stale-routed actions to the current owner.
  if (!a->whole_dataset &&
      engine_->RouteToExecutor(a->table, a->routing_value) != this) {
    engine_->Redispatch(a);
    return;
  }
  if (locks_.TryAcquire(a)) {
    ExecuteGranted(a);
  } else if (guest_txn_ != nullptr) {
    guest_parked_ = true;
  }
  // else parked: a Release will hand it back via `runnable`.
}

void Executor::ExpireStaleParked(uint64_t timeout_cycles) {
  std::vector<Action*> expired;
  runnable_.clear();
  const uint64_t now = Cycles::Now();
  locks_.CollectExpired(now > timeout_cycles ? now - timeout_cycles : 0,
                        &expired, &runnable_);
  for (Action* a : expired) {
    a->dtxn->MarkAborted(
        Status::Deadlock("local lock wait expired (§4.2.3 detector)"));
    actions_executed_.fetch_add(1, std::memory_order_relaxed);
    ReportToRvp(a);  // participates in RVP accounting, body skipped
  }
  RunRunnable();
}

void Executor::RunRunnable() {
  // Wake-path twin of AdmitAction's stale-route bounce: an action that
  // parked under the OLD routing rule can be granted here AFTER a
  // migration published — executing it would race the new owner. Give the
  // grant back (which may wake further waiters, hence the index loop) and
  // redispatch it through the current table.
  for (size_t i = 0; i < runnable_.size(); ++i) {
    Action* a = runnable_[i];
    if (!a->whole_dataset &&
        engine_->RouteToExecutor(a->table, a->routing_value) != this) {
      locks_.ReleaseGrant(a, &runnable_);
      engine_->Redispatch(a);
      continue;
    }
    ExecuteGranted(a);
  }
  runnable_.clear();
}

void Executor::ExecuteGranted(Action* a) {
  DoraTxn* dtxn = a->dtxn;
  // DORA-P abort handling (§A.4): check for a sibling's abort before doing
  // any work; the action still participates in RVP accounting.
  if (!dtxn->aborted() && a->body) {
    // Publish the stage so a body that never returns shows up in the
    // watchdog's per-thread table as stalled-in-execute.
    if (hb_ != nullptr) hb_->SetStage("execute");
    ActionEnv env{db_, dtxn->txn(), dtxn, this};
    ScopedTimeClass work(TimeClass::kWork);
    const Status s = a->body(env);
    if (!s.ok()) dtxn->MarkAborted(s);
  }
  actions_executed_.fetch_add(1, std::memory_order_relaxed);
  obs::CommitTracer::Stamp(dtxn->txn()->id(), obs::TraceStage::kExecute);
  ReportToRvp(a);
}

void Executor::ReportToRvp(Action* a) {
  DoraTxn* dtxn = a->dtxn;
  Rvp& rvp = dtxn->rvps[a->phase];
  ScopedTimeClass timer(TimeClass::kDoraRvp);
  if (rvp.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // A guest finishes its own one-phase transaction once its admission
  // loop is done (RunAsGuest), so the lock release cannot nest inside a
  // RunRunnable pass.
  if (dtxn == guest_txn_) {
    guest_finish_ = true;
    return;
  }
  // This thread zeroed the RVP: it initiates the next phase, or the
  // commit/abort if this was the terminal RVP (or the txn aborted).
  const bool terminal = a->phase + 1 >= dtxn->num_phases();
  if (terminal || dtxn->aborted()) {
    engine_->FinishTxn(dtxn);
  } else {
    engine_->DispatchPhase(dtxn, a->phase + 1);
  }
}

}  // namespace dora
}  // namespace doradb
