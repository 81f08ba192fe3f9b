#include "layer_probe.h"

#include <algorithm>
#include <filesystem>

#include "client_loop.h"
#include "storage/btree.h"
#include "util/clock.h"

namespace doradb {
namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Windowed value of a registry counter (0 when absent).
double CounterDelta(const obs::MetricsSnapshot& d, const char* name) {
  const obs::MetricValue* m = d.Find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->value);
}

const obs::MetricValue* Hist(const obs::MetricsSnapshot& d,
                             const char* name) {
  const obs::MetricValue* m = d.Find(name);
  return m != nullptr && m->type == obs::MetricType::kHistogram ? m : nullptr;
}

// Total bytes of regular files under `dir` (0 when absent).
uint64_t DirectoryBytes(const std::string& dir) {
  if (dir.empty()) return 0;
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::error_code fe;
    if (it->is_regular_file(fe)) {
      const uint64_t n = it->file_size(fe);
      if (!fe) total += n;
    }
  }
  return total;
}

}  // namespace

LayerProbe::LayerProbe(Database* db, dora::DoraEngine* engine,
                       std::string data_dir)
    : db_(db), engine_(engine), data_dir_(std::move(data_dir)) {}

LayerProbe::Counters LayerProbe::Capture() const {
  Counters c;
  c.tsc = Cycles::Now();
  c.cycles = ThreadStats::AggregateSnapshot();
  c.registry = obs::MetricsRegistry::Default().Snapshot();
  if (engine_ != nullptr) {
    c.inbox = engine_->CollectInboxStats();
    for (dora::Executor* e : engine_->AllExecutors()) {
      c.exec_busy.push_back(e->busy_cycles());
    }
  }
  LockManager* lm = db_->lock_manager();
  c.lock_acquires = lm->acquires();
  c.lock_waits = lm->waits();
  c.lock_deadlocks = lm->deadlocks();
  c.lock_timeouts = lm->timeouts();
  LogBackend* log = db_->log_manager();
  c.log_appends = log->appends();
  c.log_flushes = log->flushes();
  c.log_reclaimed = log->reclaimed_bytes();
  BufferPool* pool = db_->buffer_pool();
  c.pool_hits = pool->hits();
  c.pool_misses = pool->misses();
  c.pool_evictions = pool->evictions();
  c.disk_reads = db_->disk()->reads();
  c.disk_writes = db_->disk()->writes();
  c.disk_pages = db_->disk()->NumAllocated();
  Catalog* cat = db_->catalog();
  for (IndexId i = 0; i < cat->num_indexes(); ++i) {
    if (BTree* t = cat->Index(i)) c.btree_splits += t->splits();
  }
  const auto ck = db_->checkpointer()->stats();
  c.ckpt_checkpoints = ck.checkpoints;
  c.ckpt_pages = ck.pages_flushed;
  c.dir_bytes = DirectoryBytes(data_dir_);
  return c;
}

void LayerProbe::Derive(uint64_t txns, uint64_t commits, double seconds,
                        std::vector<Metric>* out) const {
  const Counters& end = end_;
  const Counters& b = begin_;
  const double n = static_cast<double>(txns);
  const obs::MetricsSnapshot reg = end.registry.Delta(b.registry);
  auto add = [out](const char* name, double v, const char* unit) {
    out->push_back(Metric{name, v, unit});
  };

  // ---- dora ----
  const dora::DoraEngine::InboxStats in = end.inbox - b.inbox;
  double busy_max = 0, busy_min = 0;
  if (!end.exec_busy.empty()) {
    const double span = static_cast<double>(end.tsc - b.tsc);
    busy_min = 1.0;
    for (size_t i = 0; i < end.exec_busy.size(); ++i) {
      const double busy = std::min(
          1.0, Ratio(static_cast<double>(end.exec_busy[i] - b.exec_busy[i]),
                     span));
      busy_max = std::max(busy_max, busy);
      busy_min = std::min(busy_min, busy);
    }
  }
  const double dora_txns = CounterDelta(reg, "dora.txns.committed") +
                           CounterDelta(reg, "dora.txns.aborted");
  add("dora.actions_per_txn", Ratio(in.actions, dora_txns), "1/txn");
  add("dora.actions_per_drain", in.actions_per_drain(), "1/drain");
  add("dora.wakeups_per_action", in.wakeups_per_action(), "1/action");
  add("dora.exec_busy_max", busy_max, "ratio");
  add("dora.exec_busy_min", busy_min, "ratio");
  add("dora.tickets_per_txn", Ratio(in.tickets, dora_txns), "1/txn");
  add("dora.tickets_deferred_per_txn",
      Ratio(CounterDelta(reg, "dora.tickets.deferred"), dora_txns), "1/txn");
  add("dora.deadlock_aborts_per_ktxn",
      1000 * Ratio(CounterDelta(reg, "dora.aborts.deadlock"), dora_txns),
      "1/ktxn");
  add("dora.acked_inline_ratio",
      Ratio(CounterDelta(reg, "dora.txns.acked_inline"),
            CounterDelta(reg, "dora.txns.pipelined")),
      "ratio");

  // ---- centralized lock manager ----
  add("lock.acquires_per_txn", Ratio(end.lock_acquires - b.lock_acquires, n),
      "1/txn");
  add("lock.waits_per_txn", Ratio(end.lock_waits - b.lock_waits, n), "1/txn");
  add("lock.deadlocks_per_ktxn",
      1000 * Ratio(end.lock_deadlocks - b.lock_deadlocks, n), "1/ktxn");
  add("lock.timeouts_per_ktxn",
      1000 * Ratio(end.lock_timeouts - b.lock_timeouts, n), "1/ktxn");

  // ---- cycle shares (ThreadStats), over all accounted time ----
  const StatsSnapshot cy = end.cycles - b.cycles;
  const double total = static_cast<double>(cy.TotalCycles());
  auto share = [&](std::initializer_list<TimeClass> tcs) {
    double sum = 0;
    for (TimeClass tc : tcs) sum += static_cast<double>(cy.Cycles(tc));
    return Ratio(sum, total);
  };
  add("engine.work_share", share({TimeClass::kWork}), "share");
  add("lock.acquire_share", share({TimeClass::kLockAcquire}), "share");
  add("lock.acquire_cont_share", share({TimeClass::kLockAcquireContention}),
      "share");
  add("lock.wait_share", share({TimeClass::kLockWait}), "share");
  add("lock.release_share", share({TimeClass::kLockRelease}), "share");
  add("lock.release_cont_share", share({TimeClass::kLockReleaseContention}),
      "share");
  add("lock.other_share", share({TimeClass::kLockOther}), "share");
  add("dora.local_lock_share", share({TimeClass::kDoraLocalLock}), "share");
  add("dora.queue_share", share({TimeClass::kDoraQueue}), "share");
  add("dora.rvp_share", share({TimeClass::kDoraRvp}), "share");
  add("log.work_share", share({TimeClass::kLogWork}), "share");
  add("log.cont_share", share({TimeClass::kLogContention}), "share");
  add("storage.buffer_cont_share", share({TimeClass::kBufferContention}),
      "share");
  add("util.other_cont_share", share({TimeClass::kOtherContention}),
      "share");

  // ---- log ----
  const obs::MetricValue* gc_bytes = Hist(reg, "log.group_commit_bytes");
  const obs::MetricValue* fsync = Hist(reg, "log.fsync_ns");
  add("log.appends_per_txn", Ratio(end.log_appends - b.log_appends, n),
      "1/txn");
  add("log.bytes_per_txn",
      Ratio(gc_bytes != nullptr ? static_cast<double>(gc_bytes->sum) : 0, n),
      "B/txn");
  add("log.commits_per_flush",
      Ratio(commits, static_cast<double>(end.log_flushes - b.log_flushes)),
      "1/flush");
  add("log.fsyncs_per_ktxn",
      1000 * Ratio(fsync != nullptr ? static_cast<double>(fsync->count) : 0,
                   n),
      "1/ktxn");
  add("log.io_retries", CounterDelta(reg, "log.io_retries"), "count");

  // ---- storage ----
  const double hits = static_cast<double>(end.pool_hits - b.pool_hits);
  const double misses = static_cast<double>(end.pool_misses - b.pool_misses);
  add("storage.pool_hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("storage.evictions_per_txn",
      Ratio(end.pool_evictions - b.pool_evictions, n), "1/txn");
  add("storage.page_reads_per_txn", Ratio(end.disk_reads - b.disk_reads, n),
      "1/txn");
  add("storage.page_writes_per_txn",
      Ratio(end.disk_writes - b.disk_writes, n), "1/txn");
  add("storage.btree_splits_per_ktxn",
      1000 * Ratio(end.btree_splits - b.btree_splits, n), "1/ktxn");
  // File-backed: growth of the data directory (log segments + pages.db);
  // in memory: growth of the allocated page store.
  const double grown =
      data_dir_.empty()
          ? static_cast<double>(end.disk_pages - b.disk_pages) * kPageSize
          : static_cast<double>(end.dir_bytes) -
                static_cast<double>(b.dir_bytes);
  add("storage.bytes_per_txn", Ratio(grown, n), "B/txn");

  // ---- checkpoints ----
  const obs::MetricValue* ckpt_dur = Hist(reg, "ckpt.duration_ns");
  add("ckpt.checkpoints_per_s",
      Ratio(end.ckpt_checkpoints - b.ckpt_checkpoints, seconds), "1/s");
  add("ckpt.pages_flushed_per_s",
      Ratio(end.ckpt_pages - b.ckpt_pages, seconds), "1/s");
  add("ckpt.duration_p99_us",
      ckpt_dur != nullptr && ckpt_dur->count > 0 ? ckpt_dur->p99 / 1000.0
                                                 : 0.0,
      "us");
  add("ckpt.reclaimed_mb_per_s",
      Ratio((end.log_reclaimed - b.log_reclaimed) / 1e6, seconds), "MB/s");
}

void LayerProbe::AddTracerStages(const std::vector<obs::TraceEvent>& events,
                                 std::vector<Metric>* out) {
  std::vector<uint64_t> dispatch, queue_wait, service, flush_wait, ack;
  constexpr size_t kStages = obs::kNumTraceStages;
  // Events arrive sorted by (txn, tsc); keep each stage's first stamp.
  size_t i = 0;
  while (i < events.size()) {
    const uint64_t txn = events[i].txn_id;
    uint64_t first[kStages] = {};
    for (; i < events.size() && events[i].txn_id == txn; ++i) {
      uint64_t& slot = first[static_cast<size_t>(events[i].stage)];
      if (slot == 0) slot = events[i].tsc;
    }
    auto gap = [&](obs::TraceStage from, obs::TraceStage to,
                   std::vector<uint64_t>* v) {
      const uint64_t a = first[static_cast<size_t>(from)];
      const uint64_t z = first[static_cast<size_t>(to)];
      if (a != 0 && z >= a) {
        v->push_back(static_cast<uint64_t>(Cycles::ToNanos(z - a)));
      }
    };
    gap(obs::TraceStage::kDispatch, obs::TraceStage::kEnqueue, &dispatch);
    gap(obs::TraceStage::kEnqueue, obs::TraceStage::kDrain, &queue_wait);
    gap(obs::TraceStage::kDrain, obs::TraceStage::kExecute, &service);
    gap(obs::TraceStage::kCommitAppend, obs::TraceStage::kDurable,
        &flush_wait);
    gap(obs::TraceStage::kDurable, obs::TraceStage::kAck, &ack);
  }
  out->push_back({"dora.dispatch_p50_us", PercentileUs(&dispatch, 50),
                  "us"});
  out->push_back({"dora.queue_wait_p50_us",
                  PercentileUs(&queue_wait, 50), "us"});
  out->push_back({"dora.queue_wait_p99_us",
                  PercentileUs(&queue_wait, 99), "us"});
  out->push_back({"dora.service_p50_us", PercentileUs(&service, 50),
                  "us"});
  out->push_back({"dora.ack_p50_us", PercentileUs(&ack, 50), "us"});
  out->push_back({"plog.flush_wait_p50_us",
                  PercentileUs(&flush_wait, 50), "us"});
}

}  // namespace perfbench
}  // namespace doradb
