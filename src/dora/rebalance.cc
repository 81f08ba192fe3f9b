#include "dora/rebalance.h"

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>

#include "obs/heartbeat.h"
#include "obs/metrics.h"

namespace doradb {
namespace dora {

namespace {

int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Dataset d's half-open range under `rule` over [0, key_space).
void DatasetRange(const RoutingRule& rule, uint64_t key_space, size_t d,
                  uint64_t* lo, uint64_t* hi) {
  *lo = d == 0 ? 0 : rule.boundaries[d - 1];
  *hi = d == rule.boundaries.size() ? key_space : rule.boundaries[d];
}

}  // namespace

RebalanceController::RebalanceController(DoraEngine* engine, Options options)
    : engine_(engine), options_(options) {
  // Register the rebalance metrics eagerly so a DORADB_REBALANCE=1 run
  // carries the namespace in its stats snapshots even before (or without)
  // the first migration.
  auto& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("dora.rebalance.splits");
  reg.GetCounter("dora.rebalance.moved_ranges");
  reg.GetHistogram("dora.rebalance.fence_wait_ns", "ns");
}

RebalanceController::~RebalanceController() { Stop(); }

void RebalanceController::Start() {
  std::lock_guard<std::mutex> g(loop_mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void RebalanceController::Stop() {
  {
    std::lock_guard<std::mutex> g(loop_mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
  }
  loop_cv_.notify_all();
  thread_.join();
}

void RebalanceController::Loop() {
  obs::ScopedHeartbeat hb("dora.rebalance");
  std::unique_lock<std::mutex> lk(loop_mu_);
  while (!stop_) {
    loop_cv_.wait_for(lk, std::chrono::milliseconds(options_.interval_ms),
                      [this] { return stop_; });
    if (stop_) break;
    hb->Beat();
    if (paused_.load(std::memory_order_relaxed)) continue;
    lk.unlock();
    StepOnce();
    lk.lock();
  }
}

bool RebalanceController::DecideFromWindow(const obs::HeatmapWindow& w,
                                           Decision* out) const {
  if (w.rows.empty()) return false;
  std::map<uint32_t, const obs::ExecutorSample*> by_global;
  for (const auto& r : w.rows) by_global[r.executor] = &r;

  for (const TableId table : engine_->RegisteredTables()) {
    const uint32_t n = engine_->executors_of(table);
    if (n < 2) continue;
    // Hot/cold by busy fraction among THIS table's executors (the window
    // keys rows by global executor index).
    uint32_t hot = 0, cold = 0;
    double busy_hot = -1.0, busy_cold = 2.0;
    bool complete = true;
    for (uint32_t i = 0; i < n; ++i) {
      auto it = by_global.find(engine_->ExecutorAt(table, i)->global_index());
      if (it == by_global.end()) {
        complete = false;
        break;
      }
      const double busy = it->second->busy_frac;
      if (busy > busy_hot) {
        busy_hot = busy;
        hot = i;
      }
      if (busy < busy_cold) {
        busy_cold = busy;
        cold = i;
      }
    }
    if (!complete || hot == cold) continue;
    if (busy_hot - busy_cold < options_.min_busy_gap) continue;

    const RoutingTable* routing = engine_->routing_of(table);
    auto current = routing->Current();
    const uint64_t key_space = engine_->key_space_of(table);

    // Datasets the hot executor owns, widest first.
    size_t widest = SIZE_MAX, owned = 0;
    uint64_t widest_span = 0;
    for (size_t d = 0; d < current->executor_of_dataset.size(); ++d) {
      if (current->executor_of_dataset[d] != hot) continue;
      ++owned;
      uint64_t lo, hi;
      DatasetRange(*current, key_space, d, &lo, &hi);
      if (hi - lo >= widest_span) {
        widest_span = hi - lo;
        widest = d;
      }
    }
    if (owned == 0 || widest == SIZE_MAX) continue;

    auto rule = std::make_shared<RoutingRule>();
    rule->boundaries = current->boundaries;
    rule->executor_of_dataset = current->executor_of_dataset;
    rule->version = current->version + 1;
    bool split = false;
    if (owned > 1) {
      // MOVE: reassign the hot executor's widest dataset wholesale.
      rule->executor_of_dataset[widest] = cold;
    } else {
      // SPLIT: the hot executor owns a single range — halve it and hand
      // the upper half to the cold executor.
      uint64_t lo, hi;
      DatasetRange(*current, key_space, widest, &lo, &hi);
      if (hi - lo < 2) continue;  // one key cannot be split
      const uint64_t mid = lo + (hi - lo) / 2;
      rule->boundaries.insert(rule->boundaries.begin() + widest, mid);
      rule->executor_of_dataset.insert(
          rule->executor_of_dataset.begin() + widest + 1, cold);
      split = true;
    }

    out->table = table;
    out->hot_executor = hot;
    out->cold_executor = cold;
    out->split = split;
    out->busy_hot = busy_hot;
    out->busy_cold = busy_cold;
    out->rule = std::move(rule);
    return true;
  }
  return false;
}

Status RebalanceController::Apply(const Decision& d) {
  uint64_t fence_wait_ns = 0;
  const Status s =
      engine_->MigrateRoutingRule(d.table, d.rule, &fence_wait_ns);
  if (!s.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  migrations_.fetch_add(1, std::memory_order_relaxed);
  if (d.split) {
    splits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    moves_.fetch_add(1, std::memory_order_relaxed);
  }
  // One reporter-style line per migration (same stderr stream the
  // DORADB_STATS / DORADB_HEATMAP lines use).
  std::fprintf(stderr,
               "DORADB_REBALANCE {\"ts_ms\":%" PRId64 ",\"table\":%u,"
               "\"kind\":\"%s\",\"hot\":%u,\"cold\":%u,\"version\":%" PRIu64
               ",\"fence_wait_ns\":%" PRIu64
               ",\"busy_hot\":%.3f,\"busy_cold\":%.3f}\n",
               WallMs(), static_cast<unsigned>(d.table),
               d.split ? "split" : "move", d.hot_executor, d.cold_executor,
               d.rule->version, fence_wait_ns, d.busy_hot, d.busy_cold);
  return s;
}

bool RebalanceController::StepOnce() {
  std::lock_guard<std::mutex> g(step_mu_);
  if (options_.sweep) heatmap().Sweep();
  const obs::HeatmapWindow w = heatmap().Latest();
  if (w.rows.empty() || w.seq <= last_seq_) return false;
  last_seq_ = w.seq;
  Decision d;
  return DecideFromWindow(w, &d) && Apply(d).ok();
}

}  // namespace dora
}  // namespace doradb
