#include "workloads/common/driver.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/thread_pool.h"

namespace doradb {

namespace {

using Clock = std::chrono::steady_clock;

struct ClientCounters {
  uint64_t committed = 0;
  uint64_t user_aborts = 0;
  uint64_t system_aborts = 0;
};

}  // namespace

std::string BenchResult::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "load=%6.1f%% tps=%10.0f committed=%lu user_aborts=%lu "
                "sys_aborts=%lu p50=%.0fus p95=%.0fus",
                offered_load_pct, throughput_tps,
                static_cast<unsigned long>(committed),
                static_cast<unsigned long>(user_aborts),
                static_cast<unsigned long>(system_aborts),
                latency->Percentile(50) / 1000.0,
                latency->Percentile(95) / 1000.0);
  return buf;
}

BenchResult RunBench(Workload* workload, const BenchConfig& config) {
  BenchResult result;
  result.offered_load_pct =
      100.0 * config.num_clients / HardwareContexts();

  std::atomic<bool> warmup_done{false};
  std::atomic<bool> stop{false};
  std::vector<ClientCounters> counters(config.num_clients);
  Histogram latency;

  StatsSnapshot measure_start;
  std::mutex snap_mu;  // protects measure_start assignment

  ThreadGroup clients;
  clients.Spawn(config.num_clients, [&](size_t id) {
    Rng rng(config.seed * 7919 + id * 104729 + 1);
    ClientCounters local;
    bool counted_from_warmup = false;
    while (!stop.load(std::memory_order_acquire)) {
      if (!counted_from_warmup &&
          warmup_done.load(std::memory_order_acquire)) {
        local = ClientCounters{};  // discard warmup counts
        counted_from_warmup = true;
      }
      const uint32_t type = config.txn_type >= 0
                                ? static_cast<uint32_t>(config.txn_type)
                                : workload->PickTxnType(rng);
      const auto t0 = Clock::now();
      const Status s = config.engine == EngineKind::kBaseline
                           ? workload->RunBaseline(type, rng)
                           : workload->RunDora(config.dora_engine, type, rng);
      const auto t1 = Clock::now();
      if (counted_from_warmup) {
        latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
      if (s.ok()) {
        ++local.committed;
      } else if (s.IsDeadlock() || s.IsTimeout()) {
        ++local.system_aborts;
      } else {
        ++local.user_aborts;
      }
    }
    counters[id] = local;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(config.warmup_ms));
  {
    std::lock_guard<std::mutex> g(snap_mu);
    measure_start = ThreadStats::AggregateSnapshot();
  }
  const auto measure_t0 = Clock::now();
  warmup_done.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(config.duration_ms));
  stop.store(true, std::memory_order_release);
  clients.Join();
  const auto measure_t1 = Clock::now();

  const StatsSnapshot measure_end = ThreadStats::AggregateSnapshot();
  result.raw_delta = measure_end - measure_start;
  result.breakdown = PaperBreakdown::From(result.raw_delta);
  result.seconds =
      std::chrono::duration<double>(measure_t1 - measure_t0).count();
  for (const auto& c : counters) {
    result.committed += c.committed;
    result.user_aborts += c.user_aborts;
    result.system_aborts += c.system_aborts;
  }
  result.throughput_tps =
      static_cast<double>(result.committed + result.user_aborts) /
      result.seconds;
  result.latency->Merge(latency);
  return result;
}

// ----------------------------------------------------------- AccessTrace

namespace {
struct TraceState {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::vector<AccessTrace::Event> events;
  std::atomic<uint32_t> next_thread_id{0};
  Clock::time_point t0;

  static TraceState& Get() {
    static TraceState* s = new TraceState();
    return *s;
  }
};

uint32_t DenseThreadId() {
  thread_local uint32_t id =
      TraceState::Get().next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}
}  // namespace

void AccessTrace::Enable() {
  TraceState& s = TraceState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  s.events.clear();
  s.t0 = Clock::now();
  s.enabled.store(true, std::memory_order_release);
}

void AccessTrace::Disable() {
  TraceState::Get().enabled.store(false, std::memory_order_release);
}

bool AccessTrace::enabled() {
  return TraceState::Get().enabled.load(std::memory_order_acquire);
}

void AccessTrace::Record(TableId table, uint64_t key) {
  TraceState& s = TraceState::Get();
  if (!s.enabled.load(std::memory_order_acquire)) return;
  const uint64_t t_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           s.t0)
          .count());
  std::lock_guard<std::mutex> g(s.mu);
  s.events.push_back(Event{DenseThreadId(), table, key, t_ns});
}

std::vector<AccessTrace::Event> AccessTrace::Drain() {
  TraceState& s = TraceState::Get();
  std::lock_guard<std::mutex> g(s.mu);
  std::vector<Event> out;
  out.swap(s.events);
  return out;
}

}  // namespace doradb
