// Unified engine metrics registry: named counters, gauges, and
// log2-bucketed latency histograms shared by every subsystem.
//
// The paper's contribution was proven with measurement — its figures are
// time-breakdown and contention attributions — but until this module the
// engine's instrumentation was three disconnected pull-only mechanisms
// (ThreadStats, DoraEngine::InboxStats, DurabilityStats) that only the
// benchmark rigs knew how to read. The registry gives every counter one
// home, one naming scheme, and one snapshot surface (text + JSON), so the
// adaptive-execution roadmap items (live repartitioning, admission control)
// can consume live telemetry instead of bench plumbing.
//
// Hot-path discipline (same as ThreadStats::SwitchClass): counters are
// sharded across cache-line-padded per-thread slots written with relaxed
// stores — an Add is one relaxed fetch_add on a line no other thread
// writes in steady state — and aggregation happens only on snapshot.
// Registration (name lookup) takes a mutex and belongs at startup; hot
// sites hold the returned pointer, which stays valid for the registry's
// lifetime.
//
// Three metric flavors:
//  * owned metrics (GetCounter/GetGauge/GetHistogram): storage lives in
//    the registry, instrumentation sites push into it;
//  * callback metrics (RegisterCallback): the registry *pulls* a value at
//    snapshot time from subsystems that already maintain their own atomics
//    (executor inbox counters, log manager LSNs, checkpoint stats) — the
//    zero-cost way to fold existing stats in without double counting.
//    Callbacks must be unregistered before their subject dies;
//  * the process-wide Default() registry, which DurabilityStats and the
//    engine instrumentation feed. Tests may build private registries.
//
// Disabling (SetMetricsEnabled(false)) stops the *new* histogram/gauge
// instrumentation on hot paths (each site checks one relaxed bool);
// pre-existing engine counters keep counting so legacy accessors
// (InboxStats et al.) never regress. fig_obs_overhead A/Bs the two modes.

#ifndef DORADB_OBS_METRICS_H_
#define DORADB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.h"
#include "util/status.h"

namespace doradb {
namespace obs {

// Global hot-path gate for the metrics instrumentation added by this
// module (histogram records, tsc stamps, depth accounting). One relaxed
// load per site.
bool MetricsEnabled();
void SetMetricsEnabled(bool on);

// Monotonic counter, sharded to keep concurrent Add()s off one cache
// line. Each thread writes a sticky slot chosen at first use.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t n = 1) {
    auto& slot = shards_[ShardIndex()].v;
    slot.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static size_t ShardIndex();

  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

// Point-in-time signed value (queue depth, horizon, active count).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

enum class MetricType : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* MetricTypeName(MetricType t);

// One metric's state at snapshot time. Histograms carry their full bucket
// array so Delta() can subtract two snapshots and recompute percentiles
// over exactly the window between them.
struct MetricValue {
  std::string name;
  std::string unit;  // "ns", "bytes", "actions", ... (informational)
  MetricType type = MetricType::kCounter;

  // counter / gauge
  int64_t value = 0;

  // histogram summary (+ buckets for delta math)
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  // Percentiles of this snapshot (recomputed from the buckets after a
  // Delta, so a windowed snapshot's percentiles cover only the window).
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  // False when a histogram (typically a Delta window) holds zero samples:
  // the percentiles above are then meaningless and serialize as JSON
  // null rather than a fake 0.
  bool has_percentiles = true;
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};

  // Percentile over the snapshot's buckets (histograms only; linear
  // interpolation within the containing log2 bucket).
  uint64_t Percentile(double p) const;
  void RecomputePercentiles();
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

struct MetricsSnapshot {
  int64_t wall_ms = 0;  // wall-clock ms at capture (unix epoch)
  // Why this snapshot was emitted ("interval" / "final" from the
  // reporter); empty snapshots omit it from JSON.
  std::string reason;
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* Find(std::string_view name) const;

  // Window math: counters and histogram counts/sums/buckets subtract
  // (this - earlier); gauges keep this snapshot's value (a level, not a
  // flow); histogram min/max keep this snapshot's bounds (they are not
  // subtractable). Metrics absent from `earlier` pass through unchanged.
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;

  // Human-readable table, one metric per line.
  std::string ToText() const;
  // One JSON object: {"ts_ms":..,["reason":..,]"metrics":{...}}.
  // Histograms serialize count/sum/min/max/p50/p95/p99/p999 (summary, not
  // buckets); zero-sample windows emit the percentiles as null.
  // Deterministic key order (sorted by name).
  std::string ToJson() const;
  // Parse ToJson() output back: summary fields round-trip exactly; bucket
  // arrays are not serialized, so a parsed snapshot supports no further
  // Delta percentile math. Returns a named error on malformed input.
  static Status FromJson(std::string_view json, MetricsSnapshot* out);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name. Pointers are stable for the registry's
  // lifetime. A name keeps its first-registered type; a kind mismatch
  // returns the existing metric of the other kind as nullptr.
  Counter* GetCounter(const std::string& name, const std::string& unit = "");
  Gauge* GetGauge(const std::string& name, const std::string& unit = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& unit = "ns");

  // Pull-style metric: `fn` is evaluated under the registry mutex at
  // snapshot time. `type` declares the delta semantics (kCounter:
  // subtractable flow, kGauge: level). Returns a token for Unregister;
  // re-registering a live name replaces the previous callback (its token
  // dies). Callers MUST Unregister before anything `fn` touches is
  // destroyed.
  uint64_t RegisterCallback(const std::string& name,
                            std::function<int64_t()> fn,
                            MetricType type = MetricType::kGauge,
                            const std::string& unit = "");
  void Unregister(uint64_t token);

  // Aggregate every metric (owned + callback) into one sorted snapshot.
  MetricsSnapshot Snapshot() const;

  // Zero every owned counter/gauge/histogram (callback metrics reset with
  // their owners). For benches/tests; prefer snapshot deltas.
  void ResetAll();

  // The process-wide registry the engine instruments into.
  static MetricsRegistry& Default();

 private:
  struct Owned {
    MetricType type;
    std::string unit;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Callback {
    MetricType type;
    std::string unit;
    uint64_t token;
    std::function<int64_t()> fn;
  };

  mutable std::mutex mu_;
  std::map<std::string, Owned> owned_;
  std::map<std::string, Callback> callbacks_;
  uint64_t next_token_ = 1;
};

}  // namespace obs
}  // namespace doradb

#endif  // DORADB_OBS_METRICS_H_
