// Benchmark driver: closed-loop clients submitting transactions against
// either engine, with the paper's measurement methodology — offered CPU
// load as the control variable (§5.2: clients relative to hardware
// contexts), committed-transaction throughput, latency histograms, and
// time-breakdown deltas over the measurement window.

#ifndef DORADB_WORKLOADS_COMMON_DRIVER_H_
#define DORADB_WORKLOADS_COMMON_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "workloads/common/breakdown.h"
#include "workloads/common/workload.h"
#include "util/histogram.h"

namespace doradb {

enum class EngineKind { kBaseline, kDora };

struct BenchConfig {
  EngineKind engine = EngineKind::kBaseline;
  uint32_t num_clients = 1;
  uint64_t duration_ms = 1000;
  uint64_t warmup_ms = 200;
  // Fixed transaction type, or -1 for the benchmark's standard mix.
  int txn_type = -1;
  uint64_t seed = 42;
  // DORA engine to drive (required for kDora).
  dora::DoraEngine* dora_engine = nullptr;
};

struct BenchResult {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t user_aborts = 0;    // benchmark-defined failures (count as done)
  uint64_t system_aborts = 0;  // deadlock / timeout
  double throughput_tps = 0;   // (committed + user_aborts) / seconds
  double offered_load_pct = 0; // clients / hardware contexts * 100
  std::shared_ptr<Histogram> latency = std::make_shared<Histogram>();
  PaperBreakdown breakdown;    // over the measurement window
  StatsSnapshot raw_delta;

  std::string Summary() const;
};

// Run a closed-loop benchmark. Clients are spawned fresh; statistics are
// reset after warmup so the breakdown covers only the measured window.
BenchResult RunBench(Workload* workload, const BenchConfig& config);

// Global record-access trace for the Fig. 10 experiment. Disabled (and
// free) unless explicitly enabled.
class AccessTrace {
 public:
  struct Event {
    uint32_t thread;    // dense per-thread id
    TableId table;
    uint64_t key;       // routing-field value (e.g. district number)
    uint64_t t_ns;      // time since Enable()
  };

  static void Enable();
  static void Disable();
  static bool enabled();
  static void Record(TableId table, uint64_t key);
  static std::vector<Event> Drain();
};

}  // namespace doradb

#endif  // DORADB_WORKLOADS_COMMON_DRIVER_H_
