// Per-layer attribution for one measured window.
//
// LayerProbe captures every module's public counters at the window's start
// and derives the per-layer metrics from the deltas at its end:
//   dora     DoraEngine::CollectInboxStats, Executor::busy_cycles and the
//            dora.* registry counters
//   lock     LockManager acquires / waits / deadlocks / timeouts
//   cycles   ThreadStats::AggregateSnapshot time-class shares
//   log      LogBackend appends / flushes, log.* registry histograms
//   storage  BufferPool, DiskManager, B+Tree splits, data-directory growth
//   ckpt     CheckpointCoordinator::stats and ckpt.* registry metrics
// The obs::CommitTracer stage stamps the caller collected are folded in by
// AddTracerStages.
//
// Metrics that do not apply to a workload (DORA counters on the Baseline
// engine, checkpoints without the daemon) report 0, so every workload
// prints the same metric set.

#ifndef DORADB_PERFBENCH_LAYER_PROBE_H_
#define DORADB_PERFBENCH_LAYER_PROBE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/sync_stats.h"

namespace doradb {
namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class LayerProbe {
 public:
  // `engine` may be null (Baseline); `data_dir` empty for in-memory media.
  LayerProbe(Database* db, dora::DoraEngine* engine, std::string data_dir);

  // Snapshot every counter at the window's start and end. End must run
  // while the engine is still started (its registry callbacks live).
  void Begin() { begin_ = Capture(); }
  void End() { end_ = Capture(); }
  // Append the metrics derived from the two snapshots. `txns` and
  // `commits` count the transactions attempted and committed in the
  // window; `seconds` is its length. Per-txn metrics divide by `txns`.
  void Derive(uint64_t txns, uint64_t commits, double seconds,
              std::vector<Metric>* out) const;

  // Appends dora.{dispatch,queue_wait,service,ack}_* and
  // plog.flush_wait_p50_us from the tracer's exact stage stamps
  // (`events` as CommitTracer::Dump returns them).
  static void AddTracerStages(const std::vector<obs::TraceEvent>& events,
                              std::vector<Metric>* out);

 private:
  struct Counters {
    uint64_t tsc = 0;
    StatsSnapshot cycles;
    obs::MetricsSnapshot registry;
    dora::DoraEngine::InboxStats inbox;
    std::vector<uint64_t> exec_busy;
    uint64_t lock_acquires = 0, lock_waits = 0, lock_deadlocks = 0,
             lock_timeouts = 0;
    uint64_t log_appends = 0, log_flushes = 0, log_reclaimed = 0;
    uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
    uint64_t disk_reads = 0, disk_writes = 0, disk_pages = 0;
    uint64_t btree_splits = 0;
    uint64_t ckpt_checkpoints = 0, ckpt_pages = 0;
    uint64_t dir_bytes = 0;
  };
  Counters Capture() const;

  Database* const db_;
  dora::DoraEngine* const engine_;
  const std::string data_dir_;
  Counters begin_;
  Counters end_;
};

}  // namespace perfbench
}  // namespace doradb

#endif  // DORADB_PERFBENCH_LAYER_PROBE_H_
