// Log scalability (the paper's §5.4 experiment): TPC-B — the
// write-heaviest workload — run against the DORA engine with the central
// WAL (one log partition every executor shares) versus the partitioned
// WAL (one partition per executor), sweeping the executor count. Both
// sweeps commit the same way (pipelined, with early lock release), so
// they differ only in partition count.
//
// The paper observes that once DORA removes lock-manager contention, the
// single latched log buffer "becomes the new bottleneck"; with one log
// partition per executor that latch is private, so per-executor log
// contention time should FALL (or stay flat at ~zero) as executors are
// added, while the central log's grows.
//
// Reported per point: committed tps, the TimeClass::kLogContention share
// of accounted time, the kLogWork share, and raw log-contention
// cycles / committed txn.

#include "bench_common.h"
#include "util/sync_stats.h"

using namespace doradb;
using namespace doradb::bench;

namespace {

struct Point {
  uint32_t executors;
  double tps;
  double log_cont_pct;
  double log_work_pct;
  double cont_cycles_per_txn;
  uint64_t idle_syncs_skipped;
};

Point RunPoint(LogBackendKind backend, uint32_t account_executors) {
  DurabilityStats::Reset();
  Database::Options db_opts = DbOptions();
  db_opts.log_backend = backend;
  // One partition per executor under kPartitioned (kCentral ignores it):
  // accounts get `account_executors`, the other three tables one each.
  const uint32_t total_executors = account_executors + 3;
  db_opts.log_partitions = total_executors;

  auto rig = MakeTpcbWith(db_opts, dora::DoraEngine::Options(),
                          account_executors, /*other_executors=*/1);
  ThreadStats::ResetAll();
  // Saturate the executor group: more clients than executors keeps every
  // queue non-empty so commit stalls show up as lost throughput.
  const uint32_t clients = 2 * total_executors;
  const BenchResult r =
      RunBench(rig.workload.get(),
               MakeConfig(EngineKind::kDora, rig.engine.get(), clients));

  Point p;
  p.executors = total_executors;
  p.tps = r.throughput_tps;
  const uint64_t total = r.raw_delta.TotalCycles();
  const uint64_t cont = r.raw_delta.Cycles(TimeClass::kLogContention);
  const uint64_t work = r.raw_delta.Cycles(TimeClass::kLogWork);
  p.log_cont_pct = total == 0 ? 0 : 100.0 * static_cast<double>(cont) /
                                        static_cast<double>(total);
  p.log_work_pct = total == 0 ? 0 : 100.0 * static_cast<double>(work) /
                                        static_cast<double>(total);
  p.cont_cycles_per_txn =
      r.committed == 0 ? 0
                       : static_cast<double>(cont) /
                             static_cast<double>(r.committed);
  p.idle_syncs_skipped = rig.db->log_manager()->idle_syncs_skipped();
  return p;
}

void RunSweep(const char* name, LogBackendKind backend) {
  std::printf("\n--- %s ---\n", name);
  std::printf("%-12s %12s %12s %12s %18s %16s\n", "executors", "tps",
              "log_cont%", "log_work%", "cont_cycles/txn", "cont/txn/exec");
  const bool file_backed = std::getenv("DORADB_DATA_DIR") != nullptr &&
                           std::getenv("DORADB_DATA_DIR")[0] != '\0';
  for (uint32_t ae : {1u, 2u, 4u, 8u}) {
    const Point p = RunPoint(backend, ae);
    std::printf("%-12u %12.0f %12.2f %12.2f %18.0f %16.0f\n", p.executors,
                p.tps, p.log_cont_pct, p.log_work_pct, p.cont_cycles_per_txn,
                p.cont_cycles_per_txn / p.executors);
    BenchJson::Default().Add(
        JsonRow()
            .Str("backend",
                 backend == LogBackendKind::kCentral ? "central" : "plog")
            .Int("executors", p.executors)
            .Num("tps", p.tps)
            .Num("log_cont_pct", p.log_cont_pct)
            .Num("log_work_pct", p.log_work_pct)
            .Num("cont_cycles_per_txn", p.cont_cycles_per_txn)
            .Int("idle_syncs_skipped", p.idle_syncs_skipped));
    if (file_backed) {
      // Per-stream durability cost of this point: group commit should
      // amortize fsyncs far below the committed-txn count.
      std::printf("  durability counters (per stream):\n%s",
                  DurabilityStats::ToString().c_str());
      std::printf("  idle watermark-only header syncs skipped: %llu\n",
                  static_cast<unsigned long long>(p.idle_syncs_skipped));
    }
  }
}

}  // namespace

int main() {
  PrintHeader("Log scalability",
              "TPC-B writes: central WAL vs partitioned WAL (plog)");
  RunSweep("central log (one shared partition latch)",
           LogBackendKind::kCentral);
  RunSweep("partitioned log (plog, one partition per executor)",
           LogBackendKind::kPartitioned);
  std::printf(
      "\nexpected shape: the central log's contention share grows with\n"
      "executor count (every executor funnels through one latch); plog's\n"
      "stays ~zero because each executor appends to a private partition.\n");
  BenchJson::Default().Emit("fig_log_scalability");
  return 0;
}
