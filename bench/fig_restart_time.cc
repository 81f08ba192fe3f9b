// Restart time vs. log size (the src/ckpt/ + segment-file acceptance
// experiment): TPC-B — the write-heaviest workload — run against the DORA
// engine with the partitioned WAL and pipelined commit, then crashed and
// recovered, under two checkpoint configurations:
//
//   off              no checkpoints: the stable log holds all of history
//                    and restart replays every record ever written;
//   partition-local  the src/ckpt/ daemon: fuzzy per-partition visits,
//                    each flushing only that partition's dirty pages and
//                    advancing only its truncation point.
//
// The daemon visits once a partition's stable log has grown by one
// segment, so the checkpointing mode runs with small segments (8 KiB,
// DORADB_LOG_SEGMENT_BYTES overrides) to cross that trigger many times
// even in a 100 ms window.
//
// Media: in-memory by default; with DORADB_DATA_DIR set, the WAL lives in
// segment files and pages in pages.db, checkpoint truncation UNLINKS
// whole segments, and the restart is real: the crashed Database object is
// destroyed and a second lifetime reopens the data directory, paying
// genuine file I/O to rebuild the streams and recover — then proves the
// recovered state consistent (TPC-B balance invariant).
//
// Reported per mode: committed tps while the daemon runs (checkpoints must
// not stall execution), on-disk log bytes + segment files at the crash,
// bytes reclaimed by truncation, records replayed by recovery, recovery
// wall time, storage faults injected by a DORADB_FAULT_* plan and I/O
// retries during the run, and (file-backed) the per-stream durability
// counters: fsyncs, bytes flushed, segments sealed/unlinked.
//
// Exit status: non-zero when the checkpointing mode ran no checkpoint or,
// file-backed, unlinked no segment.

#include <chrono>

#include "bench_common.h"
#include "log/recovery.h"
#include "obs/health.h"
#include "util/fault_injector.h"
#include "util/sync_stats.h"

using namespace doradb;
using namespace doradb::bench;

namespace {

struct Row {
  const char* name;
  double tps = 0;
  uint64_t checkpoints = 0;
  size_t log_bytes = 0;
  size_t seg_files = 0;
  uint64_t reclaimed = 0;
  uint64_t seg_unlinked = 0;
  size_t replayed = 0;
  size_t horizon_skips = 0;
  double recover_ms = 0;
  uint64_t faults_injected = 0;
  uint64_t io_retries = 0;
};

uint64_t TotalUnlinked() {
  uint64_t n = 0;
  for (const auto& row : DurabilityStats::Snapshot()) {
    if (row.stream == kPageStoreStream) continue;
    n += row.counts[static_cast<size_t>(
        DurabilityCounter::kSegmentsUnlinked)];
  }
  return n;
}

Row RunMode(const char* name, bool enabled) {
  constexpr uint32_t kAccountExecutors = 4;
  const uint32_t total_executors = kAccountExecutors + 3;

  DurabilityStats::Reset();
  Database::Options db_opts = DbOptions();
  db_opts.log_backend = LogBackendKind::kPartitioned;
  db_opts.log_partitions = total_executors;
  db_opts.checkpoint.enabled = enabled;
  db_opts.checkpoint.truncate = true;
  if (enabled) {
    db_opts.log_segment_bytes = EnvU64("DORADB_LOG_SEGMENT_BYTES", 8 << 10);
  }
  const bool file_backed = !db_opts.data_dir.empty();

  const uint64_t injected_before = FaultInjector::Default().injected();
  auto rig = MakeTpcbWith(db_opts, dora::DoraEngine::Options(),
                          kAccountExecutors, /*other_executors=*/1);
  const BenchResult r =
      RunBench(rig.workload.get(),
               MakeConfig(EngineKind::kDora, rig.engine.get(),
                          /*clients=*/2 * total_executors));
  rig.engine->Stop();

  Row row;
  row.name = name;
  row.tps = r.throughput_tps;
  row.checkpoints = rig.db->checkpointer()->stats().checkpoints;
  row.log_bytes = rig.db->log_manager()->stable_size() +
                  0;  // volatile tail dies at the crash below
  row.seg_files = rig.db->log_manager()->segment_files();
  row.reclaimed = rig.db->log_manager()->reclaimed_bytes();
  row.seg_unlinked = TotalUnlinked();
  // Read before the restart: a reopened Database resets the health counters.
  row.faults_injected = FaultInjector::Default().injected() - injected_before;
  row.io_retries = obs::EngineHealth::Default().io_retries();

  if (file_backed) {
    // The real restart: kill the process image — buffers dropped with NO
    // stable truncation, exactly as a dead process leaves its files —
    // and reopen the data directory in a second lifetime. The timed
    // region covers the cold start — segment scan, claim merge, stream
    // truncation, clock resume, catalog.db replay (constructor) — plus
    // ARIES recovery and the spec-driven index rebuild, from files alone:
    // no schema re-creation, Attach() only binds ids from the recovered
    // catalog by name.
    rig.db->SimulateKill();
    rig.engine.reset();
    rig.workload.reset();
    const tpcb::TpcbWorkload::Config cfg{};  // ids bound at Attach
    rig.db.reset();

    const auto t0 = std::chrono::steady_clock::now();
    Database db2(db_opts);
    tpcb::TpcbWorkload reopened(&db2, cfg);
    if (!reopened.Attach().ok()) {
      std::fprintf(stderr, "schema attach failed\n");
      std::abort();
    }
    RecoveryDriver driver(&db2);
    const Status s = driver.Run(nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    if (!s.ok()) {
      std::fprintf(stderr, "cold-start recovery failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
    const Status c = reopened.CheckConsistency();
    if (!c.ok()) {
      std::fprintf(stderr, "recovered state inconsistent: %s\n",
                   c.ToString().c_str());
      std::abort();
    }
    row.replayed = driver.stats().records_scanned;
    row.horizon_skips = driver.stats().redo_skipped_horizon;
    row.recover_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return row;
  }

  rig.db->SimulateCrash();
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryDriver driver(rig.db.get());
  const Status s = driver.Run(nullptr);
  const auto t1 = std::chrono::steady_clock::now();
  if (!s.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  row.replayed = driver.stats().records_scanned;
  row.horizon_skips = driver.stats().redo_skipped_horizon;
  row.recover_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return row;
}

}  // namespace

int main() {
  const bool file_backed = std::getenv("DORADB_DATA_DIR") != nullptr &&
                           std::getenv("DORADB_DATA_DIR")[0] != '\0';
  PrintHeader("Restart time",
              file_backed
                  ? "TPC-B + plog on segment files: real cold restart"
                  : "TPC-B + plog: recovery cost vs checkpoint mode");
  std::printf("%-16s %9s %7s %11s %9s %11s %9s %9s %10s %11s %7s %8s\n",
              "checkpoints", "tps", "ckpts", "log_bytes", "seg_files",
              "reclaimed", "unlinked", "replayed", "hzn_skips",
              "recover_ms", "faults", "retries");
  struct ModeSpec {
    const char* name;
    bool enabled;
  };
  const ModeSpec specs[] = {
      {"off", false},
      {"partition-local", true},
  };
  bool failed = false;
  for (const ModeSpec& spec : specs) {
    const Row row = RunMode(spec.name, spec.enabled);
    if (spec.enabled && row.checkpoints == 0) {
      std::fprintf(stderr, "FAIL: %s ran no checkpoint\n", row.name);
      failed = true;
    }
    if (spec.enabled && file_backed && row.seg_unlinked == 0) {
      std::fprintf(stderr, "FAIL: %s unlinked no segment\n", row.name);
      failed = true;
    }
    std::printf(
        "%-16s %9.0f %7llu %11zu %9zu %11llu %9llu %9zu %10zu %11.2f %7llu "
        "%8llu\n",
        row.name, row.tps, static_cast<unsigned long long>(row.checkpoints),
        row.log_bytes, row.seg_files,
        static_cast<unsigned long long>(row.reclaimed),
        static_cast<unsigned long long>(row.seg_unlinked), row.replayed,
        row.horizon_skips, row.recover_ms,
        static_cast<unsigned long long>(row.faults_injected),
        static_cast<unsigned long long>(row.io_retries));
    if (file_backed) {
      std::printf("  durability counters (per stream):\n%s",
                  DurabilityStats::ToString().c_str());
    }
    BenchJson::Default().Add(JsonRow()
                                 .Str("mode", row.name)
                                 .Num("tps", row.tps)
                                 .Int("checkpoints", row.checkpoints)
                                 .Int("log_bytes", row.log_bytes)
                                 .Int("seg_files", row.seg_files)
                                 .Int("reclaimed_bytes", row.reclaimed)
                                 .Int("segments_unlinked", row.seg_unlinked)
                                 .Int("records_replayed", row.replayed)
                                 .Int("horizon_skips", row.horizon_skips)
                                 .Num("recover_ms", row.recover_ms)
                                 .Int("faults_injected", row.faults_injected)
                                 .Int("io_retries", row.io_retries));
  }
  std::printf(
      "\nexpected shape: without checkpoints the log and the replay grow\n"
      "with the run; partition-local checkpoints bound them to the suffix\n"
      "since the last visit without a whole-pool flush stall (tps should\n"
      "stay close to off). With DORADB_DATA_DIR set, seg_files stays small\n"
      "and recover_ms is a real second-lifetime reopen from disk.\n"
      "checked: the checkpoint mode ran checkpoints (ckpts>0) and, with\n"
      "DORADB_DATA_DIR set, deleted segment files (unlinked>0): %s\n",
      failed ? "FAILED" : "ok");
  BenchJson::Default().Emit("fig_restart_time");
  return failed ? 1 : 0;
}
