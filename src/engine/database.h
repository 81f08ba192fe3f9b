// Database: the storage-manager facade tying together buffer pool, catalog,
// lock manager, WAL, and transactions. Mirrors the role Shore-MT plays for
// the paper's prototype (§4.3).
//
// Record operations take AccessOptions, reproducing the paper's Shore-MT
// modification: "We added an additional parameter to the functions which
// read or update records ... This flag instructs Shore-MT to not use
// concurrency control. ... In the case of insert and delete records,
// another flag instructs Shore-MT to acquire only the row-level lock and
// avoid acquiring the whole hierarchy."
//
// Delete semantics: the row is removed from visibility (indexes) inside the
// transaction, but the heap slot is physically freed only after commit
// ("ghost until commit"). This prevents the §4.2.1 slot-reuse conflict at
// the storage level; DORA nonetheless takes the centralized RID lock on
// inserts/deletes exactly as the paper prescribes.

#ifndef DORADB_ENGINE_DATABASE_H_
#define DORADB_ENGINE_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>

#include "ckpt/checkpoint_coordinator.h"
#include "lock/lock_manager.h"
#include "log/log_backend.h"
#include "obs/metrics.h"
#include "obs/obs_server.h"
#include "obs/reporter.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/catalog_store.h"
#include "storage/disk_manager.h"
#include "txn/txn_manager.h"

namespace doradb {

// Concurrency-control flags for one record access.
struct AccessOptions {
  // Acquire hierarchical locks through the centralized lock manager
  // (Baseline behaviour). DORA actions pass false.
  bool use_locks = true;
  // DORA §4.2.1: inserts/deletes acquire only the row (RID) lock, skipping
  // the intention-lock hierarchy.
  bool rid_lock_only = false;
  // Update intent: with use_locks, Read takes the row's X lock (table IX)
  // instead of S, so a read-then-update never converts S to X. Baseline
  // read-modify-write sites set it.
  bool for_update = false;

  static AccessOptions Baseline() { return AccessOptions{true, false}; }
  // DORA probe/update inside an executor: no centralized CC at all.
  static AccessOptions NoCc() { return AccessOptions{false, false}; }
  // DORA insert/delete: centralized RID lock only.
  static AccessOptions RidOnly() { return AccessOptions{false, true}; }
};

// How many partitions the WAL has (runtime-selectable).
enum class LogBackendKind : uint8_t {
  kCentral = 0,      // one partition every thread shares (the paper's §5.4
                     // bottleneck): log_partitions = 1
  kPartitioned = 1,  // log_partitions partitions, one per executor
};

class Database {
 public:
  struct Options {
    size_t buffer_frames = 8192;  // 64 MiB
    LockManager::Options lock;
    plog::LogOptions log;
    LogBackendKind log_backend = LogBackendKind::kCentral;
    // Partition count for LogBackendKind::kPartitioned; size it to the
    // executor count so each executor appends to a private partition.
    uint32_t log_partitions = 4;
    // Fuzzy-checkpoint daemon: partition-local checkpoints + log
    // truncation (src/ckpt/). Off by default; manual Checkpoint calls
    // work regardless.
    ckpt::CheckpointCoordinator::Options checkpoint;
    // Non-empty: durable mode. The WAL's stable streams live in segment
    // files under this directory (log/segment_file.h), the page store
    // becomes `<data_dir>/pages.db`, and the schema lives in
    // `<data_dir>/catalog.db` (storage/catalog_store.h), written through
    // on every DDL. Constructing a Database over a directory a previous
    // lifetime wrote is the reopen path: the log partitions adopt the
    // existing segments (cold start), the catalog is rebuilt from
    // catalog.db — tables, indexes, key schemas, DORA routing config —
    // and Recover() rebuilds committed state from disk alone, with no
    // application-side schema re-creation. Empty (default): both media
    // are in-memory vectors, the seed behaviour.
    std::string data_dir;
    // Segment roll target for the file-backed log streams, and the
    // checkpoint daemon's trigger: a partition is visited once its stable
    // log has grown by this much (in memory too).
    size_t log_segment_bytes = 1 << 20;
    // Nonzero: run a background StatsReporter emitting one
    // "DORADB_STATS {json}" line to stderr per interval (src/obs/). Off by
    // default; benches and quickstart wire it to DORADB_STATS_INTERVAL_MS.
    uint64_t stats_interval_ms = 0;
    // Stall watchdog (obs/watchdog.h): nonzero runs the process-wide
    // watchdog thread at this cadence while the database lives, sweeping
    // the load heatmap and checking heartbeats + progress probes; on an
    // unhealthy verdict it dumps a flight-recorder report under
    // <data_dir>/blackbox/ (memory mode: report rendering only, no file).
    // 0 disables. Benches wire DORADB_WATCHDOG_MS.
    uint64_t watchdog_interval_ms = 250;
    // A heartbeat older than this (non-idle), or a flush horizon stuck
    // with appends outstanding for this long, counts as a stall.
    uint64_t stall_threshold_ms = 2000;
    // Live metrics endpoint (obs/obs_server.h): -1 off (default), 0 binds
    // an ephemeral loopback port (announced as "DORADB_OBS {json}" on
    // stderr), >0 binds that port. Serves /metrics, /heatmap, /healthz.
    int obs_port = -1;
  };

  explicit Database(Options options);
  Database() : Database(Options()) {}
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Unified metrics snapshot (src/obs/): every subsystem's counters,
  // gauges, and latency histograms, aggregated from the process-wide
  // registry. Text via snapshot.ToText(), JSON via snapshot.ToJson(),
  // windowed views via Snapshot::Delta.
  obs::MetricsSnapshot Metrics() const {
    return obs::MetricsRegistry::Default().Snapshot();
  }

  // Port the live metrics endpoint bound, or -1 when disabled / failed.
  int obs_port() const { return obs_server_ == nullptr ? -1 : obs_server_->port(); }

  Catalog* catalog() { return catalog_.get(); }
  LockManager* lock_manager() { return lock_.get(); }
  LogBackend* log_manager() { return log_.get(); }
  TxnManager* txn_manager() { return txns_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  ckpt::CheckpointCoordinator* checkpointer() { return ckpt_.get(); }

  // ---- transaction lifecycle ----

  std::unique_ptr<Transaction> Begin() { return txns_->Begin(); }

  // Every commit in both engines ends in the same two calls, which
  // Commit() makes back to back. A caller may release the transaction's
  // locks between them (DORA's early lock release; see
  // RaiseEarlyReleaseHorizon).
  //
  // CommitAppend appends the commit record, stamps kCommitAppend, and
  // stores in *commit_lsn the LSN/GSN whose durability makes the commit
  // final — without waiting for it. On a degraded engine a logged
  // transaction is rolled back instead (nothing it wrote can become
  // durable) and Unavailable is returned. A read-only transaction (nothing
  // logged) appends nothing: its LSN is the early-release horizon read
  // after its last read, so it is acknowledged only once every commit it
  // could have read from is durable. It counts in "txn.read_only_commits".
  //
  // AwaitCommit waits until `commit_lsn` is stable (group commit), then
  // runs post-commit actions (slot frees, DORA index flagging), writes
  // kEnd for a logged transaction, releases locks, and records
  // "txn.commit_latency_ns" once. A failed durability wait is not an
  // abort: the commit record may have reached the medium, so the outcome
  // is indeterminate until recovery reads the stable log. No post-commit
  // actions, no rollback; locks are released, the handle retired, and the
  // typed error returned.
  Status CommitAppend(Transaction* txn, Lsn* commit_lsn);
  Status AwaitCommit(Transaction* txn, Lsn commit_lsn);
  Status Commit(Transaction* txn);

  // Early lock release: a caller about to release a transaction's locks
  // before its commit LSN `commit_lsn` is durable (DORA's commit path)
  // raises this database's early-release horizon to it first. The horizon
  // is monotonic; any transaction that reads the released data therefore
  // reads a horizon at or above `commit_lsn` afterwards. Paths that hold
  // locks until durability (Database::Commit, the Baseline) never raise
  // it, so their readers commit at once.
  void RaiseEarlyReleaseHorizon(Lsn commit_lsn) {
    Lsn cur = early_release_horizon_.load(std::memory_order_relaxed);
    while (cur < commit_lsn &&
           !early_release_horizon_.compare_exchange_weak(
               cur, commit_lsn, std::memory_order_acq_rel,
               std::memory_order_relaxed)) {
    }
  }

  // Abort: roll back heap ops via the in-memory undo chain (logging CLRs),
  // reverse index ops logically, release locks.
  Status Abort(Transaction* txn);

  // ---- record operations ----

  Status Read(Transaction* txn, TableId table, const Rid& rid,
              std::string* record, const AccessOptions& opts);

  Status Insert(Transaction* txn, TableId table, std::string_view record,
                Rid* rid, const AccessOptions& opts);

  Status Update(Transaction* txn, TableId table, const Rid& rid,
                std::string_view record, const AccessOptions& opts);

  Status Delete(Transaction* txn, TableId table, const Rid& rid,
                const AccessOptions& opts);

  // ---- index maintenance (logical undo tracked per transaction) ----

  Status IndexInsert(Transaction* txn, IndexId index, std::string_view key,
                     const IndexEntry& entry);
  Status IndexRemove(Transaction* txn, IndexId index, std::string_view key,
                     const Rid& rid, uint64_t aux_for_undo);

  // ---- checkpoints, crash & restart ----

  // Global fuzzy checkpoint: flush all logged dirty pages, write one
  // checkpoint record covering every partition, reclaim the log below the
  // resulting redo horizon (when Options::checkpoint.truncate).
  Status Checkpoint();

  // Partition-local fuzzy checkpoint of one log partition: flush only that
  // partition's dirty pages and advance only its truncation point. The
  // background daemon (Options::checkpoint.enabled) walks partitions
  // round-robin calling exactly this.
  Status CheckpointPartition(uint32_t partition);

  // Crash simulation: drop the buffer pool and the volatile log tail.
  // In-flight transactions are forgotten (they become recovery losers);
  // the checkpoint daemon dies with the process (Recover restarts it).
  void SimulateCrash();

  // Kill simulation (durable mode): like SimulateCrash but without the
  // restart-style stable-log truncation — segment files keep their torn
  // tails and stale watermark headers, exactly as a killed process leaves
  // them. Pair with destroying this Database and reopening a new one over
  // the same data_dir to exercise the cold-start recovery path.
  void SimulateKill();

  // ARIES restart: analysis over the stable log, redo of winners' history,
  // undo of losers with CLRs. Heap page lists are rediscovered from the
  // disk image. Indexes are derived state: once the heaps are consistent,
  // every index whose persisted IndexKeySpec can rebuild it is repopulated
  // generically from its heap, then `rebuild_indexes` (optional,
  // schema-aware) runs for indexes with opaque keys. Fails with the
  // catalog's named load error if this Database was opened over a data
  // directory whose catalog.db was corrupt or of a mismatched version —
  // reopen refuses to run rather than misroute over a half-read schema.
  Status Recover(
      const std::function<Status(Database*)>& rebuild_indexes = nullptr);

  // The result of loading + replaying <data_dir>/catalog.db at
  // construction: OK in memory mode, for a fresh directory, or after a
  // clean replay; a named "catalog: ..." error otherwise.
  const Status& catalog_load_status() const { return catalog_status_; }

 private:
  friend class RecoveryDriver;

  // Shared by Commit (deferred deletes) and recovery redo.
  Status PhysicalDelete(TableId table, const Rid& rid, Lsn lsn);

  // The steps of CommitAppend / AwaitCommit: append the commit record (or
  // read the horizon), finalize a durable commit, give up on one whose
  // durability wait failed.
  Lsn CommitAsync(Transaction* txn);
  Status CommitFinalize(Transaction* txn);
  Status CommitIndeterminate(Transaction* txn, Status why);

  // Runs before any member constructs (options_ is the first member):
  // clears the process-wide health latch so a reopen over a previously
  // degraded engine starts healthy — the subsystems built next re-latch it
  // if the medium is still failing.
  static Options ResetHealthThenPass(Options options);

  Options options_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<CatalogStore> catalog_store_;  // durable mode only
  Status catalog_status_;
  // catalog.db was present when this Database opened. False on a fresh
  // directory (an empty catalog is written immediately) and on a
  // pre-catalog or damaged directory (no file to load) — the case
  // Recover()'s missing-catalog guard protects.
  bool catalog_file_found_ = false;
  std::unique_ptr<LockManager> lock_;
  std::unique_ptr<LogBackend> log_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<ckpt::CheckpointCoordinator> ckpt_;

  // Highest commit LSN of any transaction that released its locks before
  // that commit was durable (RaiseEarlyReleaseHorizon).
  std::atomic<Lsn> early_release_horizon_{kInvalidLsn};
  obs::Counter* const read_only_commits_;
  Histogram* const commit_latency_;  // txn.commit_latency_ns

  // Observability: registry callback tokens for this database's subsystem
  // metrics (released in the destructor before the subsystems die) and the
  // optional background reporter (Options::stats_interval_ms).
  std::vector<uint64_t> obs_tokens_;
  std::unique_ptr<obs::StatsReporter> reporter_;
  // Watchdog wiring: one Retain per database (the process-wide thread runs
  // while any retainer lives), plus a progress probe over the group-commit
  // horizon. The endpoint serves the registry/heatmap/watchdog verdict.
  bool watchdog_retained_ = false;
  uint64_t horizon_probe_token_ = 0;
  std::unique_ptr<obs::ObsServer> obs_server_;
};

}  // namespace doradb

#endif  // DORADB_ENGINE_DATABASE_H_
