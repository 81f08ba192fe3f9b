// Storage fault-injection tests: the three-tier error policy end to end.
//
//  1. Transient pwrite errors (ENOSPC/EIO once, short writes) are retried
//     or continued away — the commit succeeds and the engine stays healthy.
//  2. A failed fsync poisons the stream permanently (fsyncgate): the
//     in-flight commit fails indeterminate, later logged commits fail
//     Unavailable, reads and read-only commits keep serving, and /healthz
//     turns 503 — while every commit acked BEFORE the fault survives a
//     reopen over the same directory.
//  3. Torn writes (media died mid-record) are trimmed by recovery on both
//     WAL backends: after reopen no acked commit is lost.
//  4. A failed open degrades instead of aborting the process.
//  5. A failed page write-back keeps the page dirty and resident, so reads
//     never fall back to a stale disk image.
//  6. A randomized chaos crash loop arms arbitrary fault plans across
//     process lifetimes and checks the durability contract each time.
//
// EngineHealth and FaultInjector are process singletons: every test resets
// the injector on exit (guard below), and each Database construction
// resets the health latch, so tests stay independent inside one binary.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "obs/health.h"
#include "obs/watchdog.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/sync_stats.h"

namespace doradb {
namespace {

std::string TempFaultDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "doradb_fault_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Disarm on every exit path so a failing assertion cannot leak an armed
// plan into the next test.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::Default().Reset(); }
  ~InjectorGuard() { FaultInjector::Default().Reset(); }
};

Database::Options DurableOpts(const std::string& dir, LogBackendKind kind,
                              uint32_t parts = 2) {
  Database::Options o;
  o.buffer_frames = 512;
  o.data_dir = dir;
  o.log_backend = kind;
  o.log_partitions = parts;
  // Long flusher naps keep I/O commit-driven, so Arm() between synchronous
  // commits happens at a quiesced moment, as its contract requires.
  o.log.flush_interval_us = 200000;
  o.log_segment_bytes = 4096;
  return o;
}

FaultPlan WalPlan(FaultOp op, FaultMode mode = FaultMode::kError,
                  int err = EIO, bool sticky = false, uint64_t nth = 1) {
  FaultPlan p;
  p.op = op;
  p.mode = mode;
  p.err = err;
  p.sticky = sticky;
  p.nth = nth;
  p.path_substr = "seg-";  // WAL segment files only
  return p;
}

Status CommitValue(Database* db, TableId table, const Rid& rid,
                   const std::string& value) {
  auto txn = db->Begin();
  const Status u =
      db->Update(txn.get(), table, rid, value, AccessOptions::Baseline());
  if (!u.ok()) {
    (void)db->Abort(txn.get());
    return u;
  }
  return db->Commit(txn.get());
}

// ------------------------------------------------ tier 1: transient errors

TEST(FaultTest, TransientPwriteErrorIsRetriedAway) {
  InjectorGuard guard;
  const std::string dir = TempFaultDir("transient_enospc");
  auto db = std::make_unique<Database>(
      DurableOpts(dir, LogBackendKind::kPartitioned));
  db->log_manager()->BindThisThread(0);
  TableId table;
  ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());
  Rid rid;
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn.get(), table, "base", &rid,
                           AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }

  // One ENOSPC on the next WAL pwrite; the bounded-retry loop re-issues
  // the write and the commit must still succeed with the engine healthy.
  FaultInjector::Default().Arm(
      WalPlan(FaultOp::kPwrite, FaultMode::kError, ENOSPC));
  ASSERT_TRUE(CommitValue(db.get(), table, rid, "v-after-enospc").ok());
  EXPECT_EQ(FaultInjector::Default().injected(), 1u);
  EXPECT_GE(obs::EngineHealth::Default().io_retries(), 1u);
  EXPECT_FALSE(obs::EngineHealth::Default().degraded());

  std::string out;
  ASSERT_TRUE(db->catalog()->Heap(table)->Get(rid, &out).ok());
  EXPECT_EQ(out, "v-after-enospc");
}

TEST(FaultTest, ShortWriteIsContinuedNotFailed) {
  InjectorGuard guard;
  const std::string dir = TempFaultDir("short_write");
  auto db = std::make_unique<Database>(
      DurableOpts(dir, LogBackendKind::kPartitioned));
  db->log_manager()->BindThisThread(0);
  TableId table;
  ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());
  Rid rid;
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn.get(), table, "base", &rid,
                           AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }

  // pwrite lands half the batch and returns the count: a correct caller
  // continues from the written prefix without burning a retry attempt.
  FaultInjector::Default().Arm(
      WalPlan(FaultOp::kPwrite, FaultMode::kShortWrite));
  ASSERT_TRUE(CommitValue(db.get(), table, rid, "v-after-short").ok());
  EXPECT_EQ(FaultInjector::Default().injected(), 1u);
  EXPECT_EQ(obs::EngineHealth::Default().io_errors(), 0u);
  EXPECT_FALSE(obs::EngineHealth::Default().degraded());
}

// --------------------------------- tier 2 + 3: fsyncgate poison + degrade

TEST(FaultTest, StickyFsyncFailureDegradesAndPreservesAckedCommits) {
  InjectorGuard guard;
  const std::string dir = TempFaultDir("sticky_fsync");
  const Database::Options opts =
      DurableOpts(dir, LogBackendKind::kPartitioned);
  auto db = std::make_unique<Database>(opts);
  db->log_manager()->BindThisThread(0);
  TableId table;
  ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());

  constexpr int kRows = 4;
  std::vector<Rid> rids(kRows);
  {
    auto txn = db->Begin();
    for (int r = 0; r < kRows; ++r) {
      ASSERT_TRUE(db->Insert(txn.get(), table, "base", &rids[r],
                             AccessOptions::Baseline()).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  for (int r = 0; r < kRows; ++r) {
    ASSERT_TRUE(
        CommitValue(db.get(), table, rids[r], "acked-" + std::to_string(r))
            .ok());
  }

  // Every WAL fdatasync from here on fails: fsyncgate. The in-flight
  // commit's durability wait fails — its outcome is indeterminate, so the
  // engine must not claim it aborted cleanly, only fail it typed.
  FaultInjector::Default().Arm(WalPlan(FaultOp::kFdatasync, FaultMode::kError,
                                       EIO, /*sticky=*/true));
  const Status first = CommitValue(db.get(), table, rids[0], "maybe-0");
  EXPECT_FALSE(first.ok());
  EXPECT_TRUE(obs::EngineHealth::Default().degraded());
  EXPECT_GE(obs::EngineHealth::Default().io_errors(), 1u);

  // Degraded entry: later logged commits fail fast with Unavailable and
  // roll back — they never reach the poisoned stream.
  const Status next = CommitValue(db.get(), table, rids[1], "never-1");
  EXPECT_TRUE(next.IsUnavailable()) << next.ToString();

  // Reads and read-only commits keep serving.
  {
    auto ro = db->Begin();
    std::string out;
    EXPECT_TRUE(db->Read(ro.get(), table, rids[2], &out,
                         AccessOptions::Baseline()).ok());
    EXPECT_EQ(out, "acked-2");
    EXPECT_TRUE(db->Commit(ro.get()).ok());
  }

  // The watchdog folds the latch into its verdict: /healthz serves this
  // Check() result as 503, and the counters ride the same snapshot.
  obs::Watchdog::Health h = obs::Watchdog::Default().Check();
  EXPECT_FALSE(h.ok);
  EXPECT_TRUE(h.degraded);
  EXPECT_GE(h.io_errors, 1u);
  EXPECT_NE(h.ToJson().find("\"health_state\":1"), std::string::npos);
  EXPECT_NE(db->Metrics().ToJson().find("engine.health_state"),
            std::string::npos);

  // Kill the lifetime, heal the medium, reopen: every commit acked before
  // the fault must be there; rids[0] may also hold the indeterminate
  // value (its commit record may have reached the medium).
  db->SimulateKill();
  db.reset();
  FaultInjector::Default().Reset();
  db = std::make_unique<Database>(opts);
  ASSERT_TRUE(db->catalog_load_status().ok());
  ASSERT_TRUE(db->Recover(nullptr).ok());
  EXPECT_FALSE(obs::EngineHealth::Default().degraded())
      << "fresh lifetime over healed media must start healthy";
  table = db->catalog()->GetTable("t")->id;
  for (int r = 0; r < kRows; ++r) {
    std::string out;
    ASSERT_TRUE(db->catalog()->Heap(table)->Get(rids[r], &out).ok());
    if (r == 0) {
      EXPECT_TRUE(out == "acked-0" || out == "maybe-0") << out;
    } else {
      EXPECT_EQ(out, "acked-" + std::to_string(r));
    }
  }
}

// ------------------------------ a failed seal during checkpoint truncation

size_t SegmentFilesIn(const std::string& dir) {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("seg-", 0) == 0) ++n;
  }
  return n;
}

uint64_t StreamFsyncs(uint32_t stream) {
  for (const auto& row : DurabilityStats::Snapshot()) {
    if (row.stream == stream) {
      return row.counts[static_cast<size_t>(DurabilityCounter::kFsyncCalls)];
    }
  }
  return 0;
}

TEST(FaultTest, FailedSealDuringReclaimStillSyncsTheUnlinks) {
  InjectorGuard guard;
  const std::string dir = TempFaultDir("reclaim_seal");
  Database::Options opts = DurableOpts(dir, LogBackendKind::kPartitioned);
  opts.log_segment_bytes = 512;  // roll every few commits
  // The checkpoint below must not truncate: the test reclaims by hand,
  // with the fault armed.
  opts.checkpoint.truncate = false;
  auto db = std::make_unique<Database>(opts);
  db->log_manager()->BindThisThread(1);
  TableId table;
  ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());
  constexpr int kRows = 4;
  std::vector<Rid> rids(kRows);
  {
    auto txn = db->Begin();
    for (int r = 0; r < kRows; ++r) {
      ASSERT_TRUE(db->Insert(txn.get(), table, "base", &rids[r],
                             AccessOptions::Baseline()).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CommitValue(db.get(), table, rids[i % kRows],
                            "acked-" + std::to_string(i))
                    .ok());
  }
  const std::string stream_dir = dir + "/plog-1";
  ASSERT_GT(SegmentFilesIn(stream_dir), 1u) << "partition 1 must have rolled";

  // A commit and then a global checkpoint from partition 0: both land in
  // partition 0's stream, so all of partition 1 — sealed segments and the
  // active one — lies below the horizon.
  db->log_manager()->BindThisThread(0);
  {
    auto txn = db->Begin();
    Rid rid;
    ASSERT_TRUE(db->Insert(txn.get(), table, "p0", &rid,
                           AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  const Lsn horizon = db->checkpointer()->last_horizon();

  // Reclaim partition 1: the sealed segments are detached, then sealing
  // the active segment fails its fdatasync and poisons the stream.
  FaultPlan plan = WalPlan(FaultOp::kFdatasync);
  plan.path_substr = "plog-1/seg-";
  FaultInjector::Default().Arm(plan);
  const uint64_t fsyncs_before = StreamFsyncs(1);
  db->log_manager()->ReclaimPartitionBelow(1, horizon);
  EXPECT_EQ(FaultInjector::Default().injected(), 1u);
  EXPECT_GT(db->log_manager()->reclaimed_bytes(), 0u);
  EXPECT_EQ(SegmentFilesIn(stream_dir), 1u)
      << "the sealed segments go; the unsealed active one stays";
  EXPECT_EQ(StreamFsyncs(1) - fsyncs_before, 1u)
      << "the unlinks must be made durable by a directory fsync";
  EXPECT_TRUE(obs::EngineHealth::Default().degraded());
  db->log_manager()->BindThisThread(1);
  const Status s = CommitValue(db.get(), table, rids[0], "never");
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();

  // Kill, heal, reopen: every acknowledged commit is there.
  db->SimulateKill();
  db.reset();
  FaultInjector::Default().Reset();
  db = std::make_unique<Database>(opts);
  ASSERT_TRUE(db->catalog_load_status().ok());
  ASSERT_TRUE(db->Recover(nullptr).ok());
  table = db->catalog()->GetTable("t")->id;
  for (int r = 0; r < kRows; ++r) {
    std::string out;
    ASSERT_TRUE(db->catalog()->Heap(table)->Get(rids[r], &out).ok());
    EXPECT_EQ(out, "acked-" + std::to_string(16 + r));
  }
}

// ------------------------------------------- torn writes across a reopen

void TornWriteThenReopen(LogBackendKind kind, const std::string& tag) {
  InjectorGuard guard;
  const std::string dir = TempFaultDir("torn_" + tag);
  const Database::Options opts = DurableOpts(dir, kind);
  auto db = std::make_unique<Database>(opts);
  db->log_manager()->BindThisThread(0);
  TableId table;
  ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());
  Rid rid;
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn.get(), table, "base", &rid,
                           AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  ASSERT_TRUE(CommitValue(db.get(), table, rid, "acked").ok());

  // Sticky torn writes: every WAL pwrite lands a prefix and then reports
  // the media dead, so the retry loop cannot heal it — the stream poisons
  // with a torn record physically on disk.
  FaultInjector::Default().Arm(WalPlan(FaultOp::kPwrite, FaultMode::kTorn,
                                       EIO, /*sticky=*/true));
  const Status s = CommitValue(db.get(), table, rid, "torn");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(obs::EngineHealth::Default().degraded());

  // Kill, heal, reopen: recovery must trim the torn tail and land on a
  // state no older than the last acked commit.
  db->SimulateKill();
  db.reset();
  FaultInjector::Default().Reset();
  db = std::make_unique<Database>(opts);
  ASSERT_TRUE(db->catalog_load_status().ok());
  ASSERT_TRUE(db->Recover(nullptr).ok());
  table = db->catalog()->GetTable("t")->id;
  std::string out;
  ASSERT_TRUE(db->catalog()->Heap(table)->Get(rid, &out).ok());
  EXPECT_TRUE(out == "acked" || out == "torn")
      << tag << ": row holds '" << out << "', older than its acked write";
}

TEST(FaultTest, TornWriteRecoveredOnReopenCentral) {
  TornWriteThenReopen(LogBackendKind::kCentral, "central");
}

TEST(FaultTest, TornWriteRecoveredOnReopenPartitioned) {
  TornWriteThenReopen(LogBackendKind::kPartitioned, "plog");
}

// ------------------------------------------------ open faults never abort

TEST(FaultTest, OpenFaultDegradesInsteadOfAborting) {
  InjectorGuard guard;
  const std::string dir = TempFaultDir("open_fault");
  // The page store cannot open: the Database must come up degraded — not
  // call std::abort, and not silently fall back to memory pages.
  FaultPlan plan;
  plan.op = FaultOp::kOpen;
  plan.err = EIO;
  plan.sticky = true;
  plan.path_substr = "pages.db";
  FaultInjector::Default().Arm(plan);

  auto db = std::make_unique<Database>(
      DurableOpts(dir, LogBackendKind::kPartitioned));
  db->log_manager()->BindThisThread(0);
  EXPECT_TRUE(obs::EngineHealth::Default().degraded());

  // Logged work fails typed, somewhere between the operation and the
  // commit; nothing crashes and teardown is clean.
  TableId table;
  const Status create = db->catalog()->CreateTable("t", &table);
  if (create.ok()) {
    auto txn = db->Begin();
    Rid rid;
    Status s = db->Insert(txn.get(), table, "x", &rid,
                          AccessOptions::Baseline());
    if (s.ok()) s = db->Commit(txn.get());
    else (void)db->Abort(txn.get());
    EXPECT_FALSE(s.ok());
  }
  db.reset();  // destructor must tolerate the born-poisoned store
}

// ------------------------------------- failed page write-backs never lose

TEST(FaultTest, FailedEvictionWriteBackKeepsCommittedUpdateVisible) {
  InjectorGuard guard;
  const std::string dir = TempFaultDir("evict_writeback");
  Database::Options opts = DurableOpts(dir, LogBackendKind::kPartitioned);
  opts.buffer_frames = 16;
  auto db = std::make_unique<Database>(opts);
  db->log_manager()->BindThisThread(0);
  TableId table;
  ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());

  // 200 rows of ~1 KB span far more heap pages than the pool has frames.
  constexpr int kRows = 200;
  const std::string pad(1000, 'p');
  std::vector<Rid> rids(kRows);
  {
    auto txn = db->Begin();
    for (int r = 0; r < kRows; ++r) {
      ASSERT_TRUE(db->Insert(txn.get(), table, "old" + pad, &rids[r],
                             AccessOptions::Baseline()).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(CommitValue(db.get(), table, rids[0], "new" + pad).ok());

  // Every page write fails from here on. Reading the other rows forces
  // evictions; the dirty page holding row 0 cannot be written back and
  // must stay resident rather than be dropped for its stale disk image.
  FaultPlan plan;
  plan.op = FaultOp::kPwrite;
  plan.err = EIO;
  plan.sticky = true;
  plan.path_substr = "pages.db";
  FaultInjector::Default().Arm(plan);
  const uint64_t evictions = db->buffer_pool()->evictions();
  std::string out;
  for (int r = 1; r < kRows; ++r) {
    ASSERT_TRUE(db->catalog()->Heap(table)->Get(rids[r], &out).ok());
  }
  EXPECT_GT(db->buffer_pool()->evictions(), evictions);
  EXPECT_GE(FaultInjector::Default().injected(), 1u)
      << "the dirty page was never offered for write-back";

  const Status s = db->catalog()->Heap(table)->Get(rids[0], &out);
  if (s.ok()) {
    EXPECT_EQ(out.substr(0, 3), "new") << "committed update lost from reads";
  } else {
    EXPECT_FALSE(s.IsNotFound()) << s.ToString();
  }
  db->SimulateKill();  // the medium is still failing; skip the final flush
}

// ------------------------------------------------------- chaos crash loop

// Randomized fault plans armed mid-round across process lifetimes; after
// every kill + heal + reopen, each row must hold a value at least as
// recent as its last acknowledged (Commit() returned OK) write.
void ChaosCrashLoop(LogBackendKind kind, uint64_t seed) {
  InjectorGuard guard;
  Rng rng(seed * 0xA24BAED4963EE407ull + 17);
  const std::string dir = TempFaultDir(
      "chaos_" + std::to_string(static_cast<int>(kind)) + "_" +
      std::to_string(seed));
  constexpr uint32_t kPartitions = 2;
  constexpr int kRows = 6;
  constexpr int kTxnsPerRound = 18;
  constexpr int kRounds = 3;
  const Database::Options opts = DurableOpts(dir, kind, kPartitions);
  auto db = std::make_unique<Database>(opts);
  db->log_manager()->BindThisThread(0);
  TableId table;
  ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());

  std::vector<Rid> rids(kRows);
  {
    auto setup = db->Begin();
    for (int r = 0; r < kRows; ++r) {
      ASSERT_TRUE(db->Insert(setup.get(), table, "base", &rids[r],
                             AccessOptions::Baseline()).ok());
    }
    ASSERT_TRUE(db->Commit(setup.get()).ok());
  }

  struct Write {
    std::string value;
    bool acked;
  };
  std::vector<std::vector<Write>> history(kRows, {{"base", true}});

  for (int round = 0; round < kRounds; ++round) {
    // Arm one random fault plan at a random point in the round. Between
    // synchronous commits the WAL is quiescent (long flusher naps), which
    // is the Arm() contract.
    const int arm_at =
        static_cast<int>(rng.UniformInt(uint64_t{1}, kTxnsPerRound - 1));
    for (int t = 0; t < kTxnsPerRound; ++t) {
      if (t == arm_at) {
        const uint64_t pick = rng.UniformInt(uint64_t{0}, 2);
        const FaultOp op =
            pick == 2 ? FaultOp::kFdatasync : FaultOp::kPwrite;
        const FaultMode mode =
            pick == 1 ? FaultMode::kTorn : FaultMode::kError;
        FaultInjector::Default().Arm(WalPlan(
            op, mode, rng.Percent(50) ? EIO : ENOSPC,
            /*sticky=*/rng.Percent(50),
            /*nth=*/rng.UniformInt(uint64_t{1}, 4)));
      }
      const int row = static_cast<int>(
          rng.UniformInt(uint64_t{0}, uint64_t{kRows - 1}));
      db->log_manager()->BindThisThread(static_cast<uint32_t>(
          rng.UniformInt(uint64_t{0}, kPartitions - 1)));
      const std::string value = "s" + std::to_string(seed) + "r" +
                                std::to_string(round) + "t" +
                                std::to_string(t);
      auto txn = db->Begin();
      const Status u = db->Update(txn.get(), table, rids[row], value,
                                  AccessOptions::Baseline());
      if (!u.ok()) {
        (void)db->Abort(txn.get());
        continue;  // rolled back: not even a candidate value
      }
      history[row].push_back(Write{value, false});
      const Status c = db->Commit(txn.get());
      if (c.ok()) history[row].back().acked = true;
      // !ok: aborted or indeterminate — the value stays an unacked
      // candidate either way (rollback can't undo past an acked commit).
    }

    // Kill this lifetime mid-whatever, heal the medium, open the next.
    db->SimulateKill();
    db.reset();
    FaultInjector::Default().Reset();
    db = std::make_unique<Database>(opts);
    db->log_manager()->BindThisThread(0);
    ASSERT_TRUE(db->catalog_load_status().ok())
        << db->catalog_load_status().ToString();
    ASSERT_NE(db->catalog()->GetTable("t"), nullptr);
    table = db->catalog()->GetTable("t")->id;
    ASSERT_TRUE(db->Recover(nullptr).ok());
    EXPECT_FALSE(obs::EngineHealth::Default().degraded());

    for (int row = 0; row < kRows; ++row) {
      std::string out;
      ASSERT_TRUE(db->catalog()->Heap(table)->Get(rids[row], &out).ok());
      const auto& h = history[row];
      size_t last_acked = 0;
      for (size_t i = 0; i < h.size(); ++i) {
        if (h[i].acked) last_acked = i;
      }
      bool found = false;
      for (size_t i = last_acked; i < h.size(); ++i) {
        if (h[i].value == out) {
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "seed " << seed << " round " << round << " row "
                         << row << " holds '" << out
                         << "', older than its last acked write '"
                         << h[last_acked].value << "'";
      history[row] = {{out, true}};
    }
  }
}

TEST(FaultChaosTest, CrashLoopNoAckedCommitLostPartitioned) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    ChaosCrashLoop(LogBackendKind::kPartitioned, seed);
  }
}

TEST(FaultChaosTest, CrashLoopNoAckedCommitLostCentral) {
  ChaosCrashLoop(LogBackendKind::kCentral, 1);
}

// --------------------- crash straddling a routing migration (satellite)
//
// MigrateRoutingRule publishes the new assignment in memory first and only
// then writes it through catalog.db. A kill inside that window must leave
// the next lifetime with EXACTLY one of the two assignments — the old one
// when the write-through failed, the new one once it succeeded — never a
// blend, and never at the cost of an acknowledged commit. Alternate rounds
// make the catalog unwritable (sticky open fault) before migrating, then
// kill and reopen.

TEST(FaultChaosTest, CrashDuringMigrationAdoptsExactlyOneRule) {
  InjectorGuard guard;
  const std::string dir = TempFaultDir("migration_crash");
  const Database::Options opts =
      DurableOpts(dir, LogBackendKind::kPartitioned);
  constexpr uint64_t kKeySpace = 1000;
  constexpr int kRounds = 6;

  Rid rid;
  {
    auto db = std::make_unique<Database>(opts);
    db->log_manager()->BindThisThread(0);
    TableId table;
    ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());
    dora::DoraEngine engine(db.get());
    engine.RegisterTable(table, kKeySpace, /*executors=*/2);
    ASSERT_TRUE(engine.registration_status().ok())
        << engine.registration_status().ToString();
    auto setup = db->Begin();
    ASSERT_TRUE(db->Insert(setup.get(), table, "base", &rid,
                           AccessOptions::Baseline())
                    .ok());
    ASSERT_TRUE(db->Commit(setup.get()).ok());
    db->SimulateKill();
  }

  // What catalog.db durably holds vs. what the last migration published
  // in memory. They start identical (the uniform two-way assignment).
  dora::RoutingRule persisted;
  persisted.boundaries = {kKeySpace / 2};
  persisted.executor_of_dataset = {0, 1};
  persisted.version = 0;
  dora::RoutingRule published = persisted;
  std::string acked = "base";

  for (int round = 0; round < kRounds; ++round) {
    auto db = std::make_unique<Database>(opts);
    db->log_manager()->BindThisThread(0);
    ASSERT_TRUE(db->catalog_load_status().ok())
        << db->catalog_load_status().ToString();
    ASSERT_TRUE(db->Recover(nullptr).ok());
    ASSERT_NE(db->catalog()->GetTable("t"), nullptr);
    const TableId table = db->catalog()->GetTable("t")->id;

    // Durability first: the previous lifetime's acked value survived.
    std::string out;
    ASSERT_TRUE(db->catalog()->Heap(table)->Get(rid, &out).ok());
    ASSERT_EQ(out, acked) << "round " << round << " lost an acked commit";

    dora::DoraEngine engine(db.get());
    ASSERT_EQ(engine.RegisterFromCatalog(), 1u);
    const auto adopted = engine.routing_of(table)->Current();
    const bool is_old = adopted->version == persisted.version &&
                        adopted->boundaries == persisted.boundaries;
    const bool is_new = adopted->version == published.version &&
                        adopted->boundaries == published.boundaries;
    ASSERT_TRUE(is_old || is_new)
        << "round " << round << ": adopted v" << adopted->version
        << " matches neither the pre- nor the post-migration assignment";
    if (published.version != persisted.version) {
      // Last round's write-through failed: the published-but-unpersisted
      // split must have died with the process.
      EXPECT_TRUE(is_old) << "round " << round;
      EXPECT_FALSE(is_new) << "round " << round;
    }
    engine.Start();

    // One acked commit before the migration window opens.
    const std::string value = "r" + std::to_string(round);
    ASSERT_TRUE(CommitValue(db.get(), table, rid, value).ok());
    acked = value;

    const bool fault = round % 2 == 1;
    if (fault) {
      FaultPlan p;
      p.op = FaultOp::kOpen;
      p.mode = FaultMode::kError;
      p.err = EIO;
      p.sticky = true;
      p.path_substr = "catalog.db";
      FaultInjector::Default().Arm(p);
    }
    auto rule = std::make_shared<dora::RoutingRule>();
    rule->boundaries = {round % 2 == 0 ? kKeySpace / 4
                                       : (3 * kKeySpace) / 4};
    rule->executor_of_dataset = {0, 1};
    rule->version = adopted->version + 1;
    const Status mig = engine.MigrateRoutingRule(table, rule);
    if (fault) {
      EXPECT_FALSE(mig.ok())
          << "write-through must fail while catalog.db is unwritable";
      // Publication precedes the write-through, so the new rule is live
      // in memory all the same — the kill below is what discards it.
      EXPECT_EQ(engine.routing_of(table)->Current()->version,
                rule->version);
      published = *rule;  // persisted stays at the old assignment
    } else {
      ASSERT_TRUE(mig.ok()) << mig.ToString();
      persisted = *rule;
      published = *rule;
    }
    FaultInjector::Default().Reset();
    engine.Stop();
    db->SimulateKill();
  }
}

}  // namespace
}  // namespace doradb
