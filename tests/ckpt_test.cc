// Checkpoint subsystem (src/ckpt/) tests: partition-local fuzzy
// checkpoints, checkpoint-driven log truncation, bounded restart, the
// per-record CRC (corrupted-middle detection), and the DORA pipelined
// commit finalized without a durable wait.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "log/recovery.h"
#include "plog/partitioned_log_manager.h"
#include "util/rng.h"

namespace doradb {
namespace {

Database::Options PlogDb(uint32_t parts = 4, uint64_t interval_us = 20) {
  Database::Options o;
  o.buffer_frames = 512;
  o.log_backend = LogBackendKind::kPartitioned;
  o.log_partitions = parts;
  o.log.flush_interval_us = interval_us;
  o.lock.wait_timeout_us = 300000;
  return o;
}

// Fresh (pre-wiped) per-test data directory for file-backed durability.
std::string TempDataDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "doradb_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Commit `n` single-row inserts, scattering records across partitions.
std::vector<Rid> CommitInserts(Database* db, TableId table, int n,
                               const std::string& prefix) {
  std::vector<Rid> rids;
  for (int i = 0; i < n; ++i) {
    db->log_manager()->BindThisThread(static_cast<uint32_t>(i));
    auto txn = db->Begin();
    Rid rid;
    EXPECT_TRUE(db->Insert(txn.get(), table, prefix + std::to_string(i),
                           &rid, AccessOptions::Baseline()).ok());
    EXPECT_TRUE(db->Commit(txn.get()).ok());
    rids.push_back(rid);
  }
  return rids;
}

// ----------------------------------------- partition-local checkpoints

TEST(CkptTest, PartitionCheckpointTruncatesItsStream) {
  Database db(PlogDb(/*parts=*/2));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  CommitInserts(&db, table, 20, "r");
  db.log_manager()->WaitFlushed(db.log_manager()->current_lsn());
  const size_t before = db.log_manager()->stable_size();
  ASSERT_GT(before, 0u);

  ASSERT_TRUE(db.CheckpointPartition(0).ok());
  ASSERT_TRUE(db.CheckpointPartition(1).ok());

  EXPECT_GT(db.log_manager()->reclaimed_bytes(), 0u)
      << "quiescent system: everything below the horizon must be reclaimed";
  // What survives: the two checkpoint records (one per partition) and
  // whatever trailed the first checkpoint's horizon snapshot.
  const auto recs = db.log_manager()->ReadStable();
  size_t ckpts = 0;
  for (const auto& r : recs) {
    if (r.type == LogType::kCheckpointPart) {
      ++ckpts;
      EXPECT_NE(r.redo_horizon, kInvalidLsn);
    }
  }
  EXPECT_EQ(ckpts, 2u);
  EXPECT_LT(db.log_manager()->stable_size(), before)
      << "the stable log must shrink, not only stop growing";
}

TEST(CkptTest, ActiveTxnPinsTheHorizon) {
  Database db(PlogDb(/*parts=*/2));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  const std::vector<Rid> rids = CommitInserts(&db, table, 4, "base");

  // An in-flight transaction with an un-durable update: its records sit
  // below any later horizon candidate, so truncation must hold back.
  auto open = db.Begin();
  ASSERT_TRUE(db.Update(open.get(), table, rids[0], "uncommitted",
                        AccessOptions::Baseline()).ok());

  ASSERT_TRUE(db.CheckpointPartition(0).ok());
  ASSERT_TRUE(db.CheckpointPartition(1).ok());

  // The open transaction's whole chain must still be in the stable log +
  // volatile tail; crashing now must roll it back cleanly.
  db.SimulateCrash();
  db.txn_manager()->Finish(open.get());  // the crash forgot it
  ASSERT_TRUE(db.Recover(nullptr).ok());
  std::string out;
  ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[0], &out).ok());
  EXPECT_EQ(out, "base0") << "loser update spanning a checkpoint must undo";
}

TEST(CkptTest, RecoveryConsumesRedoHorizon) {
  Database db(PlogDb(/*parts=*/4));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  const std::vector<Rid> rids = CommitInserts(&db, table, 30, "v");

  // Two full sweeps: the first flushes every partition's pages (each visit
  // can only raise the horizon as far as the still-dirty pages of later
  // visits allow), the second reclaims every stream up to a clean-pool
  // horizon.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(db.CheckpointPartition(p).ok());
    }
  }

  // A little post-checkpoint tail so redo has something real to do.
  db.log_manager()->BindThisThread(1);
  auto txn = db.Begin();
  ASSERT_TRUE(db.Update(txn.get(), table, rids[0], "tail",
                        AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db.Commit(txn.get()).ok());

  db.SimulateCrash();
  RecoveryDriver driver(&db);
  ASSERT_TRUE(driver.Run(nullptr).ok());
  EXPECT_NE(driver.stats().redo_start, kInvalidLsn);
  // Bounded restart: the 30 pre-checkpoint inserts (and their begin/
  // commit/end chatter) were truncated away — the scan is the
  // un-checkpointed suffix, not history.
  EXPECT_LT(driver.stats().records_scanned, 30u);
  std::string out;
  ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[0], &out).ok());
  EXPECT_EQ(out, "tail");
  for (int i = 1; i < 30; ++i) {
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, "v" + std::to_string(i));
  }
}

TEST(CkptTest, SustainedRunKeepsLogBounded) {
  // The acceptance shape: under a sustained update stream with round-robin
  // partition checkpoints, the stable log stops growing with history.
  constexpr uint32_t kParts = 2;
  Database db(PlogDb(kParts));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  const std::vector<Rid> rids = CommitInserts(&db, table, 8, "b");

  size_t high_water = 0;
  uint32_t next_part = 0;
  for (int round = 0; round < 12; ++round) {
    for (int t = 0; t < 25; ++t) {
      db.log_manager()->BindThisThread(
          static_cast<uint32_t>(round + t));
      auto txn = db.Begin();
      ASSERT_TRUE(db.Update(txn.get(), table, rids[t % 8],
                            "r" + std::to_string(round) + "t" +
                                std::to_string(t),
                            AccessOptions::Baseline()).ok());
      ASSERT_TRUE(db.Commit(txn.get()).ok());
    }
    ASSERT_TRUE(db.CheckpointPartition(next_part++ % kParts).ok());
    high_water = std::max(high_water, db.log_manager()->stable_size());
  }
  // One more full sweep drains the remaining suffix; the bound claim is on
  // the steady state, not any instantaneous peak.
  ASSERT_TRUE(db.CheckpointPartition(0).ok());
  ASSERT_TRUE(db.CheckpointPartition(1).ok());
  EXPECT_GT(db.log_manager()->reclaimed_bytes(),
            db.log_manager()->stable_size())
      << "most of the history must have been reclaimed";
  // 12 rounds x 25 txns: an unbounded log would hold ~300 update chains;
  // the bounded one holds at most the few rounds between checkpoints.
  EXPECT_LT(db.log_manager()->stable_size(), high_water);
}

TEST(CkptTest, BackgroundDaemonRunsConcurrentlyWithWriters) {
  // Quiescence-free operation: the daemon checkpoints while writer threads
  // keep committing. Everything must stay consistent, and a crash after
  // the run must recover every acknowledged commit.
  Database::Options opts = PlogDb(/*parts=*/4);
  opts.checkpoint.enabled = true;
  // Small segments, so the 480 updates cross the daemon's trigger.
  opts.log_segment_bytes = 4096;
  Database db(opts);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  constexpr int kRows = 16;
  const std::vector<Rid> rids = CommitInserts(&db, table, kRows, "i");

  constexpr int kThreads = 4, kPerThread = 120;
  // Each writer commits at least kPerThread updates and keeps going until
  // the daemon has finished a checkpoint (up to 20x as many), so the check
  // below does not race the daemon's first visit against a write phase of
  // a few milliseconds on a loaded host.
  constexpr int kMaxPerThread = 20 * kPerThread;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      db.log_manager()->BindThisThread(static_cast<uint32_t>(w));
      for (int i = 0; i < kMaxPerThread; ++i) {
        if (i >= kPerThread && db.checkpointer()->stats().checkpoints > 0) {
          break;
        }
        auto txn = db.Begin();
        const int row = (w * kPerThread + i) % kRows;
        if (!db.Update(txn.get(), table, rids[row],
                       "w" + std::to_string(w) + "i" + std::to_string(i),
                       AccessOptions::Baseline()).ok() ||
            !db.Commit(txn.get()).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(db.checkpointer()->stats().checkpoints, 0u)
      << "the daemon must have checkpointed during the run";

  db.SimulateCrash();
  ASSERT_TRUE(db.Recover(nullptr).ok());
  EXPECT_TRUE(db.checkpointer()->running())
      << "recovery must restart the daemon";
  // Every commit was acknowledged (synchronous Commit), so every row must
  // hold the last writer's value for that row.
  for (int row = 0; row < kRows; ++row) {
    std::string out;
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[row], &out).ok());
    EXPECT_FALSE(out.empty());
  }
}

TEST(CkptTest, TruncatedCommitDoesNotTurnWinnerIntoLoser) {
  // Regression: per-partition truncation can reclaim a winner's commit
  // record from one partition while its update record survives in another
  // whose truncation point lags. Analysis must not classify that
  // transaction as a loser — its last surviving record sits below the redo
  // horizon, which proves it was decided before the checkpoint — or
  // recovery would roll back an acknowledged commit.
  Database db(PlogDb(/*parts=*/2, /*interval_us=*/1000000));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  Rid rid;
  db.log_manager()->BindThisThread(0);
  {
    auto setup = db.Begin();
    ASSERT_TRUE(db.Insert(setup.get(), table, "base", &rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(setup.get()).ok());
  }

  // Transaction A: update lands in partition 0, commit in partition 1.
  auto a = db.Begin();
  ASSERT_TRUE(db.Update(a.get(), table, rid, "winner",
                        AccessOptions::Baseline()).ok());
  db.log_manager()->BindThisThread(1);
  ASSERT_TRUE(db.Commit(a.get()).ok());

  // Transaction B re-dirties the page from partition 1, so checkpointing
  // partition 1 flushes it and raises the horizon past A's commit.
  auto b = db.Begin();
  ASSERT_TRUE(db.Update(b.get(), table, rid, "winner2",
                        AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db.Commit(b.get()).ok());
  ASSERT_TRUE(db.CheckpointPartition(1).ok());

  // The poisonous shape: A's commit record truncated, its update alive.
  bool a_commit_alive = false, a_update_alive = false;
  for (const auto& rec : db.log_manager()->ReadStable()) {
    if (rec.txn != a->id()) continue;
    if (rec.type == LogType::kCommit) a_commit_alive = true;
    if (rec.type == LogType::kUpdate) a_update_alive = true;
  }
  ASSERT_FALSE(a_commit_alive) << "test setup: commit must be truncated";
  ASSERT_TRUE(a_update_alive) << "test setup: update must survive";

  db.SimulateCrash();
  RecoveryDriver driver(&db);
  ASSERT_TRUE(driver.Run(nullptr).ok());
  EXPECT_GE(driver.stats().cleared_by_horizon, 1u);
  EXPECT_EQ(driver.stats().undo_applied, 0u)
      << "nothing may be undone: every surviving commit-less txn was "
         "decided before the checkpoint";
  std::string out;
  ASSERT_TRUE(db.catalog()->Heap(table)->Get(rid, &out).ok());
  EXPECT_EQ(out, "winner2");
}

TEST(CkptTest, RedoToleratesInsertFlushedBeforeItsStamp) {
  // Regression: Database::Insert applies the physical insert before its
  // log record exists (the RID must be known to log it). The checkpoint
  // daemon or an eviction can flush the page inside that window, leaving
  // the tuple on disk under a stale page LSN. Redo then finds the slot
  // already occupied; it must accept the identical occupant and advance
  // the stamp, not fail the whole restart with Corruption.
  Database db(PlogDb(/*parts=*/2));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  HeapFile* heap = db.catalog()->Heap(table);

  // Replay Database::Insert's steps with a flush wedged into the window.
  auto txn = db.Begin();
  Rid rid;
  ASSERT_TRUE(heap->Insert("tuple", &rid).ok());       // physical, unstamped
  ASSERT_TRUE(db.buffer_pool()->FlushPage(rid.page_id).ok());  // the window
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.txn = txn->id();
  rec.table = table;
  rec.rid = rid;
  rec.after = "tuple";
  txn->PinUndoLow(db.log_manager()->current_lsn());
  txn->ChainAppend(db.log_manager(), &rec);
  ASSERT_TRUE(heap->StampPageLsn(rid.page_id, rec.lsn).ok());
  ASSERT_TRUE(db.Commit(txn.get()).ok());

  db.SimulateCrash();
  ASSERT_TRUE(db.Recover(nullptr).ok())
      << "an occupied slot holding the record's own image must not fail "
         "restart";
  std::string out;
  ASSERT_TRUE(db.catalog()->Heap(table)->Get(rid, &out).ok());
  EXPECT_EQ(out, "tuple");
}

// ------------------------------------------- durable restart (two lifetimes)

TEST(CkptTest, TwoLifetimeReopenRecoversCommittedState) {
  const std::string dir = TempDataDir("two_lifetime");
  Database::Options opts = PlogDb(/*parts=*/2);
  opts.data_dir = dir;
  opts.log_segment_bytes = 2048;
  TableId table;

  // Lifetime 1: commit 30 rows, checkpoint (truncating + unlinking),
  // update a few rows, then crash and DESTROY the database — nothing
  // in-memory survives into the next lifetime.
  {
    Database db(opts);
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
    CommitInserts(&db, table, 30, "v");
    for (int sweep = 0; sweep < 2; ++sweep) {
      ASSERT_TRUE(db.CheckpointPartition(0).ok());
      ASSERT_TRUE(db.CheckpointPartition(1).ok());
    }
    EXPECT_GT(db.log_manager()->reclaimed_bytes(), 0u);
    db.log_manager()->BindThisThread(1);
    auto txn = db.Begin();
    Rid r0{};
    // Rows were inserted with ids scattered; re-find row 0 by re-reading
    // the first insert's rid via a fresh scan is overkill — update via a
    // second insert instead: one more committed row post-checkpoint.
    ASSERT_TRUE(db.Insert(txn.get(), table, "tail", &r0,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
    db.SimulateCrash();
  }

  // Lifetime 2: reopen from the directory, recover, verify, extend. The
  // schema is NOT re-created — the durable catalog restores it before
  // Recover() runs.
  {
    Database db(opts);
    ASSERT_EQ(db.catalog()->num_tables(), 1u)
        << "catalog.db must restore the schema at construction";
    ASSERT_NE(db.catalog()->GetTable("t"), nullptr);
    table = db.catalog()->GetTable("t")->id;
    ASSERT_TRUE(db.Recover(nullptr).ok());
    EXPECT_EQ(db.catalog()->Heap(table)->record_count(), 31u)
        << "all committed rows must be rebuilt from disk alone";
    size_t tails = 0, values = 0;
    ASSERT_TRUE(db.catalog()
                    ->Heap(table)
                    ->Scan([&](const Rid&, std::string_view rec) {
                      if (rec == "tail") ++tails;
                      if (rec.rfind("v", 0) == 0) ++values;
                      return true;
                    })
                    .ok());
    EXPECT_EQ(tails, 1u) << "the post-checkpoint commit must survive";
    EXPECT_EQ(values, 30u) << "checkpointed history must survive truncation";

    // Extend state, then CLEAN shutdown (no crash) for lifetime 3.
    auto txn = db.Begin();
    Rid rid;
    ASSERT_TRUE(db.Insert(txn.get(), table, "lifetime2", &rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
  }

  // Lifetime 3: a clean shutdown must also reopen consistently — again
  // with no schema re-creation.
  {
    Database db(opts);
    ASSERT_NE(db.catalog()->GetTable("t"), nullptr);
    table = db.catalog()->GetTable("t")->id;
    ASSERT_TRUE(db.Recover(nullptr).ok());
    EXPECT_EQ(db.catalog()->Heap(table)->record_count(), 32u);
  }
}

TEST(CkptTest, ReopenWithEagerIndexRootsDoesNotReuseLoggedPageIds) {
  // Regression: a reopened lifetime replays its catalog BEFORE Recover,
  // and CreateIndex eagerly allocates a B+Tree root page. The dead
  // lifetime's heap pages can sit beyond pages.db EOF (acked on WAL only,
  // never flushed), so a naive allocator would hand the root one of those
  // logged page ids — and redo would re-Init the frame as a heap page,
  // clobbering the root. The Database constructor must raise the page
  // allocator past every page id the recovered log references before the
  // catalog replay runs.
  // The collision needs pages.db EOF to sit strictly between the flushed
  // pages and the dead lifetime's allocation frontier: big rows (few per
  // page), a checkpoint mid-run (flushes the pages so far = the EOF),
  // then more inserts allocating pages past it that reach only the WAL.
  const std::string dir = TempDataDir("index_root");
  Database::Options opts = PlogDb(/*parts=*/2);
  opts.data_dir = dir;
  TableId table;
  IndexId index;
  auto row_value = [](int i) {
    return "row" + std::to_string(i) + "|" + std::string(3000, 'x');
  };
  auto row_key = [](std::string_view rec) {
    return "k" + std::string(rec.substr(3, rec.find('|') - 3));
  };
  constexpr int kRows = 12;
  std::vector<Rid> rids;
  {
    Database db(opts);
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
    ASSERT_TRUE(
        db.catalog()->CreateIndex(table, "t_pk", true, false, &index).ok());
    auto insert_rows = [&](int from, int to) {
      for (int i = from; i < to; ++i) {
        auto txn = db.Begin();
        Rid rid;
        ASSERT_TRUE(db.Insert(txn.get(), table, row_value(i), &rid,
                              AccessOptions::Baseline()).ok());
        ASSERT_TRUE(db.IndexInsert(txn.get(), index,
                                   "k" + std::to_string(i),
                                   IndexEntry{rid, 0, false}).ok());
        ASSERT_TRUE(db.Commit(txn.get()).ok());
        rids.push_back(rid);
      }
    };
    insert_rows(0, 4);
    ASSERT_TRUE(db.CheckpointPartition(0).ok());  // EOF = pages so far
    ASSERT_TRUE(db.CheckpointPartition(1).ok());
    insert_rows(4, kRows);  // fresh pages past EOF, WAL-only
    db.SimulateKill();
  }
  Database db(opts);
  // The catalog replay re-creates the schema inside the constructor; the
  // eager B+Tree root it allocates would be handed the first page id past
  // pages.db EOF — a WAL-only heap page — without the allocator bump,
  // which the constructor performs BEFORE the replay.
  ASSERT_NE(db.catalog()->GetTable("t"), nullptr);
  table = db.catalog()->GetTable("t")->id;
  ASSERT_NE(db.catalog()->GetIndex("t_pk"), nullptr);
  index = db.catalog()->GetIndex("t_pk")->id;
  ASSERT_TRUE(db.Recover([&](Database* d) {
    // Schema-aware index rebuild, as a workload would do.
    return d->catalog()->Heap(table)->Scan(
        [&](const Rid& rid, std::string_view rec) {
          (void)d->catalog()->Index(index)->Insert(
              row_key(rec), IndexEntry{rid, 0, false});
          return true;
        });
  }).ok());
  for (int i = 0; i < kRows; ++i) {
    std::string out;
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, row_value(i));
    IndexEntry entry;
    ASSERT_TRUE(db.catalog()
                    ->Index(index)
                    ->Probe("k" + std::to_string(i), &entry)
                    .ok())
        << "index root must not have been clobbered by redo (key k" << i
        << ")";
    EXPECT_EQ(entry.rid, rids[i]);
  }
}

TEST(CkptTest, CentralFileBackendReopenRecovers) {
  const std::string dir = TempDataDir("central_reopen");
  Database::Options opts;  // central log: one shared partition
  opts.buffer_frames = 256;
  opts.log.flush_interval_us = 20;
  opts.data_dir = dir;
  opts.log_segment_bytes = 2048;
  TableId table;
  std::vector<Rid> rids;
  {
    Database db(opts);
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
    rids = CommitInserts(&db, table, 20, "c");
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_GT(db.log_manager()->reclaimed_bytes(), 0u);
    db.SimulateCrash();
  }
  Database db(opts);
  // Central log, same contract: schema restored from catalog.db.
  ASSERT_NE(db.catalog()->GetTable("t"), nullptr);
  table = db.catalog()->GetTable("t")->id;
  ASSERT_TRUE(db.Recover(nullptr).ok());
  for (int i = 0; i < 20; ++i) {
    std::string out;
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, "c" + std::to_string(i));
  }
  // LSN allocation must have resumed past the recovered stream.
  auto txn = db.Begin();
  Rid rid;
  ASSERT_TRUE(db.Insert(txn.get(), table, "fresh", &rid,
                        AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db.Commit(txn.get()).ok());
  std::string out;
  ASSERT_TRUE(db.catalog()->Heap(table)->Get(rid, &out).ok());
  EXPECT_EQ(out, "fresh");
}

// ------------------------------------------- volume-triggered cadence

TEST(CkptTest, AdaptivePickFollowsStableLogGrowth) {
  Database::Options opts = PlogDb(/*parts=*/4, /*interval_us=*/1000000);
  opts.log_segment_bytes = 512;
  Database db(opts);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  const std::vector<Rid> rids = CommitInserts(&db, table, 4, "b");
  // Settle: checkpoint every partition so the baselines reflect the
  // setup traffic.
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(db.CheckpointPartition(p).ok());
  }

  // Make partition 2 hot: all appends bound there.
  db.log_manager()->BindThisThread(2);
  for (int i = 0; i < 10; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Update(txn.get(), table, rids[0],
                          "hot" + std::to_string(i),
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
  }
  EXPECT_EQ(db.checkpointer()->PickPartition(), std::optional<uint32_t>(2))
      << "the daemon must visit the partition whose stable log grew";

  ASSERT_TRUE(db.CheckpointPartition(2).ok());
  const auto visits = db.checkpointer()->partition_visits();
  ASSERT_EQ(visits.size(), 4u);
  EXPECT_GE(visits[2], 2u);
  // Post-visit baseline reset + idle system: nothing is due, so the
  // daemon visits nobody rather than rotating through idle partitions.
  EXPECT_EQ(db.checkpointer()->PickPartition(), std::nullopt)
      << "an idle system gets no visit";
}

TEST(CkptTest, DaemonWaitsForASegmentOfLog) {
  constexpr size_t kSegment = 16 << 10;
  Database::Options opts = PlogDb(/*parts=*/2);
  opts.checkpoint.enabled = true;
  opts.log_segment_bytes = kSegment;
  Database db(opts);
  db.log_manager()->BindThisThread(0);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  Rid rid;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Insert(txn.get(), table, "base", &rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
  }
  const std::string value(200, 'v');
  auto update = [&] {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Update(txn.get(), table, rid, value,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
  };

  // Well below one segment of growth: many poll periods pass, no visit.
  while (db.log_manager()->PartitionStableSize(0) < kSegment / 4) update();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(db.checkpointer()->stats().checkpoints, 0u)
      << "no checkpoint may run below one segment of log growth";

  // Past one segment: the next polls must visit.
  while (db.log_manager()->PartitionStableSize(0) < 2 * kSegment) update();
  for (int i = 0; i < 500 && db.checkpointer()->stats().checkpoints == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(db.checkpointer()->stats().checkpoints, 0u)
      << "one segment of growth must trigger a checkpoint";
  EXPECT_GT(db.checkpointer()->partition_visits()[0], 0u);
}

TEST(CkptTest, ColdPartitionDoesNotPinTruncation) {
  // Partition 1 dirties one page once and goes quiet; partition 0 writes
  // many segments. Partition 1 never grows by a segment, so only the
  // pinning rule ever visits it — without that rule its dirty page holds
  // partition 0's horizon, and partition 0's log, back for good.
  constexpr size_t kSegment = 2048;
  Database::Options opts = PlogDb(/*parts=*/2, /*interval_us=*/1000000);
  opts.log_segment_bytes = kSegment;
  Database db(opts);
  TableId hot, cold;
  ASSERT_TRUE(db.catalog()->CreateTable("hot", &hot).ok());
  ASSERT_TRUE(db.catalog()->CreateTable("cold", &cold).ok());
  db.log_manager()->BindThisThread(0);
  Rid hot_rid;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Insert(txn.get(), hot, "base", &hot_rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
  }
  db.log_manager()->BindThisThread(1);
  {
    auto txn = db.Begin();
    Rid rid;
    ASSERT_TRUE(db.Insert(txn.get(), cold, "cold", &rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
  }

  // Partition 0 writes about 30 segments; after each batch the daemon's
  // trigger is polled a few times, as a daemon faster than the writers
  // would.
  db.log_manager()->BindThisThread(0);
  ckpt::CheckpointCoordinator* ckpt = db.checkpointer();
  const std::string value(100, 'h');
  size_t peak = 0;
  for (int batch = 0; batch < 60; ++batch) {
    for (int i = 0; i < 4; ++i) {
      auto txn = db.Begin();
      ASSERT_TRUE(db.Update(txn.get(), hot, hot_rid, value,
                            AccessOptions::Baseline()).ok());
      ASSERT_TRUE(db.Commit(txn.get()).ok());
    }
    for (int poll = 0; poll < 3; ++poll) {
      const std::optional<uint32_t> due = ckpt->PickPartition();
      if (!due) break;
      ASSERT_TRUE(ckpt->CheckpointPartition(*due).ok());
    }
    peak = std::max(peak, db.log_manager()->PartitionStableSize(0));
  }
  EXPECT_GT(db.log_manager()->reclaimed_bytes(), 20 * kSegment);
  EXPECT_GE(ckpt->partition_visits()[1], 1u)
      << "the cold partition must be visited to lift its pin";
  // Bounded by a few segments: the trigger's one segment, the visit that
  // finds truncation stuck, and the segment grown before the next visit.
  // Without the pinning rule it reaches about 30.
  EXPECT_LE(peak, 6 * kSegment)
      << "partition 0's stable log must stay bounded";
}

// ------------------------------------------------ global mode + central

TEST(CkptTest, GlobalCheckpointOnCentralBackendTruncates) {
  Database::Options opts;  // central log: one shared partition
  opts.buffer_frames = 256;
  opts.log.flush_interval_us = 20;
  Database db(opts);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  const std::vector<Rid> rids = CommitInserts(&db, table, 25, "c");
  db.log_manager()->WaitFlushed(db.log_manager()->current_lsn());
  const size_t before = db.log_manager()->stable_size();

  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_GT(db.log_manager()->reclaimed_bytes(), 0u);
  EXPECT_LT(db.log_manager()->stable_size(), before);

  db.SimulateCrash();
  ASSERT_TRUE(db.Recover(nullptr).ok());
  for (int i = 0; i < 25; ++i) {
    std::string out;
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, "c" + std::to_string(i));
  }
}

// --------------------------------------------------- per-record CRC32

TEST(CkptTest, CrcDetectsCorruptedMiddleInPartitionStream) {
  plog::PartitionedLogManager::Options o;
  o.num_partitions = 1;
  o.log.flush_interval_us = 1000000;
  plog::PartitionedLogManager log{o};
  log.BindThisThread(0);
  for (int i = 0; i < 8; ++i) {
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.txn = 1;
    rec.after = std::string(40, static_cast<char>('a' + i));
    log.Append(&rec);
  }
  log.WaitFlushed(log.current_lsn());
  ASSERT_EQ(log.ReadStable().size(), 8u);

  // Flip a byte deep inside the stream (record ~4 of 8): a length-field
  // scan would sail past it; the CRC must stop the decode there.
  log.partition(0)->FlipStableByte(log.partition(0)->stable_size() / 2);
  const auto recs = log.ReadStable();
  EXPECT_LT(recs.size(), 8u) << "decode must stop at the corruption";
  EXPECT_GT(recs.size(), 0u) << "the clean prefix must survive";
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].after, std::string(40, static_cast<char>('a' + i)));
  }
}

TEST(CkptTest, CorruptedMiddleBoundsRecoveryNotJustTornTail) {
  // End-to-end: corruption in one partition's stable middle behaves like a
  // (detected) torn tail — the merged recovery horizon drops to the last
  // clean record, and recovery still replays a consistent committed
  // prefix instead of trusting garbage.
  Database db(PlogDb(/*parts=*/2, /*interval_us=*/1000000));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  const std::vector<Rid> rids = CommitInserts(&db, table, 12, "x");
  db.log_manager()->WaitFlushed(db.log_manager()->current_lsn());

  db.log_manager()->partition(0)->FlipStableByte(
      db.log_manager()->partition(0)->stable_size() * 3 / 4);
  db.SimulateCrash();
  ASSERT_TRUE(db.Recover(nullptr).ok());
  // Rows whose chains sit entirely below the corruption point survive;
  // every readable row holds exactly what was committed (no garbage).
  size_t present = 0;
  for (int i = 0; i < 12; ++i) {
    std::string out;
    if (db.catalog()->Heap(table)->Get(rids[i], &out).ok()) {
      EXPECT_EQ(out, "x" + std::to_string(i));
      ++present;
    }
  }
  EXPECT_GT(present, 0u);
}

// ------------------------------------------- DORA inline commit acks

TEST(CkptTest, InlineAckFastPathCompletesWithoutDaemonRoundTrip) {
  Database::Options opts = PlogDb(/*parts=*/2);
  opts.log.synchronous = true;  // horizon covers every GSN at append time
  Database db(opts);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  Rid rid;
  {
    auto setup = db.Begin();
    ASSERT_TRUE(db.Insert(setup.get(), table, "0", &rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(setup.get()).ok());
  }

  dora::DoraEngine engine(&db);
  engine.RegisterTable(table, 64, 2);
  engine.Start();
  constexpr int kTxns = 60;
  for (int t = 0; t < kTxns; ++t) {
    auto dtxn = engine.BeginTxn();
    dtxn->AddPhase().AddAction(table, 0, dora::LocalMode::kX,
                               [&](dora::ActionEnv& env) {
                                 std::string cur;
                                 Status s = env.db->Read(env.txn, table, rid,
                                                         &cur,
                                                         AccessOptions::NoCc());
                                 if (!s.ok()) return s;
                                 return env.db->Update(
                                     env.txn, table, rid,
                                     std::to_string(std::stoi(cur) + 1),
                                     AccessOptions::NoCc());
                               });
    ASSERT_TRUE(engine.Run(dtxn).ok());
  }
  engine.Stop();
  EXPECT_EQ(engine.txns_committed(), static_cast<uint64_t>(kTxns));
  EXPECT_EQ(engine.txns_acked_inline(), static_cast<uint64_t>(kTxns))
      << "with a synchronous log every pipelined commit must ack inline";

  db.SimulateCrash();
  ASSERT_TRUE(db.Recover(nullptr).ok());
  std::string out;
  auto txn = db.Begin();
  ASSERT_TRUE(
      db.Read(txn.get(), table, rid, &out, AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db.Commit(txn.get()).ok());
  EXPECT_EQ(out, std::to_string(kTxns));
}

}  // namespace
}  // namespace doradb
