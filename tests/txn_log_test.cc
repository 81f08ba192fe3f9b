// Transaction protocol + WAL + restart-recovery tests: commit durability,
// abort rollback (heap and index), ghost deletes, CLRs, crash recovery with
// winners and losers, and log-record serialization.

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "log/recovery.h"
#include "storage/btree.h"

namespace doradb {
namespace {

plog::LogOptions SyncLog() {
  plog::LogOptions o;
  o.synchronous = false;
  o.flush_interval_us = 20;
  return o;
}

Database::Options SmallDb() {
  Database::Options o;
  o.buffer_frames = 512;
  o.log = SyncLog();
  o.lock.wait_timeout_us = 300000;
  return o;
}

// ------------------------------------------------------------ log records

TEST(LogRecordTest, SerializeRoundTrip) {
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.txn = 42;
  rec.lsn = 1000;
  rec.prev_lsn = 900;
  rec.table = 3;
  rec.rid = Rid{7, 9};
  rec.before = "old-image";
  rec.after = "new-image";
  rec.undo_next = 800;
  std::vector<uint8_t> buf;
  rec.SerializeTo(&buf);

  size_t off = 0;
  LogRecord out;
  ASSERT_TRUE(LogRecord::DeserializeFrom(buf, &off, &out));
  EXPECT_EQ(out.type, LogType::kUpdate);
  EXPECT_EQ(out.txn, 42u);
  EXPECT_EQ(out.lsn, 1000u);
  EXPECT_EQ(out.prev_lsn, 900u);
  EXPECT_EQ(out.table, 3);
  EXPECT_EQ(out.rid, (Rid{7, 9}));
  EXPECT_EQ(out.before, "old-image");
  EXPECT_EQ(out.after, "new-image");
  EXPECT_EQ(out.undo_next, 800u);
  EXPECT_EQ(off, buf.size());
}

TEST(LogRecordTest, TornTailRejected) {
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.after = std::string(100, 'x');
  std::vector<uint8_t> buf;
  rec.SerializeTo(&buf);
  buf.resize(buf.size() - 10);  // simulate a torn write
  size_t off = 0;
  LogRecord out;
  EXPECT_FALSE(LogRecord::DeserializeFrom(buf, &off, &out));
}

TEST(LogRecordTest, CheckpointCarriesActiveTxns) {
  LogRecord rec;
  rec.type = LogType::kCheckpoint;
  rec.active_txns = {1, 5, 9};
  std::vector<uint8_t> buf;
  rec.SerializeTo(&buf);
  size_t off = 0;
  LogRecord out;
  ASSERT_TRUE(LogRecord::DeserializeFrom(buf, &off, &out));
  EXPECT_EQ(out.active_txns, (std::vector<TxnId>{1, 5, 9}));
}

// ----------------------------------------- the central (one-partition) log

// The central log: one partition every thread appends through.
LogBackend::Options OnePartition(const plog::LogOptions& log) {
  LogBackend::Options o;
  o.num_partitions = 1;
  o.log = log;
  return o;
}

TEST(OnePartitionLogTest, AppendAssignsMonotoneLsns) {
  LogBackend log{OnePartition(SyncLog())};
  LogRecord a, b;
  a.type = b.type = LogType::kBegin;
  log.Append(&a);
  log.Append(&b);
  EXPECT_LT(a.lsn, b.lsn);
}

TEST(OnePartitionLogTest, WaitFlushedMakesDurable) {
  LogBackend log{OnePartition(SyncLog())};
  LogRecord rec;
  rec.type = LogType::kCommit;
  rec.txn = 1;
  const Lsn end = log.Append(&rec);
  log.WaitFlushed(end);
  EXPECT_GE(log.flushed_lsn(), end);
  const auto recs = log.ReadStable();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, LogType::kCommit);
}

TEST(OnePartitionLogTest, DiscardVolatileTailLosesUnflushed) {
  plog::LogOptions o;
  o.flush_interval_us = 1000000;  // effectively never auto-flush
  LogBackend log{OnePartition(o)};
  LogRecord a;
  a.type = LogType::kBegin;
  a.txn = 1;
  const Lsn end = log.Append(&a);
  log.WaitFlushed(end);  // force a flush: record a is stable
  LogRecord b;
  b.type = LogType::kCommit;
  b.txn = 1;
  log.Append(&b);  // NOT flushed
  log.DiscardVolatileTail();
  const auto recs = log.ReadStable();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, LogType::kBegin);
}

TEST(OnePartitionLogTest, ConcurrentAppendersKeepRecordsIntact) {
  LogBackend log{OnePartition(SyncLog())};
  ASSERT_EQ(log.num_partitions(), 1u);
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // A DORA executor's binding: with one partition every hint lands on
      // the shared latch.
      log.BindThisThread(static_cast<uint32_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        LogRecord rec;
        rec.type = LogType::kUpdate;
        rec.txn = static_cast<TxnId>(t + 1);
        rec.after = std::string(16, static_cast<char>('a' + t));
        log.Append(&rec);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.partition(0)->appends(),
            static_cast<uint64_t>(kThreads * kPerThread));
  log.WaitFlushed(log.current_lsn());
  const auto recs = log.ReadStable();
  EXPECT_EQ(recs.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const auto& r : recs) {
    ASSERT_EQ(r.after.size(), 16u);
    EXPECT_EQ(r.after[0], static_cast<char>('a' + (r.txn - 1)));
  }
}

// ----------------------------------------------------------- transactions

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : db_(SmallDb()) {
    EXPECT_TRUE(db_.catalog()->CreateTable("t", &table_).ok());
    EXPECT_TRUE(
        db_.catalog()->CreateIndex(table_, "t_pk", true, false, &index_).ok());
  }

  static std::string Key(uint64_t k) {
    KeyBuilder kb;
    kb.Add64(k);
    return kb.Str();
  }

  Database db_;
  TableId table_;
  IndexId index_;
};

// The active-transaction table the checkpoint snapshots is the lock
// manager's sharded one: num_active and the minimum undo-low pin must
// follow begin -> pin -> finish, across more transactions than shards.
TEST(ActiveTxnTest, SnapshotTracksBeginPinFinish) {
  LockManager lm;
  TxnManager tm(&lm);
  constexpr size_t kTxns = ActiveTxnTable::kShards + 6;
  std::vector<std::unique_ptr<Transaction>> txns;
  for (size_t i = 0; i < kTxns; ++i) txns.push_back(tm.Begin());
  EXPECT_EQ(tm.num_active(), kTxns);
  Lsn min_pin = 0;
  EXPECT_EQ(tm.ActiveTxnSnapshot(&min_pin).size(), kTxns);
  EXPECT_EQ(min_pin, ~Lsn{0}) << "no transaction has pinned yet";

  // Pins in distinct shards; the snapshot reports the smallest.
  txns[3]->PinUndoLow(500);
  txns[40]->PinUndoLow(300);
  txns[kTxns - 1]->PinUndoLow(700);
  tm.ActiveTxnSnapshot(&min_pin);
  EXPECT_EQ(min_pin, 300u);

  // Finishing the minimum's owner releases its pin.
  tm.Finish(txns[40].get());
  std::vector<TxnId> ids = tm.ActiveTxnSnapshot(&min_pin);
  EXPECT_EQ(min_pin, 500u);
  EXPECT_EQ(ids.size(), kTxns - 1);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), txns[40]->id()), 0);
  EXPECT_EQ(tm.num_active(), kTxns - 1);

  for (size_t i = 0; i < kTxns; ++i) {
    if (i != 40) tm.Finish(txns[i].get());
  }
  EXPECT_EQ(tm.num_active(), 0u);
  EXPECT_TRUE(tm.ActiveTxnSnapshot(&min_pin).empty());
  EXPECT_EQ(min_pin, ~Lsn{0});
}

TEST_F(TxnTest, CommitMakesChangesVisible) {
  auto txn = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(txn.get(), table_, "hello", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(txn.get()).ok());

  auto txn2 = db_.Begin();
  std::string out;
  ASSERT_TRUE(db_.Read(txn2.get(), table_, rid, &out,
                       AccessOptions::Baseline()).ok());
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(db_.Commit(txn2.get()).ok());
}

TEST_F(TxnTest, AbortRollsBackInsert) {
  auto txn = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(txn.get(), table_, "ghost", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Abort(txn.get()).ok());
  std::string out;
  EXPECT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).IsNotFound());
}

TEST_F(TxnTest, AbortRollsBackUpdate) {
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "v1", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  auto txn = db_.Begin();
  ASSERT_TRUE(db_.Update(txn.get(), table_, rid, "v2",
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Abort(txn.get()).ok());
  std::string out;
  ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).ok());
  EXPECT_EQ(out, "v1");
}

TEST_F(TxnTest, DeleteIsGhostUntilCommit) {
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "victim", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  auto txn = db_.Begin();
  ASSERT_TRUE(db_.Delete(txn.get(), table_, rid,
                         AccessOptions::Baseline()).ok());
  // The slot is still physically occupied (ghost) until commit.
  std::string out;
  EXPECT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).ok());
  ASSERT_TRUE(db_.Commit(txn.get()).ok());
  EXPECT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).IsNotFound());
}

TEST_F(TxnTest, AbortedDeleteKeepsRecord) {
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "survivor", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  auto txn = db_.Begin();
  ASSERT_TRUE(db_.Delete(txn.get(), table_, rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Abort(txn.get()).ok());
  std::string out;
  ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).ok());
  EXPECT_EQ(out, "survivor");
}

TEST_F(TxnTest, AbortRestoresIndexState) {
  auto txn = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(txn.get(), table_, "rec", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.IndexInsert(txn.get(), index_, Key(1),
                              IndexEntry{rid, 0, false}).ok());
  ASSERT_TRUE(db_.Abort(txn.get()).ok());
  IndexEntry out;
  EXPECT_TRUE(db_.catalog()->Index(index_)->Probe(Key(1), &out).IsNotFound());
}

TEST_F(TxnTest, AbortRestoresRemovedIndexEntry) {
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "rec", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.IndexInsert(setup.get(), index_, Key(5),
                              IndexEntry{rid, 77, false}).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  auto txn = db_.Begin();
  ASSERT_TRUE(db_.IndexRemove(txn.get(), index_, Key(5), rid, 77).ok());
  ASSERT_TRUE(db_.Abort(txn.get()).ok());
  IndexEntry out;
  ASSERT_TRUE(db_.catalog()->Index(index_)->Probe(Key(5), &out).ok());
  EXPECT_EQ(out.aux, 77u);
}

TEST_F(TxnTest, TwoTxnsConflictOnRow) {
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "x", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  auto t1 = db_.Begin();
  ASSERT_TRUE(db_.Update(t1.get(), table_, rid, "y",
                         AccessOptions::Baseline()).ok());
  auto t2 = db_.Begin();
  std::string out;
  // t2's read must wait for t1; with the short timeout it fails instead.
  const Status s = db_.Read(t2.get(), table_, rid, &out,
                            AccessOptions::Baseline());
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(db_.Abort(t2.get()).ok());
  ASSERT_TRUE(db_.Commit(t1.get()).ok());
}

TEST_F(TxnTest, NoCcAccessSkipsLockManager) {
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "x", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  const uint64_t acq_before = db_.lock_manager()->acquires();
  auto txn = db_.Begin();
  std::string out;
  ASSERT_TRUE(
      db_.Read(txn.get(), table_, rid, &out, AccessOptions::NoCc()).ok());
  ASSERT_TRUE(db_.Update(txn.get(), table_, rid, "z",
                         AccessOptions::NoCc()).ok());
  EXPECT_EQ(db_.lock_manager()->acquires(), acq_before)
      << "DORA-style no-CC access must not touch the lock manager";
  ASSERT_TRUE(db_.Commit(txn.get()).ok());
}

// ---------------------------------------------------------------- recovery

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : db_(SmallDb()) {
    EXPECT_TRUE(db_.catalog()->CreateTable("t", &table_).ok());
  }

  Database db_;
  TableId table_;
};

TEST_F(RecoveryTest, CommittedSurviveCrash) {
  std::vector<Rid> rids;
  for (int i = 0; i < 50; ++i) {
    auto txn = db_.Begin();
    Rid rid;
    ASSERT_TRUE(db_.Insert(txn.get(), table_, "rec" + std::to_string(i),
                           &rid, AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db_.Commit(txn.get()).ok());
    rids.push_back(rid);
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover(nullptr).ok());
  for (int i = 0; i < 50; ++i) {
    std::string out;
    ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, "rec" + std::to_string(i));
  }
}

TEST_F(RecoveryTest, UncommittedRolledBackOnRestart) {
  auto setup = db_.Begin();
  Rid stable_rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "stable", &stable_rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  // A loser: updates the stable record and inserts another, then "crashes"
  // with the log flushed but no commit record.
  auto loser = db_.Begin();
  ASSERT_TRUE(db_.Update(loser.get(), table_, stable_rid, "dirty!",
                         AccessOptions::Baseline()).ok());
  Rid loser_rid;
  ASSERT_TRUE(db_.Insert(loser.get(), table_, "loser-insert", &loser_rid,
                         AccessOptions::Baseline()).ok());
  db_.log_manager()->WaitFlushed(db_.log_manager()->current_lsn());
  db_.SimulateCrash();

  ASSERT_TRUE(db_.Recover(nullptr).ok());
  std::string out;
  ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(stable_rid, &out).ok());
  EXPECT_EQ(out, "stable") << "loser update must be undone";
  EXPECT_TRUE(db_.catalog()->Heap(table_)->Get(loser_rid, &out).IsNotFound())
      << "loser insert must be removed";
}

TEST_F(RecoveryTest, CommittedDeleteRedone) {
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "bye", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());
  auto txn = db_.Begin();
  ASSERT_TRUE(db_.Delete(txn.get(), table_, rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(txn.get()).ok());
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover(nullptr).ok());
  std::string out;
  EXPECT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).IsNotFound());
}

TEST_F(RecoveryTest, UncommittedDeleteNotApplied) {
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "keep", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());
  auto txn = db_.Begin();
  ASSERT_TRUE(db_.Delete(txn.get(), table_, rid,
                         AccessOptions::Baseline()).ok());
  db_.log_manager()->WaitFlushed(db_.log_manager()->current_lsn());
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover(nullptr).ok());
  std::string out;
  ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).ok());
  EXPECT_EQ(out, "keep");
}

TEST_F(RecoveryTest, UnflushedCommitIsLost) {
  // A commit whose record never reached the stable log is a loser — this is
  // exactly what group commit's flush-before-ack prevents; here we bypass
  // the wait by writing directly and crashing.
  auto setup = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "base", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  auto txn = db_.Begin();
  ASSERT_TRUE(db_.Update(txn.get(), table_, rid, "newer",
                         AccessOptions::Baseline()).ok());
  // Flush the update but NOT any commit record; then crash.
  db_.log_manager()->WaitFlushed(db_.log_manager()->current_lsn());
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover(nullptr).ok());
  std::string out;
  ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).ok());
  EXPECT_EQ(out, "base");
}

TEST_F(RecoveryTest, IndexRebuiltViaCallback) {
  IndexId index;
  ASSERT_TRUE(
      db_.catalog()->CreateIndex(table_, "pk", true, false, &index).ok());
  auto txn = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(txn.get(), table_, "k1-record", &rid,
                         AccessOptions::Baseline()).ok());
  KeyBuilder kb;
  kb.Add64(1);
  ASSERT_TRUE(db_.IndexInsert(txn.get(), index, kb.View(),
                              IndexEntry{rid, 0, false}).ok());
  ASSERT_TRUE(db_.Commit(txn.get()).ok());
  db_.SimulateCrash();

  bool rebuilt = false;
  ASSERT_TRUE(db_.Recover([&](Database* db) -> Status {
    // Schema-aware rebuild: re-key every heap record (key 1 here).
    rebuilt = true;
    return db->catalog()->Heap(table_)->Scan(
        [&](const Rid&, std::string_view) {
          KeyBuilder kb2;
          kb2.Add64(1);
          // A rebuilt index starts empty in a real restart; here the old
          // in-memory tree persists, so just verify the heap is intact.
          return true;
        });
  }).ok());
  EXPECT_TRUE(rebuilt);
}

TEST_F(RecoveryTest, RepeatedCrashRecoverIsIdempotent) {
  std::vector<Rid> rids;
  for (int i = 0; i < 20; ++i) {
    auto txn = db_.Begin();
    Rid rid;
    ASSERT_TRUE(db_.Insert(txn.get(), table_, "r" + std::to_string(i), &rid,
                           AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db_.Commit(txn.get()).ok());
    rids.push_back(rid);
  }
  for (int round = 0; round < 3; ++round) {
    db_.SimulateCrash();
    ASSERT_TRUE(db_.Recover(nullptr).ok());
  }
  for (int i = 0; i < 20; ++i) {
    std::string out;
    ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, "r" + std::to_string(i));
  }
  EXPECT_EQ(db_.catalog()->Heap(table_)->record_count(), 20u);
}

TEST_F(RecoveryTest, CheckpointThenCrash) {
  auto txn = db_.Begin();
  Rid rid;
  ASSERT_TRUE(db_.Insert(txn.get(), table_, "ckpt", &rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(txn.get()).ok());
  ASSERT_TRUE(db_.Checkpoint().ok());
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover(nullptr).ok());
  std::string out;
  ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rid, &out).ok());
  EXPECT_EQ(out, "ckpt");
}

}  // namespace
}  // namespace doradb
