// Tests for the centralized hierarchical lock manager: mode lattice,
// grant/wait/upgrade protocol, FIFO fairness, intention locks, deadlock
// detection, the per-transaction lock cache, wake-on-grant waits, update-
// intent reads, and multi-threaded stress.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "lock/lock_manager.h"
#include "txn/transaction.h"

namespace doradb {
namespace {

// ------------------------------------------------------------------ LockMode

TEST(LockModeTest, CompatibilityMatrix) {
  using M = LockMode;
  // The classic granularity-of-locks matrix.
  EXPECT_TRUE(Compatible(M::kIS, M::kIS));
  EXPECT_TRUE(Compatible(M::kIS, M::kIX));
  EXPECT_TRUE(Compatible(M::kIS, M::kS));
  EXPECT_TRUE(Compatible(M::kIS, M::kSIX));
  EXPECT_FALSE(Compatible(M::kIS, M::kX));
  EXPECT_TRUE(Compatible(M::kIX, M::kIX));
  EXPECT_FALSE(Compatible(M::kIX, M::kS));
  EXPECT_FALSE(Compatible(M::kIX, M::kSIX));
  EXPECT_FALSE(Compatible(M::kIX, M::kX));
  EXPECT_TRUE(Compatible(M::kS, M::kS));
  EXPECT_FALSE(Compatible(M::kS, M::kSIX));
  EXPECT_FALSE(Compatible(M::kS, M::kX));
  EXPECT_FALSE(Compatible(M::kSIX, M::kSIX));
  EXPECT_FALSE(Compatible(M::kX, M::kX));
}

TEST(LockModeTest, CompatibilityIsSymmetric) {
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      EXPECT_EQ(Compatible(LockMode(a), LockMode(b)),
                Compatible(LockMode(b), LockMode(a)))
          << a << "," << b;
    }
  }
}

TEST(LockModeTest, SupremumLattice) {
  using M = LockMode;
  EXPECT_EQ(Supremum(M::kIS, M::kIX), M::kIX);
  EXPECT_EQ(Supremum(M::kS, M::kIX), M::kSIX);
  EXPECT_EQ(Supremum(M::kIX, M::kS), M::kSIX);
  EXPECT_EQ(Supremum(M::kS, M::kS), M::kS);
  EXPECT_EQ(Supremum(M::kSIX, M::kS), M::kSIX);
  EXPECT_EQ(Supremum(M::kX, M::kIS), M::kX);
}

TEST(LockModeTest, SupremumCoversBothArguments) {
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      const LockMode s = Supremum(LockMode(a), LockMode(b));
      EXPECT_TRUE(Covers(s, LockMode(a)));
      EXPECT_TRUE(Covers(s, LockMode(b)));
    }
  }
}

TEST(LockModeTest, IntentionFor) {
  EXPECT_EQ(IntentionFor(LockMode::kS), LockMode::kIS);
  EXPECT_EQ(IntentionFor(LockMode::kX), LockMode::kIX);
  EXPECT_EQ(IntentionFor(LockMode::kIS), LockMode::kIS);
  EXPECT_EQ(IntentionFor(LockMode::kIX), LockMode::kIX);
}

// --------------------------------------------------------------- LockManager

// Yield until `cond` holds; false if it still fails after 5 s.
template <typename Cond>
bool EventuallyTrue(Cond cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : lm_(FastOptions()) {}

  static LockManager::Options FastOptions() {
    LockManager::Options o;
    o.wait_timeout_us = 300000;  // 300ms backstop for tests
    o.detect_interval_us = 200;
    return o;
  }

  std::unique_ptr<Transaction> MakeTxn(TxnId id) {
    auto t = std::make_unique<Transaction>(id);
    lm_.RegisterTxn(t.get());
    return t;
  }

  void Finish(Transaction* t) {
    lm_.ReleaseAll(t);
    lm_.UnregisterTxn(t->id());
  }

  LockManager lm_;
};

TEST_F(LockManagerTest, SharedLocksCoexist) {
  auto t1 = MakeTxn(1), t2 = MakeTxn(2);
  const LockId id = LockId::Row(0, Rid{1, 1});
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kS).ok());
  ASSERT_TRUE(lm_.Lock(t2.get(), id, LockMode::kS).ok());
  EXPECT_EQ(lm_.GroupModeOf(id), LockMode::kS);
  Finish(t1.get());
  Finish(t2.get());
  EXPECT_EQ(lm_.GroupModeOf(id), LockMode::kNL);
}

TEST_F(LockManagerTest, ExclusiveBlocksShared) {
  auto t1 = MakeTxn(1), t2 = MakeTxn(2);
  const LockId id = LockId::Row(0, Rid{1, 1});
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kX).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    lm_.RegisterTxn(t2.get());
    const Status s = lm_.Lock(t2.get(), id, LockMode::kS);
    granted = s.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load()) << "S must wait for X";
  Finish(t1.get());
  waiter.join();
  EXPECT_TRUE(granted.load()) << "release must wake the waiter";
  Finish(t2.get());
}

TEST_F(LockManagerTest, ReentrantAcquireIsCheap) {
  auto t1 = MakeTxn(1);
  const LockId id = LockId::Table(3);
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kIX).ok());
  const uint64_t before = lm_.acquires();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kIX).ok());
  }
  EXPECT_EQ(lm_.acquires(), before) << "covered re-acquires skip the manager";
  Finish(t1.get());
}

TEST_F(LockManagerTest, UpgradeSToX) {
  auto t1 = MakeTxn(1);
  const LockId id = LockId::Row(0, Rid{2, 2});
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kS).ok());
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kX).ok());
  EXPECT_EQ(lm_.GroupModeOf(id), LockMode::kX);
  EXPECT_EQ(t1->held_count(), 1u) << "upgrade reuses the request";
  Finish(t1.get());
}

TEST_F(LockManagerTest, UpgradeWaitsForOtherReaders) {
  auto t1 = MakeTxn(1), t2 = MakeTxn(2);
  const LockId id = LockId::Row(0, Rid{2, 2});
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kS).ok());
  ASSERT_TRUE(lm_.Lock(t2.get(), id, LockMode::kS).ok());
  std::atomic<bool> upgraded{false};
  std::thread up([&] {
    upgraded = lm_.Lock(t1.get(), id, LockMode::kX).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(upgraded.load());
  Finish(t2.get());
  up.join();
  EXPECT_TRUE(upgraded.load());
  Finish(t1.get());
}

TEST_F(LockManagerTest, FifoFairnessNoWriterStarvation) {
  // S held; X waits; a later S must queue behind the X (FIFO barrier), so
  // after the first S releases, X gets the lock before the late S.
  auto t1 = MakeTxn(1), t2 = MakeTxn(2), t3 = MakeTxn(3);
  const LockId id = LockId::Row(0, Rid{5, 5});
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kS).ok());

  std::atomic<bool> x_granted{false}, s_granted{false};
  std::thread xw([&] { x_granted = lm_.Lock(t2.get(), id, LockMode::kX).ok(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread sw([&] { s_granted = lm_.Lock(t3.get(), id, LockMode::kS).ok(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(x_granted.load());
  EXPECT_FALSE(s_granted.load()) << "late S must not jump the X waiter";

  Finish(t1.get());
  xw.join();
  EXPECT_TRUE(x_granted.load());
  EXPECT_FALSE(s_granted.load());
  Finish(t2.get());
  sw.join();
  EXPECT_TRUE(s_granted.load());
  Finish(t3.get());
}

TEST_F(LockManagerTest, RowLockAcquiresTableIntent) {
  auto t1 = MakeTxn(1);
  ASSERT_TRUE(lm_.LockRow(t1.get(), 7, Rid{1, 0}, LockMode::kX).ok());
  EXPECT_EQ(lm_.GroupModeOf(LockId::Table(7)), LockMode::kIX);
  EXPECT_EQ(lm_.GroupModeOf(LockId::Row(7, Rid{1, 0})), LockMode::kX);
  // Two locks held: table IX + row X.
  EXPECT_EQ(t1->held_count(), 2u);
  Finish(t1.get());
}

TEST_F(LockManagerTest, IntentLocksDoNotConflictAcrossRows) {
  auto t1 = MakeTxn(1), t2 = MakeTxn(2);
  ASSERT_TRUE(lm_.LockRow(t1.get(), 7, Rid{1, 0}, LockMode::kX).ok());
  ASSERT_TRUE(lm_.LockRow(t2.get(), 7, Rid{2, 0}, LockMode::kX).ok());
  EXPECT_EQ(lm_.GroupModeOf(LockId::Table(7)), LockMode::kIX);
  Finish(t1.get());
  Finish(t2.get());
}

TEST_F(LockManagerTest, TableSLockBlocksRowWriter) {
  auto t1 = MakeTxn(1), t2 = MakeTxn(2);
  ASSERT_TRUE(lm_.LockTable(t1.get(), 7, LockMode::kS).ok());
  std::atomic<bool> granted{false};
  std::thread w([&] {
    granted = lm_.LockRow(t2.get(), 7, Rid{1, 0}, LockMode::kX).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load()) << "IX on table must wait for table S";
  Finish(t1.get());
  w.join();
  EXPECT_TRUE(granted.load());
  Finish(t2.get());
}

TEST_F(LockManagerTest, DeadlockDetectedAndVictimAborts) {
  auto t1 = MakeTxn(1), t2 = MakeTxn(2);
  const LockId a = LockId::Row(0, Rid{10, 0});
  const LockId b = LockId::Row(0, Rid{20, 0});
  ASSERT_TRUE(lm_.Lock(t1.get(), a, LockMode::kX).ok());
  ASSERT_TRUE(lm_.Lock(t2.get(), b, LockMode::kX).ok());

  std::atomic<int> deadlocks{0};
  std::atomic<int> grants{0};
  std::thread w1([&] {
    const Status s = lm_.Lock(t1.get(), b, LockMode::kX);
    if (s.IsDeadlock()) {
      deadlocks++;
      Finish(t1.get());  // victim aborts, releasing `a`
    } else if (s.ok()) {
      grants++;
    }
  });
  std::thread w2([&] {
    const Status s = lm_.Lock(t2.get(), a, LockMode::kX);
    if (s.IsDeadlock()) {
      deadlocks++;
      Finish(t2.get());
    } else if (s.ok()) {
      grants++;
    }
  });
  w1.join();
  w2.join();
  EXPECT_GE(deadlocks.load(), 1) << "at least one txn must be the victim";
  EXPECT_GE(lm_.detector().cycles_found() + lm_.timeouts(), 1u);
  // Clean up whichever transaction survived.
  if (t1->held_count() != 0) Finish(t1.get());
  if (t2->held_count() != 0) Finish(t2.get());
}

TEST_F(LockManagerTest, ConversionDeadlockDetected) {
  // Both hold S, both want X: a conversion deadlock.
  auto t1 = MakeTxn(1), t2 = MakeTxn(2);
  const LockId id = LockId::Row(0, Rid{9, 9});
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kS).ok());
  ASSERT_TRUE(lm_.Lock(t2.get(), id, LockMode::kS).ok());
  std::atomic<int> failures{0};
  auto upgrade = [&](Transaction* t) {
    const Status s = lm_.Lock(t, id, LockMode::kX);
    if (!s.ok()) {
      failures++;
      Finish(t);
    }
  };
  std::thread u1([&] { upgrade(t1.get()); });
  std::thread u2([&] { upgrade(t2.get()); });
  u1.join();
  u2.join();
  EXPECT_GE(failures.load(), 1);
  if (t1->held_count() != 0) Finish(t1.get());
  if (t2->held_count() != 0) Finish(t2.get());
}

TEST(LockWaitTest, ConversionDeadlockSurfacesAtBlockTime) {
  // The detector's periodic pass is a second away: only the check a
  // request makes when it blocks can find this cycle in time.
  LockManager::Options o;
  o.detect_interval_us = 1000000;
  o.wait_timeout_us = 5000000;
  LockManager lm(o);
  Transaction t1(1), t2(2);
  lm.RegisterTxn(&t1);
  lm.RegisterTxn(&t2);
  const LockId id = LockId::Row(0, Rid{9, 9});
  ASSERT_TRUE(lm.Lock(&t1, id, LockMode::kS).ok());
  ASSERT_TRUE(lm.Lock(&t2, id, LockMode::kS).ok());
  const auto start = std::chrono::steady_clock::now();
  std::atomic<int> failures{0};
  std::atomic<int64_t> first_failure_us{-1};
  auto upgrade = [&](Transaction* t) {
    if (lm.Lock(t, id, LockMode::kX).ok()) return;
    int64_t expect = -1;
    first_failure_us.compare_exchange_strong(
        expect, std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    failures++;
    lm.ReleaseAll(t);
  };
  std::thread u1([&] { upgrade(&t1); });
  std::thread u2([&] { upgrade(&t2); });
  u1.join();
  u2.join();
  EXPECT_GE(failures.load(), 1);
  EXPECT_GE(lm.deadlocks(), 1u);
  EXPECT_EQ(lm.timeouts(), 0u);
  EXPECT_LT(first_failure_us.load(), 100000) << "found by the block-time check";
  lm.ReleaseAll(&t1);
  lm.ReleaseAll(&t2);
  lm.UnregisterTxn(1);
  lm.UnregisterTxn(2);
}

TEST(LockWaitTest, BlockedWaiterWokenByRelease) {
  // Neither the detector pass nor the timeout can end this wait within
  // the bound: only the grant reaching the parked waiter can.
  LockManager::Options o;
  o.detect_interval_us = 2000000;
  o.wait_timeout_us = 5000000;
  LockManager lm(o);
  Transaction t1(1), t2(2);
  lm.RegisterTxn(&t1);
  lm.RegisterTxn(&t2);
  const LockId id = LockId::Row(0, Rid{5, 5});
  ASSERT_TRUE(lm.Lock(&t1, id, LockMode::kX).ok());
  std::atomic<int64_t> granted_at_us{-1};
  const auto start = std::chrono::steady_clock::now();
  auto since_start_us = [&] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::thread waiter([&] {
    if (lm.Lock(&t2, id, LockMode::kX).ok()) {
      granted_at_us.store(since_start_us());
    }
  });
  EXPECT_TRUE(EventuallyTrue([&] { return lm.waits() == 1; }))
      << "the waiter must block";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  EXPECT_EQ(granted_at_us.load(), -1);
  const int64_t released_at_us = since_start_us();
  lm.ReleaseAll(&t1);
  waiter.join();
  ASSERT_GE(granted_at_us.load(), 0) << "waiter must be granted";
  EXPECT_LT(granted_at_us.load() - released_at_us, 20000);
  EXPECT_EQ(lm.deadlocks(), 0u);
  EXPECT_EQ(lm.timeouts(), 0u);
  lm.ReleaseAll(&t2);
  lm.UnregisterTxn(1);
  lm.UnregisterTxn(2);
}

TEST_F(LockManagerTest, HeldLockLookupManyLocks) {
  constexpr uint32_t kRows = 20000;
  auto t1 = MakeTxn(1);
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(lm_.LockRow(t1.get(), 1, Rid{i, 0}, LockMode::kX).ok());
  }
  EXPECT_EQ(t1->held_count(), kRows + 1);  // rows + table IX
  // Every re-acquire is answered by the lock cache: no new request.
  const uint64_t acquires = lm_.acquires();
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_NE(t1->FindHeld(LockId::Row(1, Rid{i, 0})), nullptr);
    ASSERT_TRUE(lm_.LockRow(t1.get(), 1, Rid{i, 0}, LockMode::kS).ok());
    ASSERT_TRUE(lm_.LockRow(t1.get(), 1, Rid{i, 0}, LockMode::kX).ok());
  }
  EXPECT_EQ(lm_.acquires(), acquires);
  EXPECT_EQ(t1->FindHeld(LockId::Row(1, Rid{kRows, 0})), nullptr);
  EXPECT_EQ(t1->held_count(), kRows + 1);
  Finish(t1.get());
  EXPECT_EQ(t1->held_count(), 0u);
  EXPECT_EQ(t1->FindHeld(LockId::Row(1, Rid{0, 0})), nullptr);
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(lm_.GroupModeOf(LockId::Row(1, Rid{i, 0})), LockMode::kNL);
  }
  EXPECT_EQ(lm_.GroupModeOf(LockId::Table(1)), LockMode::kNL);
}

TEST_F(LockManagerTest, ReleaseAllClearsEverything) {
  auto t1 = MakeTxn(1);
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(lm_.LockRow(t1.get(), 1, Rid{i, 0}, LockMode::kX).ok());
  }
  EXPECT_EQ(t1->held_count(), 51u);  // 50 rows + 1 table IX
  Finish(t1.get());
  EXPECT_EQ(t1->held_count(), 0u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(lm_.GroupModeOf(LockId::Row(1, Rid{i, 0})), LockMode::kNL);
  }
}

TEST_F(LockManagerTest, LockCountersByClass) {
  ThreadStats::Local().Flush();
  const StatsSnapshot before = ThreadStats::Local().Snapshot();
  auto t1 = MakeTxn(1);
  ASSERT_TRUE(lm_.LockRow(t1.get(), 1, Rid{1, 0}, LockMode::kX).ok());
  ASSERT_TRUE(lm_.LockRow(t1.get(), 1, Rid{2, 0}, LockMode::kX).ok());
  const StatsSnapshot delta = ThreadStats::Local().Snapshot() - before;
  EXPECT_EQ(delta.Locks(LockCounter::kRowLevel), 2u);
  EXPECT_EQ(delta.Locks(LockCounter::kHigherLevel), 1u)
      << "table intent acquired once, then cached";
  Finish(t1.get());
}

TEST_F(LockManagerTest, StressManyThreadsDisjointRows) {
  constexpr int kThreads = 8, kIters = 300;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Transaction txn(1000 + t * kIters + i);
        lm_.RegisterTxn(&txn);
        // Each thread locks its own rows: no logical conflicts, pure
        // latch-path exercise.
        for (uint32_t r = 0; r < 4; ++r) {
          if (!lm_.LockRow(&txn, 1, Rid{uint32_t(t * 1000 + r), 0},
                           LockMode::kX).ok()) {
            errors++;
          }
        }
        lm_.ReleaseAll(&txn);
        lm_.UnregisterTxn(txn.id());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(LockManagerTest, StressContendedRowSerializes) {
  constexpr int kThreads = 8, kIters = 200;
  int64_t counter = 0;  // protected by the X lock below
  std::atomic<int> aborts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Transaction txn(5000 + t * kIters + i);
        lm_.RegisterTxn(&txn);
        const Status s = lm_.LockRow(&txn, 2, Rid{42, 0}, LockMode::kX);
        if (s.ok()) {
          counter++;  // data race iff mutual exclusion is broken
        } else {
          aborts++;
        }
        lm_.ReleaseAll(&txn);
        lm_.UnregisterTxn(txn.id());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter + aborts.load(), kThreads * kIters);
}

TEST_F(LockManagerTest, HeadsAreReapedWhenIdle) {
  auto t1 = MakeTxn(1);
  const LockId id = LockId::Row(3, Rid{123, 4});
  ASSERT_TRUE(lm_.Lock(t1.get(), id, LockMode::kX).ok());
  Finish(t1.get());
  // After release the head should be gone; GroupModeOf sees no head.
  EXPECT_EQ(lm_.GroupModeOf(id), LockMode::kNL);
  // Re-acquiring works (head recreated, possibly from the free list).
  auto t2 = MakeTxn(2);
  ASSERT_TRUE(lm_.Lock(t2.get(), id, LockMode::kS).ok());
  Finish(t2.get());
}

// ------------------------------------------------------ update-intent reads

TEST(ForUpdateTest, ForUpdateReadsDoNotConversionDeadlock) {
  // Two read-then-update transactions on one row. With S reads both would
  // hold S and deadlock converting to X; for_update reads queue on X.
  Database::Options opts;
  opts.buffer_frames = 256;
  opts.lock.wait_timeout_us = 2000000;
  Database db(opts);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  Rid rid;
  {
    auto setup = db.Begin();
    ASSERT_TRUE(db.Insert(setup.get(), table, "0", &rid,
                          AccessOptions::Baseline())
                    .ok());
    ASSERT_TRUE(db.Commit(setup.get()).ok());
  }
  const AccessOptions for_update{true, false, true};
  const LockManager* lm = db.lock_manager();
  const uint64_t waits_before = lm->waits();
  auto increment = [&](Transaction* txn) -> Status {
    std::string bytes;
    DORADB_RETURN_NOT_OK(db.Read(txn, table, rid, &bytes, for_update));
    const std::string next = std::to_string(std::stoi(bytes) + 1);
    return db.Update(txn, table, rid, next, AccessOptions::Baseline());
  };
  auto t1 = db.Begin();
  std::string bytes;
  ASSERT_TRUE(db.Read(t1.get(), table, rid, &bytes, for_update).ok());
  EXPECT_EQ(db.lock_manager()->GroupModeOf(LockId::Row(table, rid)),
            LockMode::kX);
  Status s2;
  std::thread second([&] {
    auto t2 = db.Begin();
    s2 = increment(t2.get());
    if (s2.ok()) {
      s2 = db.Commit(t2.get());
    } else {
      (void)db.Abort(t2.get());
    }
  });
  EXPECT_TRUE(EventuallyTrue([&] { return lm->waits() > waits_before; }))
      << "the second reader must block on X";
  const std::string next = std::to_string(std::stoi(bytes) + 1);
  ASSERT_TRUE(db.Update(t1.get(), table, rid, next, AccessOptions::Baseline())
                  .ok());
  ASSERT_TRUE(db.Commit(t1.get()).ok());
  second.join();
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_EQ(lm->deadlocks(), 0u);
  EXPECT_EQ(lm->timeouts(), 0u);
  auto check = db.Begin();
  ASSERT_TRUE(db.Read(check.get(), table, rid, &bytes,
                      AccessOptions::Baseline())
                  .ok());
  EXPECT_EQ(bytes, "2") << "both increments committed";
  ASSERT_TRUE(db.Commit(check.get()).ok());
}

}  // namespace
}  // namespace doradb
