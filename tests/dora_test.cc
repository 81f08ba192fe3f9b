// Tests for the DORA core: local lock table semantics, routing rules, flow
// graph execution through executors and RVPs, abort propagation, the
// deadlock-avoidance enqueue protocol, rebalancing, pipelined commit, and
// serializability with guest execution.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "log/recovery.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace doradb {
namespace dora {
namespace {

Database::Options SmallDb() {
  Database::Options o;
  o.buffer_frames = 1024;
  o.lock.wait_timeout_us = 500000;
  return o;
}

// ----------------------------------------------------------- LocalLockTable

class LocalLockTableTest : public ::testing::Test {
 protected:
  LocalLockTableTest() : db_(SmallDb()) {}

  std::shared_ptr<DoraTxn> Txn() {
    return std::make_shared<DoraTxn>(&db_, db_.Begin());
  }

  Action* MakeAction(DoraTxn* t, uint64_t key, LocalMode m,
                     bool whole = false) {
    auto a = std::make_unique<Action>();
    a->dtxn = t;
    a->routing_value = key;
    a->mode = m;
    a->whole_dataset = whole;
    actions_.push_back(std::move(a));
    return actions_.back().get();
  }

  Database db_;
  LocalLockTable table_;
  std::vector<std::unique_ptr<Action>> actions_;
};

TEST_F(LocalLockTableTest, SharedLocksCompatible) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kS)));
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t2.get(), 7, LocalMode::kS)));
}

TEST_F(LocalLockTableTest, ExclusiveConflictsParkAction) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  Action* blocked = MakeAction(t2.get(), 7, LocalMode::kX);
  EXPECT_FALSE(table_.TryAcquire(blocked));
  EXPECT_EQ(table_.num_parked(), 1u);

  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  ASSERT_EQ(runnable.size(), 1u);
  EXPECT_EQ(runnable[0], blocked);
}

TEST_F(LocalLockTableTest, DifferentKeysNoConflict) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 1, LocalMode::kX)));
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t2.get(), 2, LocalMode::kX)));
}

TEST_F(LocalLockTableTest, ReentrantSameTxn) {
  auto t1 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)))
      << "same transaction must re-enter its own lock";
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kS)));
}

TEST_F(LocalLockTableTest, ReentrantBypassesWaitQueue) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  EXPECT_FALSE(table_.TryAcquire(MakeAction(t2.get(), 7, LocalMode::kX)));
  // t1's second action must not queue behind t2 (self-deadlock otherwise).
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
}

TEST_F(LocalLockTableTest, FifoOrderAmongWaiters) {
  auto t1 = Txn(), t2 = Txn(), t3 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  Action* w2 = MakeAction(t2.get(), 7, LocalMode::kX);
  Action* w3 = MakeAction(t3.get(), 7, LocalMode::kX);
  EXPECT_FALSE(table_.TryAcquire(w2));
  EXPECT_FALSE(table_.TryAcquire(w3));
  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  ASSERT_EQ(runnable.size(), 1u) << "w3 must stay behind w2 (both X)";
  EXPECT_EQ(runnable[0], w2);
  runnable.clear();
  table_.ReleaseAll(t2.get(), &runnable);
  ASSERT_EQ(runnable.size(), 1u);
  EXPECT_EQ(runnable[0], w3);
}

TEST_F(LocalLockTableTest, SharedWaitersGrantedTogether) {
  auto t1 = Txn(), t2 = Txn(), t3 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  EXPECT_FALSE(table_.TryAcquire(MakeAction(t2.get(), 7, LocalMode::kS)));
  EXPECT_FALSE(table_.TryAcquire(MakeAction(t3.get(), 7, LocalMode::kS)));
  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  EXPECT_EQ(runnable.size(), 2u) << "both S waiters wake together";
}

TEST_F(LocalLockTableTest, WholeDatasetConflictsWithExact) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  Action* whole = MakeAction(t2.get(), 0, LocalMode::kX, /*whole=*/true);
  EXPECT_FALSE(table_.TryAcquire(whole)) << "whole waits for exact locks";
  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  ASSERT_EQ(runnable.size(), 1u);
  EXPECT_EQ(runnable[0], whole);
  // While whole-X is held, exact locks must wait.
  auto t3 = Txn();
  EXPECT_FALSE(table_.TryAcquire(MakeAction(t3.get(), 9, LocalMode::kS)));
  runnable.clear();
  table_.ReleaseAll(t2.get(), &runnable);
  EXPECT_EQ(runnable.size(), 1u);
}

TEST_F(LocalLockTableTest, EmptyAfterAllReleases) {
  auto t1 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 1, LocalMode::kX)));
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 2, LocalMode::kS)));
  EXPECT_FALSE(table_.Empty());
  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  EXPECT_TRUE(table_.Empty());
}

// ---------------------------------------------------------------- Routing

TEST(RoutingTest, UniformPartitioning) {
  auto rule = RoutingRule::Uniform(100, 4);
  EXPECT_EQ(rule->Route(0), 0u);
  EXPECT_EQ(rule->Route(24), 0u);
  EXPECT_EQ(rule->Route(25), 1u);
  EXPECT_EQ(rule->Route(99), 3u);
  EXPECT_EQ(rule->Route(1000), 3u) << "values beyond the space clamp to last";
}

TEST(RoutingTest, SingleExecutorTakesAll) {
  auto rule = RoutingRule::Uniform(1000, 1);
  EXPECT_EQ(rule->Route(0), 0u);
  EXPECT_EQ(rule->Route(999), 0u);
}

TEST(RoutingTest, InstallSwapsRule) {
  RoutingTable table;
  table.Install(RoutingRule::Uniform(100, 2));
  EXPECT_EQ(table.Route(80), 1u);
  auto rule = std::make_shared<RoutingRule>();
  rule->boundaries = {90};
  rule->executor_of_dataset = {0, 1};
  table.Install(rule);
  EXPECT_EQ(table.Route(80), 0u) << "new rule shifts the boundary";
}

// ----------------------------------------------------------- engine + txns

class DoraEngineTest : public ::testing::Test {
 protected:
  DoraEngineTest() : db_(SmallDb()) {
    EXPECT_TRUE(db_.catalog()->CreateTable("a", &table_a_).ok());
    EXPECT_TRUE(db_.catalog()->CreateTable("b", &table_b_).ok());
    engine_ = std::make_unique<DoraEngine>(&db_);
    engine_->RegisterTable(table_a_, 100, 2);
    engine_->RegisterTable(table_b_, 100, 1);
    engine_->Start();
  }
  ~DoraEngineTest() override { engine_->Stop(); }

  Database db_;
  TableId table_a_, table_b_;
  std::unique_ptr<DoraEngine> engine_;
};

TEST_F(DoraEngineTest, SinglePhaseSingleActionCommits) {
  auto dtxn = engine_->BeginTxn();
  std::atomic<bool> ran{false};
  dtxn->AddPhase().AddAction(table_a_, 5, LocalMode::kX, [&](ActionEnv& env) {
    ran = true;
    Rid rid;
    return env.db->Insert(env.txn, table_a_, "payload", &rid,
                          AccessOptions::RidOnly());
  });
  ASSERT_TRUE(engine_->Run(dtxn).ok());
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(engine_->txns_committed(), 1u);
  EXPECT_EQ(db_.catalog()->Heap(table_a_)->record_count(), 1u);
}

TEST_F(DoraEngineTest, ActionsRouteToCorrectExecutor) {
  std::atomic<uint32_t> exec_for_low{999}, exec_for_high{999};
  auto dtxn = engine_->BeginTxn();
  dtxn->AddPhase()
      .AddAction(table_a_, 1, LocalMode::kS,
                 [&](ActionEnv& env) {
                   exec_for_low = env.self->index_in_table();
                   return Status::OK();
                 })
      .AddAction(table_a_, 99, LocalMode::kS, [&](ActionEnv& env) {
        exec_for_high = env.self->index_in_table();
        return Status::OK();
      });
  ASSERT_TRUE(engine_->Run(dtxn).ok());
  EXPECT_EQ(exec_for_low.load(), 0u);
  EXPECT_EQ(exec_for_high.load(), 1u);
}

TEST_F(DoraEngineTest, PhasesRunInOrder) {
  std::vector<int> order;
  std::mutex mu;
  auto record = [&](int v) {
    std::lock_guard<std::mutex> g(mu);
    order.push_back(v);
  };
  auto dtxn = engine_->BeginTxn();
  dtxn->AddPhase()
      .AddAction(table_a_, 1, LocalMode::kS,
                 [&](ActionEnv&) {
                   record(1);
                   return Status::OK();
                 })
      .AddAction(table_a_, 99, LocalMode::kS, [&](ActionEnv&) {
        record(1);
        return Status::OK();
      });
  dtxn->AddPhase().AddAction(table_b_, 1, LocalMode::kS, [&](ActionEnv&) {
    record(2);
    return Status::OK();
  });
  ASSERT_TRUE(engine_->Run(dtxn).ok());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 2) << "phase 2 must run after both phase-1 actions";
}

TEST_F(DoraEngineTest, AbortInPhaseOneSkipsPhaseTwo) {
  std::atomic<bool> phase2_ran{false};
  auto dtxn = engine_->BeginTxn();
  dtxn->AddPhase().AddAction(table_a_, 1, LocalMode::kX, [&](ActionEnv&) {
    return Status::NotFound("bad input");
  });
  dtxn->AddPhase().AddAction(table_b_, 1, LocalMode::kX, [&](ActionEnv&) {
    phase2_ran = true;
    return Status::OK();
  });
  const Status s = engine_->Run(dtxn);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(phase2_ran.load());
  EXPECT_EQ(engine_->txns_aborted(), 1u);
}

TEST_F(DoraEngineTest, AbortRollsBackStorageEffects) {
  auto dtxn = engine_->BeginTxn();
  Rid inserted;
  dtxn->AddPhase()
      .AddAction(table_a_, 1, LocalMode::kX,
                 [&](ActionEnv& env) {
                   return env.db->Insert(env.txn, table_a_, "doomed",
                                         &inserted, AccessOptions::RidOnly());
                 })
      .AddAction(table_a_, 99, LocalMode::kX, [&](ActionEnv&) {
        return Status::InvalidArgument("fail sibling");
      });
  EXPECT_FALSE(engine_->Run(dtxn).ok());
  // Depending on scheduling the insert may have been skipped entirely
  // (sibling failed first); if it did run, it must have been rolled back.
  if (inserted.Valid()) {
    std::string out;
    EXPECT_TRUE(
        db_.catalog()->Heap(table_a_)->Get(inserted, &out).IsNotFound())
        << "aborted transaction's insert must be rolled back";
  }
  EXPECT_EQ(db_.catalog()->Heap(table_a_)->record_count(), 0u);
}

TEST_F(DoraEngineTest, ConflictingTxnsSerialize) {
  // Two concurrent transactions incrementing the same logical record via
  // the same routing key must serialize on the local lock.
  auto setup = engine_->BeginTxn();
  Rid rid;
  {
    setup->AddPhase().AddAction(table_a_, 7, LocalMode::kX,
                                [&](ActionEnv& env) {
      return env.db->Insert(env.txn, table_a_, "00000000", &rid,
                            AccessOptions::RidOnly());
    });
    ASSERT_TRUE(engine_->Run(setup).ok());
  }
  constexpr int kThreads = 4, kIters = 50;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto dtxn = engine_->BeginTxn();
        dtxn->AddPhase().AddAction(table_a_, 7, LocalMode::kX,
                                   [&](ActionEnv& env) {
          std::string val;
          DORADB_RETURN_NOT_OK(env.db->Read(env.txn, table_a_, rid, &val,
                                            AccessOptions::NoCc()));
          const uint64_t n = std::stoull(val) + 1;
          char buf[9];
          std::snprintf(buf, sizeof(buf), "%08lu", n);
          return env.db->Update(env.txn, table_a_, rid,
                                std::string_view(buf, 8),
                                AccessOptions::NoCc());
        });
        if (!engine_->Run(dtxn).ok()) failures++;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  std::string val;
  ASSERT_TRUE(db_.catalog()->Heap(table_a_)->Get(rid, &val).ok());
  EXPECT_EQ(std::stoull(val), uint64_t(kThreads * kIters))
      << "lost update => local locking is broken";
}

TEST_F(DoraEngineTest, SameGraphTxnsNeverDeadlock) {
  // §4.2.3: transactions with the same flow graph cannot deadlock thanks to
  // the atomic ordered enqueue. Hammer two keys from many clients with
  // multi-action single-phase graphs.
  constexpr int kThreads = 6, kIters = 60;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto dtxn = engine_->BeginTxn();
        dtxn->AddPhase()
            .AddAction(table_a_, 3, LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); })
            .AddAction(table_a_, 77, LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); })
            .AddAction(table_b_, 5, LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); });
        if (!engine_->Run(dtxn).ok()) failures++;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0) << "no txn may deadlock or time out";
  EXPECT_EQ(engine_->txns_committed(),
            uint64_t(kThreads * kIters) + 0u);
}

TEST_F(DoraEngineTest, WholeDatasetActionDrainsExecutor) {
  std::atomic<int> whole_ran{0};
  auto dtxn = engine_->BeginTxn();
  dtxn->AddPhase()
      .AddWholeDatasetAction(table_a_, 0, LocalMode::kX,
                             [&](ActionEnv&) {
                               whole_ran++;
                               return Status::OK();
                             })
      .AddWholeDatasetAction(table_a_, 1, LocalMode::kX, [&](ActionEnv&) {
        whole_ran++;
        return Status::OK();
      });
  ASSERT_TRUE(engine_->Run(dtxn).ok());
  EXPECT_EQ(whole_ran.load(), 2);
}

TEST_F(DoraEngineTest, RebalanceMovesBoundary) {
  // Shift everything to executor 0, then verify routing changed and the
  // system still executes transactions correctly.
  auto rule = std::make_shared<RoutingRule>();
  rule->version = engine_->routing_of(table_a_)->Current()->version + 1;
  rule->boundaries = {95};
  rule->executor_of_dataset = {0, 1};
  ASSERT_TRUE(engine_->MigrateRoutingRule(table_a_, rule).ok());
  EXPECT_EQ(engine_->RouteIndex(table_a_, 80), 0u);
  EXPECT_EQ(engine_->RouteIndex(table_a_, 96), 1u);

  std::atomic<uint32_t> ran_on{999};
  auto dtxn = engine_->BeginTxn();
  dtxn->AddPhase().AddAction(table_a_, 80, LocalMode::kX, [&](ActionEnv& env) {
    ran_on = env.self->index_in_table();
    return Status::OK();
  });
  ASSERT_TRUE(engine_->Run(dtxn).ok());
  EXPECT_EQ(ran_on.load(), 0u);
}

TEST_F(DoraEngineTest, RebalanceUnderLoad) {
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread load([&] {
    Rng rng(1);
    while (!stop.load()) {
      auto dtxn = engine_->BeginTxn();
      const uint64_t key = rng.UniformInt(uint64_t{0}, uint64_t{99});
      dtxn->AddPhase().AddAction(table_a_, key, LocalMode::kX,
                                 [](ActionEnv&) { return Status::OK(); });
      if (!engine_->Run(dtxn).ok()) failures++;
    }
  });
  for (int i = 0; i < 5; ++i) {
    auto rule = std::make_shared<RoutingRule>();
    rule->version = engine_->routing_of(table_a_)->Current()->version + 1;
    rule->boundaries = {uint64_t(20 + 10 * i)};
    rule->executor_of_dataset = {0, 1};
    ASSERT_TRUE(engine_->MigrateRoutingRule(table_a_, rule).ok());
  }
  stop = true;
  load.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(DoraEngineTest, SerializedPlanRunsActionsSequentially) {
  std::vector<int> order;
  std::mutex mu;
  auto dtxn = engine_->BeginTxn();
  dtxn->AddPhase()
      .AddAction(table_a_, 1, LocalMode::kS,
                 [&](ActionEnv&) {
                   std::lock_guard<std::mutex> lk(mu);
                   order.push_back(1);
                   return Status::OK();
                 })
      .AddAction(table_a_, 99, LocalMode::kS, [&](ActionEnv&) {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(2);
        return Status::OK();
      });
  dtxn->UseSerialPlan();
  EXPECT_EQ(dtxn->num_phases(), 2u);
  ASSERT_TRUE(engine_->Run(dtxn).ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST_F(DoraEngineTest, SerialPlanAvoidsWastedWorkOnAbort) {
  // §A.4 DORA-S: when the first action fails, the second never executes.
  std::atomic<bool> second_ran{false};
  auto dtxn = engine_->BeginTxn();
  dtxn->AddPhase()
      .AddAction(table_a_, 1, LocalMode::kX,
                 [](ActionEnv&) { return Status::NotFound("wrong input"); })
      .AddAction(table_a_, 99, LocalMode::kX, [&](ActionEnv&) {
        second_ran = true;
        return Status::OK();
      });
  dtxn->UseSerialPlan();
  EXPECT_FALSE(engine_->Run(dtxn).ok());
  EXPECT_FALSE(second_ran.load());
}

// ------------------------------------------------- context recycling

// One table on one executor, so every client thread shares one arena.
class DoraContextTest : public ::testing::Test {
 protected:
  DoraContextTest() : db_(SmallDb()) {
    EXPECT_TRUE(db_.catalog()->CreateTable("t", &table_).ok());
    engine_ = std::make_unique<DoraEngine>(&db_);
    engine_->RegisterTable(table_, 100, 1);
    engine_->Start();
  }
  ~DoraContextTest() override { engine_->Stop(); }

  // Waits until `n` contexts went back to the arena: each one's client
  // handle is gone and its completion messages drained.
  bool WaitForRecycles(uint64_t n) {
    for (int i = 0; i < 10000; ++i) {
      if (engine_->CollectInboxStats().arena_recycles >= n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  Database db_;
  TableId table_;
  std::unique_ptr<DoraEngine> engine_;
};

TEST_F(DoraContextTest, RecycledContextRunsOnlyItsNewGraph) {
  std::atomic<int> old_runs{0}, new_runs{0};
  const DoraTxn* first = nullptr;
  {
    auto dtxn = engine_->BeginTxn();
    first = dtxn.get();
    dtxn->AddPhase()
        .AddAction(table_, 1, LocalMode::kX,
                   [&](ActionEnv&) {
                     old_runs++;
                     return Status::NotFound("abort phase 1");
                   })
        .AddAction(table_, 2, LocalMode::kX, [&](ActionEnv&) {
          old_runs++;
          return Status::OK();
        });
    dtxn->AddPhase().AddAction(table_, 3, LocalMode::kX, [&](ActionEnv&) {
      old_runs++;
      return Status::OK();
    });
    ASSERT_EQ(dtxn->num_phases(), 2u);
    EXPECT_FALSE(engine_->Run(dtxn).ok());
  }
  ASSERT_TRUE(WaitForRecycles(1));
  const int old_after_abort = old_runs.load();
  EXPECT_LE(old_after_abort, 2) << "phase 2 ran after the abort";

  auto dtxn = engine_->BeginTxn();
  ASSERT_EQ(dtxn.get(), first) << "the arena handed out a fresh context";
  EXPECT_TRUE(dtxn->actions.empty());
  EXPECT_EQ(dtxn->num_phases(), 0u);
  dtxn->AddPhase().AddAction(table_, 4, LocalMode::kX, [&](ActionEnv&) {
    new_runs++;
    return Status::OK();
  });
  EXPECT_EQ(dtxn->num_phases(), 1u);
  EXPECT_EQ(dtxn->actions.size(), 1u);
  EXPECT_EQ(dtxn->actions[0].phase, 0u);
  ASSERT_TRUE(engine_->Run(dtxn).ok());
  EXPECT_EQ(new_runs.load(), 1);
  EXPECT_EQ(old_runs.load(), old_after_abort);
}

TEST_F(DoraContextTest, RecycleDropsActionCaptures) {
  auto payload = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = payload;
  {
    auto dtxn = engine_->BeginTxn();
    dtxn->AddPhase().AddAction(
        table_, 5, LocalMode::kS,
        [p = std::move(payload)](ActionEnv&) {
          return *p == 7 ? Status::OK() : Status::Corruption("payload");
        });
    ASSERT_TRUE(engine_->Run(dtxn).ok());
    EXPECT_FALSE(watch.expired()) << "the client still holds its handle";
  }
  ASSERT_TRUE(WaitForRecycles(1));
  EXPECT_TRUE(watch.expired())
      << "a recycled context kept its actions' captures alive";
}

// -------------------------------------------------------- concurrent mixes

// Database + engine for multi-client mixes, by default over the partitioned
// log backend, so the early-release commit path and its acks are exercised
// end to end.
class DoraMixTest : public ::testing::Test {
 protected:
  void Build(LogBackendKind backend = LogBackendKind::kPartitioned) {
    if (engine_) engine_->Stop();
    engine_.reset();
    db_.reset();
    Database::Options dbo = SmallDb();
    dbo.log_backend = backend;
    dbo.log_partitions = 2;
    db_ = std::make_unique<Database>(dbo);
    ASSERT_TRUE(db_->catalog()->CreateTable("a", &table_a_).ok());
    engine_ = std::make_unique<DoraEngine>(db_.get());
    engine_->RegisterTable(table_a_, 100, 2);
    engine_->Start();
  }
  void TearDown() override {
    if (engine_) engine_->Stop();
  }

  // One counter record per routing key in `keys`, initialized to zero.
  void SeedCounters(const std::vector<uint64_t>& keys) {
    rids_.clear();
    for (uint64_t key : keys) {
      auto dtxn = engine_->BeginTxn();
      Rid rid;
      dtxn->AddPhase().AddAction(table_a_, key, LocalMode::kX,
                                 [&](ActionEnv& env) {
        return env.db->Insert(env.txn, table_a_, "00000000", &rid,
                              AccessOptions::RidOnly());
      });
      ASSERT_TRUE(engine_->Run(dtxn).ok());
      rids_.push_back(rid);
    }
    keys_ = keys;
  }

  // TPC-B-shaped mix: `threads` clients each run `iters` single-action
  // increments against rng-chosen counters. Returns the client-observed
  // failure count; the per-counter totals are checked by SumCounters().
  int RunIncrementMix(int threads, int iters) {
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        Rng rng(uint64_t(t) + 1);
        for (int i = 0; i < iters; ++i) {
          const size_t pick =
              rng.UniformInt(size_t{0}, keys_.size() - 1);
          auto dtxn = engine_->BeginTxn();
          dtxn->AddPhase().AddAction(table_a_, keys_[pick], LocalMode::kX,
                                     [&, pick](ActionEnv& env) {
            std::string val;
            DORADB_RETURN_NOT_OK(env.db->Read(env.txn, table_a_,
                                              rids_[pick], &val,
                                              AccessOptions::NoCc()));
            const uint64_t n = std::stoull(val) + 1;
            char buf[9];
            std::snprintf(buf, sizeof(buf), "%08lu", n);
            return env.db->Update(env.txn, table_a_, rids_[pick],
                                  std::string_view(buf, 8),
                                  AccessOptions::NoCc());
          });
          if (!engine_->Run(dtxn).ok()) failures++;
        }
      });
    }
    for (auto& c : clients) c.join();
    return failures.load();
  }

  uint64_t SumCounters() {
    uint64_t sum = 0;
    for (const Rid& rid : rids_) {
      std::string val;
      EXPECT_TRUE(db_->catalog()->Heap(table_a_)->Get(rid, &val).ok());
      sum += std::stoull(val);
    }
    return sum;
  }

  std::unique_ptr<Database> db_;
  TableId table_a_ = 0;
  std::unique_ptr<DoraEngine> engine_;
  std::vector<uint64_t> keys_;
  std::vector<Rid> rids_;
};

TEST_F(DoraMixTest, TicketedGraphsNeverDeadlockBesideSingleActions) {
  // §4.2.3: multi-action graphs take the ticket-ordered admission path
  // while concurrent single-action traffic runs FIFO on the same
  // executors. Neither path may starve or deadlock the other, and no
  // increment may be lost.
  Build(LogBackendKind::kCentral);
  SeedCounters({3, 77});
  constexpr int kThreads = 4, kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto dtxn = engine_->BeginTxn();
        dtxn->AddPhase()
            .AddAction(table_a_, 3, LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); })
            .AddAction(table_a_, 77, LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); });
        if (!engine_->Run(dtxn).ok()) failures++;
      }
    });
  }
  const int mix_failures = RunIncrementMix(/*threads=*/2, /*iters=*/40);
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0) << "ticketed txn deadlocked or timed out";
  EXPECT_EQ(mix_failures, 0);
  EXPECT_EQ(SumCounters(), 80u);
}

TEST_F(DoraMixTest, PipelinedAcksCountEveryIncrement) {
  // TPC-B-style mix with pipelined commit over the partitioned log: every
  // acknowledged increment is visible, none duplicated.
  constexpr int kThreads = 4, kIters = 40;
  Build();
  SeedCounters({5, 25, 45, 65, 85});
  EXPECT_EQ(RunIncrementMix(kThreads, kIters), 0);
  EXPECT_EQ(SumCounters(), uint64_t(kThreads * kIters));
}

TEST_F(DoraMixTest, ReadOnlyTransactionsLeaveNothingInTheLog) {
  // A transaction that logs no work appends no record: not at Begin, not
  // at commit (Database::Commit, DORA pipelined), not at an abort — on
  // either log backend. A crash after only such transactions finds nothing
  // to recover: no winners, no losers.
  auto* read_only = obs::MetricsRegistry::Default().GetCounter(
      "txn.read_only_commits", "txns");
  for (const LogBackendKind backend :
       {LogBackendKind::kCentral, LogBackendKind::kPartitioned}) {
    SCOPED_TRACE(testing::Message()
                 << "backend " << static_cast<int>(backend));
    Build(backend);
    LogBackend* log = db_->log_manager();
    const uint64_t appends = log->appends();
    const uint64_t read_only_before = read_only->Value();
    {
      auto txn = db_->Begin();
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
    {
      auto txn = db_->Begin();
      ASSERT_TRUE(db_->Abort(txn.get()).ok());
    }
    constexpr int kReaders = 40;
    for (int i = 0; i < kReaders; ++i) {
      auto dtxn = engine_->BeginTxn();
      dtxn->AddPhase()
          .AddAction(table_a_, 10, LocalMode::kS,
                     [](ActionEnv&) { return Status::OK(); })
          .AddAction(table_a_, 90, LocalMode::kS,
                     [](ActionEnv&) { return Status::OK(); });
      ASSERT_TRUE(engine_->Run(dtxn).ok());
    }
    {
      auto dtxn = engine_->BeginTxn();
      dtxn->AddPhase().AddAction(table_a_, 10, LocalMode::kS, [](ActionEnv&) {
        return Status::Aborted("user abort");
      });
      EXPECT_TRUE(engine_->Run(dtxn).IsAborted());
    }
    EXPECT_EQ(engine_->txns_committed(), uint64_t(kReaders));
    EXPECT_EQ(engine_->txns_pipelined(), 0u)
        << "read-only commits must stay out of the pipelined count";
    EXPECT_EQ(engine_->txns_acked_inline(), 0u);
    engine_->Stop();  // commits the executors' system transaction too
    EXPECT_EQ(log->appends(), appends) << "a read-only txn logged a record";
    // Database::Commit, the readers, and the system transaction.
    EXPECT_EQ(read_only->Value() - read_only_before,
              uint64_t(1 + kReaders + 1));

    db_->SimulateCrash();
    RecoveryDriver driver(db_.get());
    ASSERT_TRUE(driver.Run(nullptr).ok());
    EXPECT_EQ(driver.stats().winners, 0u);
    EXPECT_EQ(driver.stats().losers, 0u);
    EXPECT_EQ(driver.stats().records_scanned, 0u);
  }
}

// ------------------------------------------- serializability under guests

// Serializability stress over guest execution. Counter rows hold a version
// number; every committed write installs version + 1. Four clients mix
// single-key increments (guest-eligible), two-key transfers across both
// executors (ticketed; one in three aborts by design while its other action
// may already have written, so a dirty read would surface), and read-only
// two-key audits (across or within one executor), while a fifth thread
// migrates the routing rule twice (a split, then a move back). Every committed transaction records
// the (key, version) pairs it read and wrote. Then:
//   * each key's committed writes are versions 1..final, one writer each,
//     and every read saw version 0 or a committed write;
//   * the serialization graph over ww, wr and rw edges is acyclic;
//   * some commits ran as guests (dora.txns.inline > 0).
class GuestSerializabilityTest : public ::testing::Test {
 protected:
  // What one committed transaction read and wrote: (key slot, version).
  struct Footprint {
    std::vector<std::pair<size_t, uint64_t>> reads, writes;
  };

  void SetUp() override {
    Database::Options dbo = SmallDb();
    dbo.log_backend = LogBackendKind::kPartitioned;
    dbo.log_partitions = 2;
    db_ = std::make_unique<Database>(dbo);
    ASSERT_TRUE(db_->catalog()->CreateTable("c", &table_).ok());
    DoraEngine::Options eo;
    eo.local_wait_timeout_us = 20000;
    engine_ = std::make_unique<DoraEngine>(db_.get(), eo);
    engine_->RegisterTable(table_, 100, 2);  // [0,50) -> 0, [50,100) -> 1
    engine_->Start();
    for (size_t i = 0; i < kKeys.size(); ++i) {
      auto dtxn = engine_->BeginTxn();
      dtxn->AddPhase().AddAction(table_, kKeys[i], LocalMode::kX,
                                 [&](ActionEnv& env) {
        return env.db->Insert(env.txn, table_, Encode(0), &rids_[i],
                              AccessOptions::RidOnly());
      });
      ASSERT_TRUE(engine_->Run(dtxn).ok());
    }
  }
  void TearDown() override {
    if (engine_) engine_->Stop();
  }

  static std::string Encode(uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llu",
                  static_cast<unsigned long long>(v));
    return std::string(buf, 16);
  }
  Status ReadVersion(ActionEnv& env, size_t slot, uint64_t* v) {
    std::string val;
    DORADB_RETURN_NOT_OK(env.db->Read(env.txn, table_, rids_[slot], &val,
                                      AccessOptions::NoCc()));
    *v = std::stoull(val);
    return Status::OK();
  }
  // Read the slot's version into `*read` and install the next one.
  Status Bump(ActionEnv& env, size_t slot, uint64_t* read) {
    DORADB_RETURN_NOT_OK(ReadVersion(env, slot, read));
    return env.db->Update(env.txn, table_, rids_[slot], Encode(*read + 1),
                          AccessOptions::NoCc());
  }

  // One client's transaction stream; committed footprints go to `out`.
  void Client(uint64_t seed, int txns, std::vector<Footprint>* out) {
    Rng rng(seed);
    for (int i = 0; i < txns; ++i) {
      const uint64_t kind = rng.UniformInt(uint64_t{0}, uint64_t{9});
      // Slots 0,1 start on executor 0; slots 2,3 on executor 1.
      const size_t lo = rng.UniformInt(size_t{0}, size_t{1});
      const size_t hi = 2 + rng.UniformInt(size_t{0}, size_t{1});
      uint64_t va = 0, vb = 0;
      Footprint f;
      auto dtxn = engine_->BeginTxn();
      dtxn->AddPhase();
      if (kind < 5) {  // increment one key
        const size_t k = rng.UniformInt(size_t{0}, kKeys.size() - 1);
        dtxn->AddAction(table_, kKeys[k], LocalMode::kX,
                        [&, k](ActionEnv& env) { return Bump(env, k, &va); });
        if (engine_->Run(dtxn).ok()) {
          f.reads = {{k, va}};
          f.writes = {{k, va + 1}};
          out->push_back(f);
        }
      } else if (kind < 8) {  // transfer across the two executors
        const bool fail = kind == 7;
        dtxn->AddAction(table_, kKeys[lo], LocalMode::kX,
                        [&, lo](ActionEnv& env) { return Bump(env, lo, &va); });
        dtxn->AddAction(table_, kKeys[hi], LocalMode::kX,
                        [&, hi, fail](ActionEnv& env) -> Status {
                          if (fail) return Status::Aborted("transfer refused");
                          return Bump(env, hi, &vb);
                        });
        const Status st = engine_->Run(dtxn);
        EXPECT_TRUE(!fail || !st.ok());
        if (st.ok()) {
          f.reads = {{lo, va}, {hi, vb}};
          f.writes = {{lo, va + 1}, {hi, vb + 1}};
          out->push_back(f);
        }
      } else {  // audit two keys: across executors, or both on one
        const size_t a = lo;
        const size_t b = kind == 8 ? hi : 1 - lo;
        dtxn->AddAction(
            table_, kKeys[a], LocalMode::kS,
            [&, a](ActionEnv& env) { return ReadVersion(env, a, &va); });
        dtxn->AddAction(
            table_, kKeys[b], LocalMode::kS,
            [&, b](ActionEnv& env) { return ReadVersion(env, b, &vb); });
        if (engine_->Run(dtxn).ok()) {
          f.reads = {{a, va}, {b, vb}};
          out->push_back(f);
        }
      }
    }
  }

  // Split executor 0's range, moving [25,50) to executor 1, then move it
  // back. A fence that loses a wait-for cycle is expired; retry it.
  void Migrate() {
    const std::vector<std::vector<uint32_t>> owners = {{0, 1, 1}, {0, 0, 1}};
    for (const auto& own : owners) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Status s;
      for (int attempt = 0; attempt < 50; ++attempt) {
        auto rule = std::make_shared<RoutingRule>();
        rule->version = engine_->routing_of(table_)->Current()->version + 1;
        rule->boundaries = {25, 50};
        rule->executor_of_dataset = own;
        s = engine_->MigrateRoutingRule(table_, rule);
        if (s.ok()) break;
      }
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }

  static constexpr std::array<uint64_t, 4> kKeys = {10, 30, 60, 80};
  std::unique_ptr<Database> db_;
  TableId table_ = 0;
  std::unique_ptr<DoraEngine> engine_;
  std::array<Rid, 4> rids_;
};

TEST_F(GuestSerializabilityTest, VersionChainsAndSerializationGraphHold) {
  constexpr int kClients = 4, kTxns = 400;
  std::vector<std::vector<Footprint>> per_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(
        [&, c] { Client(uint64_t(c) + 101, kTxns, &per_client[c]); });
  }
  std::thread migrator([&] { Migrate(); });
  for (auto& t : threads) t.join();
  migrator.join();
  EXPECT_EQ(engine_->RouteIndex(table_, kKeys[1]), 0u);

  std::vector<Footprint> txns;
  for (auto& v : per_client) {
    for (auto& f : v) txns.push_back(std::move(f));
  }
  ASSERT_GT(txns.size(), size_t(kClients * kTxns / 2));

  // Version chains: one committed writer per (key, version), versions
  // 1..final with no gap, final == the stored row.
  std::map<std::pair<size_t, uint64_t>, size_t> writer;
  for (size_t t = 0; t < txns.size(); ++t) {
    for (const auto& w : txns[t].writes) {
      const auto [it, fresh] = writer.emplace(w, t);
      EXPECT_TRUE(fresh) << "key slot " << w.first << " version " << w.second
                         << " written by two committed transactions";
    }
  }
  for (size_t k = 0; k < kKeys.size(); ++k) {
    std::string val;
    ASSERT_TRUE(db_->catalog()->Heap(table_)->Get(rids_[k], &val).ok());
    const uint64_t final_version = std::stoull(val);
    uint64_t n = 0;
    for (const auto& [kv, t] : writer) {
      if (kv.first != k) continue;
      ++n;
      EXPECT_EQ(kv.second, n) << "gap in key slot " << k << "'s versions";
    }
    EXPECT_EQ(n, final_version) << "key slot " << k;
  }
  for (const Footprint& f : txns) {
    for (const auto& r : f.reads) {
      EXPECT_TRUE(r.second == 0 || writer.count(r) != 0)
          << "read of key slot " << r.first << " version " << r.second
          << ", which no committed transaction wrote";
    }
  }

  // Direct serialization graph: ww (writer of v -> writer of v+1), wr
  // (writer of v -> reader of v), rw (reader of v -> writer of v+1).
  std::vector<std::set<size_t>> out(txns.size());
  auto edge = [&](size_t from, size_t to) {
    if (from != to) out[from].insert(to);
  };
  auto writer_of = [&](size_t k, uint64_t v) -> int64_t {
    auto it = writer.find({k, v});
    return it == writer.end() ? -1 : static_cast<int64_t>(it->second);
  };
  for (size_t t = 0; t < txns.size(); ++t) {
    for (const auto& [k, v] : txns[t].writes) {
      if (const int64_t p = writer_of(k, v - 1); p >= 0) edge(size_t(p), t);
    }
    for (const auto& [k, v] : txns[t].reads) {
      if (const int64_t p = writer_of(k, v); p >= 0) edge(size_t(p), t);
      if (const int64_t n = writer_of(k, v + 1); n >= 0) edge(t, size_t(n));
    }
  }
  // Kahn's algorithm: every node must come off the queue.
  std::vector<size_t> indegree(txns.size(), 0);
  for (const auto& targets : out) {
    for (size_t to : targets) ++indegree[to];
  }
  std::vector<size_t> ready;
  for (size_t t = 0; t < txns.size(); ++t) {
    if (indegree[t] == 0) ready.push_back(t);
  }
  size_t ordered = 0;
  while (!ready.empty()) {
    const size_t t = ready.back();
    ready.pop_back();
    ++ordered;
    for (size_t to : out[t]) {
      if (--indegree[to] == 0) ready.push_back(to);
    }
  }
  EXPECT_EQ(ordered, txns.size()) << "the serialization graph has a cycle";

  const obs::MetricsSnapshot snap = db_->Metrics();
  const obs::MetricValue* inl = snap.Find("dora.txns.inline");
  ASSERT_NE(inl, nullptr);
  EXPECT_GT(inl->value, 0);
}

}  // namespace
}  // namespace doradb
}  // namespace dora
