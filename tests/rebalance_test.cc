// Deterministic migration test harness for live repartitioning:
//
//  1. The shared Zipfian skew generator the benches feed from
//     DORADB_SKEW_THETA is pinned (deterministic per seed, hot-set mass in
//     the expected band) so the skew the controller reacts to is itself
//     reproducible.
//  2. The RebalanceController's decisions are driven by scripted heatmap
//     windows pushed into a private LoadHeatmap (no threads, no timing):
//     a hot single-range executor splits at the midpoint, a hot
//     multi-range executor moves its widest range, a below-gap window
//     does nothing, and each window seq is decided at most once.
//  3. The ticket-fenced cutover serializes against live conflicting load:
//     TPC-B transactions straddle ~20 migrations of the account table and
//     the balance invariant holds with zero failed transactions.
//  4. A split routing table written through the durable catalog is
//     recovered by a second lifetime via RegisterFromCatalog alone — no
//     re-registration by workload code.

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "dora/rebalance.h"
#include "util/rng.h"
#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace dora {
namespace {

Database::Options SmallDb() {
  Database::Options o;
  o.buffer_frames = 2048;
  o.lock.wait_timeout_us = 500000;
  return o;
}

std::string TempDataDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "doradb_rebalance_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Database::Options DurableOpts(const std::string& dir) {
  Database::Options o;
  o.buffer_frames = 512;
  o.data_dir = dir;
  o.log_backend = LogBackendKind::kPartitioned;
  o.log_partitions = 2;
  o.log_segment_bytes = 4096;
  return o;
}

// One scripted heatmap window: busy fractions per GLOBAL executor index.
obs::HeatmapWindow Window(std::vector<double> busy_by_global) {
  obs::HeatmapWindow w;
  w.span_ms = 100.0;
  for (uint32_t g = 0; g < busy_by_global.size(); ++g) {
    obs::ExecutorSample s;
    s.executor = g;
    s.busy_frac = busy_by_global[g];
    w.rows.push_back(s);
  }
  return w;
}

// ------------------------------------------- satellite 1: pinned skew

TEST(RebalanceTest, ZipfSkewGeneratorPinned) {
  constexpr uint64_t kN = 10000;
  constexpr double kTheta = 0.9;
  ZipfGenerator zipf(kN, kTheta);

  // Determinism: two same-seed streams must be identical (the workload
  // configs share one generator across per-thread Rngs, so Next() must be
  // a pure function of the Rng stream).
  {
    ZipfGenerator z2(kN, kTheta);
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(zipf.Next(a), z2.Next(b)) << "draw " << i;
    }
  }

  // Distribution pin: under theta=0.9 the hottest 1% of ranks should
  // carry a large, stable share of the mass and the coldest half very
  // little. Bands are deliberately loose — they catch a broken
  // implementation (uniform, inverted, off-by-one rank), not sampling
  // noise.
  constexpr int kDraws = 200000;
  Rng rng(7);
  uint64_t top1 = 0, bottom_half = 0, min_seen = kN, max_seen = 0;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, kN);
    min_seen = std::min(min_seen, v);
    max_seen = std::max(max_seen, v);
    if (v <= kN / 100) ++top1;
    if (v > kN / 2) ++bottom_half;
  }
  const double top1_share = static_cast<double>(top1) / kDraws;
  const double bottom_share = static_cast<double>(bottom_half) / kDraws;
  EXPECT_GT(top1_share, 0.30) << "hot 1% of ranks too cold for Zipf(0.9)";
  EXPECT_LT(top1_share, 0.70);
  EXPECT_LT(bottom_share, 0.20) << "cold half too hot for Zipf(0.9)";
  EXPECT_EQ(min_seen, 1u) << "rank 1 must be the hottest value";
  EXPECT_GT(max_seen, kN / 2) << "tail must still be reachable";
}

// --------------------------- satellite 2a: scripted-heatmap decisions

class ScriptedRebalanceTest : public ::testing::Test {
 protected:
  ScriptedRebalanceTest() : db_(SmallDb()) {
    EXPECT_TRUE(db_.catalog()->CreateTable("t", &table_).ok());
    engine_ = std::make_unique<DoraEngine>(&db_);
    engine_->RegisterTable(table_, /*key_space=*/1000, /*executors=*/2);
    engine_->Start();
    RebalanceController::Options o;
    o.min_busy_gap = 0.25;
    o.sweep = false;     // scripted windows only
    o.heatmap = &hm_;    // private: nothing leaks across tests
    ctrl_ = std::make_unique<RebalanceController>(engine_.get(), o);
  }
  ~ScriptedRebalanceTest() override { engine_->Stop(); }

  Database db_;
  TableId table_;
  obs::LoadHeatmap hm_;
  std::unique_ptr<DoraEngine> engine_;
  std::unique_ptr<RebalanceController> ctrl_;
};

TEST_F(ScriptedRebalanceTest, HotSingleRangeSplitsAtMidpoint) {
  // Executor 0 owns [0,500) and is pinned; executor 1 idles.
  hm_.Push(Window({0.95, 0.05}));
  ASSERT_TRUE(ctrl_->StepOnce());
  auto rule = engine_->routing_of(table_)->Current();
  ASSERT_EQ(rule->boundaries.size(), 2u);
  EXPECT_EQ(rule->boundaries[0], 250u) << "split at the hot range midpoint";
  EXPECT_EQ(rule->boundaries[1], 500u);
  ASSERT_EQ(rule->executor_of_dataset.size(), 3u);
  EXPECT_EQ(rule->executor_of_dataset[0], 0u);
  EXPECT_EQ(rule->executor_of_dataset[1], 1u) << "upper half handed over";
  EXPECT_EQ(rule->executor_of_dataset[2], 1u);
  EXPECT_EQ(rule->version, 1u);
  EXPECT_EQ(ctrl_->splits(), 1u);
  EXPECT_EQ(ctrl_->moves(), 0u);

  // The published rule routes live traffic: keys below the new boundary
  // stay on 0, the handed-over quarter lands on 1.
  EXPECT_EQ(engine_->RouteIndex(table_, 100), 0u);
  EXPECT_EQ(engine_->RouteIndex(table_, 300), 1u);
  std::atomic<uint32_t> ran_on{999};
  auto dtxn = engine_->BeginTxn();
  dtxn->AddPhase().AddAction(table_, 300, LocalMode::kX, [&](ActionEnv& env) {
    ran_on = env.self->index_in_table();
    return Status::OK();
  });
  ASSERT_TRUE(engine_->Run(dtxn).ok());
  EXPECT_EQ(ran_on.load(), 1u);
}

TEST_F(ScriptedRebalanceTest, HotMultiRangeOwnerMovesWidestRange) {
  // First migration: split makes executor 1 own [250,500) and [500,1000).
  hm_.Push(Window({0.95, 0.05}));
  ASSERT_TRUE(ctrl_->StepOnce());
  // Reverse the skew: executor 1 is now hot and owns two ranges, so the
  // controller must MOVE its widest ([500,1000)) instead of splitting.
  hm_.Push(Window({0.05, 0.95}));
  ASSERT_TRUE(ctrl_->StepOnce());
  auto rule = engine_->routing_of(table_)->Current();
  ASSERT_EQ(rule->boundaries.size(), 2u) << "a move adds no boundary";
  ASSERT_EQ(rule->executor_of_dataset.size(), 3u);
  EXPECT_EQ(rule->executor_of_dataset[0], 0u);
  EXPECT_EQ(rule->executor_of_dataset[1], 1u);
  EXPECT_EQ(rule->executor_of_dataset[2], 0u) << "widest range moved cold";
  EXPECT_EQ(rule->version, 2u);
  EXPECT_EQ(ctrl_->splits(), 1u);
  EXPECT_EQ(ctrl_->moves(), 1u);
  EXPECT_EQ(ctrl_->migrations(), 2u);
}

TEST_F(ScriptedRebalanceTest, BelowGapWindowAndStaleSeqDoNothing) {
  hm_.Push(Window({0.50, 0.40}));  // gap 0.10 < 0.25
  EXPECT_FALSE(ctrl_->StepOnce());
  EXPECT_EQ(ctrl_->migrations(), 0u);
  auto rule = engine_->routing_of(table_)->Current();
  EXPECT_EQ(rule->version, 0u) << "no migration may have happened";

  // An already-consumed window seq is never decided twice, even if its
  // gap would act: push one actionable window, step twice.
  hm_.Push(Window({0.95, 0.05}));
  EXPECT_TRUE(ctrl_->StepOnce());
  EXPECT_FALSE(ctrl_->StepOnce()) << "same window seq consumed twice";
  EXPECT_EQ(ctrl_->migrations(), 1u);
}

TEST_F(ScriptedRebalanceTest, StaleVersionMigrationRejectedBusy) {
  // A migration whose version does not exceed the live rule's loses the
  // race by construction: kBusy, routing unchanged.
  auto stale = std::make_shared<RoutingRule>();
  stale->boundaries = {400};
  stale->executor_of_dataset = {0, 1};
  stale->version = 0;  // == current
  const Status s = engine_->MigrateRoutingRule(table_, stale);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(engine_->routing_of(table_)->Current()->version, 0u);

  // Structural garbage is rejected before any fence is taken.
  auto bad = std::make_shared<RoutingRule>();
  bad->boundaries = {400, 300};  // not increasing
  bad->executor_of_dataset = {0, 1, 1};
  bad->version = 1;
  const Status rejected = engine_->MigrateRoutingRule(table_, bad);
  EXPECT_FALSE(rejected.ok());
  EXPECT_FALSE(rejected.IsBusy()) << "structural, not a version race";
}

// ------------------- satellite 2b: fence vs. live conflicting actions

TEST(RebalanceTest, TicketFenceCutoverKeepsTpcbInvariants) {
  Database db(SmallDb());
  tpcb::TpcbWorkload::Config cfg;
  cfg.branches = 4;
  cfg.tellers_per_branch = 2;
  cfg.accounts_per_branch = 500;
  cfg.account_executors = 2;
  cfg.other_executors = 1;
  tpcb::TpcbWorkload workload(&db, cfg);
  ASSERT_TRUE(workload.Load().ok());
  DoraEngine engine(&db);
  workload.SetupDora(&engine);
  engine.Start();

  const TableId account = workload.schema().account;
  const uint64_t key_space = cfg.branches * cfg.accounts_per_branch + 1;
  ASSERT_EQ(engine.key_space_of(account), key_space);

  // Conflicting load: every client updates accounts/tellers/branches while
  // the account table's ownership migrates under it. An action enqueued
  // before the fence's ticket executes under the old rule; one admitted
  // after publication bounces to the new owner — either way the
  // transaction must commit.
  // A cutover can transiently invert ticket-order admission: an action
  // parked under the old rule bounces to the new owner AFTER that owner
  // already granted later-ticketed work, so a wait-for cycle between two
  // in-flight transactions is possible for the migration instant. The
  // §4.2.3 expiry detector bounds it with a Deadlock abort and the client
  // retries — that is the designed protocol, so deadlock aborts are
  // counted but tolerated; any OTHER failure (lost write, stale route
  // executing on a non-owner, broken invariant) fails the test.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> deadlock_retries{0};
  std::mutex fail_mu;
  std::vector<std::string> fail_msgs;
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load()) {
        const Status s = workload.RunDora(&engine, 0, rng);
        if (s.IsDeadlock()) {
          deadlock_retries++;  // §4.2.3 detector fired mid-cutover: retry
        } else if (!s.ok()) {
          failures++;
          std::lock_guard<std::mutex> g(fail_mu);
          fail_msgs.push_back(s.ToString());
        }
      }
    });
  }

  // ~20 migrations straddling the live load, alternating the account
  // boundary between the low and high third of the key space. A heavily
  // contested fence can itself be picked off by the §4.2.3 detector (it
  // parks like any other action); the migration then aborted cleanly —
  // rule not installed, locks rolled back — and is simply retried.
  int applied = 0;
  for (int i = 0; i < 20; ++i) {
    Status s;
    for (int attempt = 0; attempt < 10; ++attempt) {
      auto current = engine.routing_of(account)->Current();
      auto rule = std::make_shared<RoutingRule>();
      rule->boundaries = {i % 2 == 0 ? key_space / 3 : 2 * key_space / 3};
      rule->executor_of_dataset = {0, 1};
      rule->version = current->version + 1;
      uint64_t fence_wait_ns = 0;
      s = engine.MigrateRoutingRule(account, rule, &fence_wait_ns);
      if (!s.IsDeadlock()) break;
    }
    ASSERT_TRUE(s.ok()) << "migration " << i << ": " << s.ToString();
    ++applied;
  }
  stop = true;
  for (auto& c : clients) c.join();
  engine.Stop();

  EXPECT_EQ(applied, 20);
  std::string joined;
  for (const std::string& m : fail_msgs) joined += "\n  " + m;
  EXPECT_EQ(failures.load(), 0)
      << "only deadlock-retry is tolerated across a fenced cutover:"
      << joined;
  if (deadlock_retries.load() != 0) {
    std::fprintf(stderr, "note: %d deadlock retr%s during cutover\n",
                 deadlock_retries.load(),
                 deadlock_retries.load() == 1 ? "y" : "ies");
  }
  EXPECT_EQ(engine.routing_of(account)->Current()->version, 20u);
  ASSERT_TRUE(workload.CheckConsistency().ok())
      << "balance invariant broken by a migration";
}

// ----------------- satellite 2c: split survives restart via catalog

TEST(RebalanceTest, SplitRoutingTableRecoveredAcrossLifetimes) {
  const std::string dir = TempDataDir("split_recover");
  const Database::Options opts = DurableOpts(dir);

  // Lifetime 1: register uniform wiring, migrate to a split, run a txn on
  // the handed-over range, die without warning. The split was written
  // through catalog.db at publication, so the kill must not lose it.
  {
    Database db(opts);
    db.log_manager()->BindThisThread(0);
    TableId table;
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
    DoraEngine engine(&db);
    engine.RegisterTable(table, /*key_space=*/1000, /*executors=*/2);
    ASSERT_TRUE(engine.registration_status().ok())
        << engine.registration_status().ToString();
    engine.Start();

    auto rule = std::make_shared<RoutingRule>();
    rule->boundaries = {250, 500};
    rule->executor_of_dataset = {0, 1, 1};
    rule->version = 1;
    ASSERT_TRUE(engine.MigrateRoutingRule(table, rule).ok());

    std::atomic<uint32_t> ran_on{999};
    auto dtxn = engine.BeginTxn();
    dtxn->AddPhase().AddAction(table, 300, LocalMode::kX, [&](ActionEnv& env) {
      ran_on = env.self->index_in_table();
      return Status::OK();
    });
    ASSERT_TRUE(engine.Run(dtxn).ok());
    EXPECT_EQ(ran_on.load(), 1u);
    engine.Stop();
    db.SimulateKill();
  }

  // Lifetime 2: no workload registration at all — RegisterFromCatalog
  // alone must reproduce the split rule, version included.
  Database db(opts);
  ASSERT_TRUE(db.catalog_load_status().ok())
      << db.catalog_load_status().ToString();
  ASSERT_TRUE(db.Recover(nullptr).ok());
  ASSERT_NE(db.catalog()->GetTable("t"), nullptr);
  const TableId table = db.catalog()->GetTable("t")->id;

  DoraEngine engine(&db);
  ASSERT_EQ(engine.RegisterFromCatalog(), 1u);
  auto rule = engine.routing_of(table)->Current();
  ASSERT_NE(rule, nullptr);
  ASSERT_EQ(rule->boundaries.size(), 2u) << "split lost across restart";
  EXPECT_EQ(rule->boundaries[0], 250u);
  EXPECT_EQ(rule->boundaries[1], 500u);
  ASSERT_EQ(rule->executor_of_dataset.size(), 3u);
  EXPECT_EQ(rule->executor_of_dataset[0], 0u);
  EXPECT_EQ(rule->executor_of_dataset[1], 1u);
  EXPECT_EQ(rule->executor_of_dataset[2], 1u);
  EXPECT_EQ(rule->version, 1u);

  engine.Start();
  std::atomic<uint32_t> ran_on{999};
  auto dtxn = engine.BeginTxn();
  dtxn->AddPhase().AddAction(table, 300, LocalMode::kX, [&](ActionEnv& env) {
    ran_on = env.self->index_in_table();
    return Status::OK();
  });
  ASSERT_TRUE(engine.Run(dtxn).ok());
  EXPECT_EQ(ran_on.load(), 1u)
      << "recovered rule must route like the original";
  engine.Stop();
}

}  // namespace
}  // namespace dora
}  // namespace doradb
