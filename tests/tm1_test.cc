// End-to-end TM1 workload tests: loader integrity, every transaction type
// on both engines, mixed concurrent execution, cross-engine consistency
// invariants, and the DORA-S plan advisor.

#include <gtest/gtest.h>

#include "workloads/common/driver.h"
#include "workloads/tm1/tm1.h"

namespace doradb {
namespace tm1 {
namespace {

class Tm1Test : public ::testing::Test {
 protected:
  Tm1Test() : db_(DbOptions()) {
    Tm1Workload::Config cfg;
    cfg.subscribers = 500;
    cfg.executors_per_table = 2;
    workload_ = std::make_unique<Tm1Workload>(&db_, cfg);
    EXPECT_TRUE(workload_->Load().ok());
    engine_ = std::make_unique<dora::DoraEngine>(&db_);
    workload_->SetupDora(engine_.get());
    engine_->Start();
  }
  ~Tm1Test() override { engine_->Stop(); }

  static Database::Options DbOptions() {
    Database::Options o;
    o.buffer_frames = 4096;
    o.lock.wait_timeout_us = 500000;
    return o;
  }

  Database db_;
  std::unique_ptr<Tm1Workload> workload_;
  std::unique_ptr<dora::DoraEngine> engine_;
};

TEST_F(Tm1Test, LoaderBuildsConsistentDatabase) {
  EXPECT_TRUE(workload_->CheckConsistency().ok());
  EXPECT_EQ(db_.catalog()->Heap(workload_->schema().subscriber)
                ->record_count(),
            500u);
  // AI and SF average 2.5 per subscriber.
  const uint64_t ai =
      db_.catalog()->Heap(workload_->schema().access_info)->record_count();
  EXPECT_GT(ai, 500u);
  EXPECT_LT(ai, 2000u);
}

TEST_F(Tm1Test, EveryTxnTypeRunsOnBaseline) {
  Rng rng(7);
  for (uint32_t type = 0; type < kNumTxnTypes; ++type) {
    int ok = 0;
    for (int i = 0; i < 50; ++i) {
      const Status s = workload_->RunBaseline(type, rng);
      if (s.ok()) ++ok;
      ASSERT_FALSE(s.IsDeadlock()) << workload_->TxnName(type);
      ASSERT_FALSE(s.IsCorruption()) << workload_->TxnName(type);
    }
    EXPECT_GT(ok, 0) << workload_->TxnName(type)
                     << " should commit at least sometimes";
  }
}

TEST_F(Tm1Test, EveryTxnTypeRunsOnDora) {
  Rng rng(7);
  for (uint32_t type = 0; type < kNumTxnTypes; ++type) {
    int ok = 0;
    for (int i = 0; i < 50; ++i) {
      const Status s = workload_->RunDora(engine_.get(), type, rng);
      if (s.ok()) ++ok;
      ASSERT_FALSE(s.IsDeadlock()) << workload_->TxnName(type);
      ASSERT_FALSE(s.IsCorruption()) << workload_->TxnName(type);
    }
    EXPECT_GT(ok, 0) << workload_->TxnName(type)
                     << " should commit at least sometimes";
  }
}

TEST_F(Tm1Test, DoraSerialPlanAlsoWorks) {
  workload_->SetPlanMode(PlanMode::kSerial);
  Rng rng(11);
  int ok = 0;
  for (int i = 0; i < 100; ++i) {
    const Status s =
        workload_->RunDora(engine_.get(), kUpdateSubscriberData, rng);
    if (s.ok()) ++ok;
  }
  // 62.5% expected success under the benchmark's failure model.
  EXPECT_GT(ok, 30);
  EXPECT_LT(ok, 95);
  EXPECT_TRUE(workload_->CheckConsistency().ok());
}

TEST_F(Tm1Test, ConsistencyHoldsAfterConcurrentMixedLoad) {
  BenchConfig cfg;
  cfg.engine = EngineKind::kDora;
  cfg.dora_engine = engine_.get();
  cfg.num_clients = 4;
  cfg.duration_ms = 400;
  cfg.warmup_ms = 50;
  const BenchResult r = RunBench(workload_.get(), cfg);
  EXPECT_GT(r.committed, 100u);
  EXPECT_EQ(r.system_aborts, 0u) << "DORA must not deadlock on TM1";
  EXPECT_TRUE(workload_->CheckConsistency().ok());
}

TEST_F(Tm1Test, BaselineConcurrentMixedLoad) {
  BenchConfig cfg;
  cfg.engine = EngineKind::kBaseline;
  cfg.num_clients = 4;
  cfg.duration_ms = 400;
  cfg.warmup_ms = 50;
  const BenchResult r = RunBench(workload_.get(), cfg);
  EXPECT_GT(r.committed, 100u);
  EXPECT_TRUE(workload_->CheckConsistency().ok());
}

TEST_F(Tm1Test, DoraAcquiresFarFewerCentralizedLocks) {
  // Fig. 5: DORA's interaction with the centralized lock manager is minimal.
  BenchConfig base_cfg;
  base_cfg.engine = EngineKind::kBaseline;
  base_cfg.num_clients = 2;
  base_cfg.duration_ms = 300;
  base_cfg.warmup_ms = 50;
  const BenchResult base = RunBench(workload_.get(), base_cfg);

  BenchConfig dora_cfg = base_cfg;
  dora_cfg.engine = EngineKind::kDora;
  dora_cfg.dora_engine = engine_.get();
  const BenchResult dora = RunBench(workload_.get(), dora_cfg);

  const double base_txns = static_cast<double>(base.committed);
  const double dora_txns = static_cast<double>(dora.committed);
  ASSERT_GT(base_txns, 0);
  ASSERT_GT(dora_txns, 0);
  const double base_higher =
      static_cast<double>(base.raw_delta.Locks(LockCounter::kHigherLevel)) /
      base_txns;
  const double dora_higher =
      static_cast<double>(dora.raw_delta.Locks(LockCounter::kHigherLevel)) /
      dora_txns;
  EXPECT_GT(base_higher, 0.5) << "baseline takes intent locks per txn";
  EXPECT_LT(dora_higher, 0.05) << "DORA must all but eliminate them";
  const double dora_local =
      static_cast<double>(dora.raw_delta.Locks(LockCounter::kDoraLocal)) /
      dora_txns;
  EXPECT_GT(dora_local, 0.5) << "DORA uses thread-local locks instead";
}

TEST_F(Tm1Test, UpdateLocationChangesVlr) {
  // Deterministic end-to-end check through the secondary-action path.
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    ASSERT_FALSE(
        workload_->RunDora(engine_.get(), kUpdateLocation, rng).IsDeadlock());
  }
  EXPECT_TRUE(workload_->CheckConsistency().ok());
}

TEST_F(Tm1Test, InsertThenDeleteCallForwardingRoundTrip) {
  Rng rng(5);
  uint64_t before =
      db_.catalog()->Heap(workload_->schema().call_forwarding)->record_count();
  int inserted = 0, deleted = 0;
  for (int i = 0; i < 200; ++i) {
    if (workload_->RunDora(engine_.get(), kInsertCallForwarding, rng).ok()) {
      ++inserted;
    }
    if (workload_->RunDora(engine_.get(), kDeleteCallForwarding, rng).ok()) {
      ++deleted;
    }
  }
  EXPECT_GT(inserted, 0);
  EXPECT_GT(deleted, 0);
  const uint64_t after =
      db_.catalog()->Heap(workload_->schema().call_forwarding)->record_count();
  EXPECT_EQ(after, before + inserted - deleted);
  EXPECT_TRUE(workload_->CheckConsistency().ok());
}

// ------------------------------------------------------------- PlanAdvisor

TEST(PlanAdvisorTest, RecommendsSerialAboveThreshold) {
  PlanAdvisor::Options o;
  o.serial_threshold = 0.2;
  o.min_samples = 10;
  PlanAdvisor advisor(o);
  for (int i = 0; i < 100; ++i) advisor.RecordOutcome(1, i % 2 == 0);
  EXPECT_TRUE(advisor.RecommendSerial(1)) << "50% abort rate";
  EXPECT_NEAR(advisor.AbortRate(1), 0.5, 0.01);
  EXPECT_FALSE(advisor.RecommendSerial(2)) << "unknown type defaults parallel";
}

TEST(PlanAdvisorTest, StaysParallelBelowThreshold) {
  PlanAdvisor::Options o;
  o.serial_threshold = 0.2;
  o.min_samples = 10;
  PlanAdvisor advisor(o);
  for (int i = 0; i < 100; ++i) advisor.RecordOutcome(1, i % 20 == 0);
  EXPECT_FALSE(advisor.RecommendSerial(1)) << "5% abort rate";
}

}  // namespace
}  // namespace tm1
}  // namespace doradb
