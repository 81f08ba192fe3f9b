// Property-based, parameterized sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// invariants that must hold across sizes, thread counts, and random
// schedules rather than for one hand-picked input.

#include <algorithm>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace {

// ---------------------------------------------------------------- B+Tree

// Property: after inserting N random keys and deleting a random subset, the
// tree contains exactly the surviving set, in order, and passes its own
// integrity check — for any N.
class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, InsertDeleteSetSemantics) {
  const int n = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 8192);
  BTree tree(&pool, 0, /*unique=*/true);
  Rng rng(n);

  std::map<uint64_t, uint64_t> model;  // reference implementation
  for (int i = 0; i < n; ++i) {
    const uint64_t k = rng.UniformInt(uint64_t{0}, uint64_t(n) * 4);
    KeyBuilder kb;
    kb.Add64(k);
    const Status s =
        tree.Insert(kb.View(), IndexEntry{Rid{PageId(i), 0}, k, false});
    if (model.count(k) != 0) {
      EXPECT_TRUE(s.IsDuplicate()) << "unique index must reject dup " << k;
    } else if (s.ok()) {
      model[k] = k;
    }
  }
  // Delete a random half.
  std::vector<uint64_t> keys;
  for (const auto& [k, v] : model) keys.push_back(k);
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    KeyBuilder kb;
    kb.Add64(keys[i]);
    ASSERT_TRUE(tree.Remove(kb.View(), Rid{}).ok());
    model.erase(keys[i]);
  }
  // The tree must now equal the model, in order.
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree.Scan("", "", [&](std::string_view, const IndexEntry& e) {
    seen.push_back(e.aux);
    return true;
  }).ok());
  std::vector<uint64_t> expect;
  for (const auto& [k, v] : model) expect.push_back(k);
  EXPECT_EQ(seen, expect);
  EXPECT_EQ(tree.num_entries(), model.size());
  EXPECT_TRUE(tree.CheckIntegrity().ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreePropertyTest,
                         ::testing::Values(10, 100, 1000, 5000, 20000));

// Property: range scans agree with the model for random ranges.
class BTreeRangePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeRangePropertyTest, RandomRangeScansMatchModel) {
  const int n = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 8192);
  BTree tree(&pool, 0, true);
  Rng rng(n * 7 + 1);
  std::map<uint64_t, bool> model;
  for (int i = 0; i < n; ++i) {
    const uint64_t k = rng.UniformInt(uint64_t{0}, uint64_t(n) * 2);
    KeyBuilder kb;
    kb.Add64(k);
    if (tree.Insert(kb.View(), IndexEntry{Rid{1, 0}, k, false}).ok()) {
      model[k] = true;
    }
  }
  for (int trial = 0; trial < 32; ++trial) {
    uint64_t lo = rng.UniformInt(uint64_t{0}, uint64_t(n) * 2);
    uint64_t hi = rng.UniformInt(uint64_t{0}, uint64_t(n) * 2);
    if (lo > hi) std::swap(lo, hi);
    KeyBuilder klo, khi;
    klo.Add64(lo);
    khi.Add64(hi);
    size_t got = 0;
    ASSERT_TRUE(tree.Scan(klo.View(), khi.View(),
                          [&](std::string_view, const IndexEntry&) {
                            ++got;
                            return true;
                          }).ok());
    const size_t expect = static_cast<size_t>(std::distance(
        model.lower_bound(lo), model.lower_bound(hi)));
    EXPECT_EQ(got, expect) << "[" << lo << "," << hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeRangePropertyTest,
                         ::testing::Values(50, 500, 5000));

// ------------------------------------------------------------- Histogram

// Property: percentiles are monotone and bracket min/max for any dataset.
class HistogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramPropertyTest, PercentilesMonotoneAndBounded) {
  Histogram h;
  Rng rng(GetParam());
  for (int i = 0; i < 10000; ++i) {
    h.Record(rng.UniformInt(uint64_t{1}, GetParam()));
  }
  uint64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  EXPECT_GE(h.Percentile(0), h.Min() / 2);
  EXPECT_LE(h.Percentile(100), h.Max() * 2);
  EXPECT_GE(h.Mean(), static_cast<double>(h.Min()));
  EXPECT_LE(h.Mean(), static_cast<double>(h.Max()));
}

INSTANTIATE_TEST_SUITE_P(Ranges, HistogramPropertyTest,
                         ::testing::Values(10, 1000, 1000000, 4000000000ull));

// ------------------------------------------------------ Zipf / NURand RNG

class ZipfPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfPropertyTest, SkewOrderingHolds) {
  const double theta = GetParam();
  Rng rng(7);
  ZipfGenerator zipf(1000, theta);
  std::vector<uint64_t> counts(1001, 0);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    counts[v]++;
  }
  // Rank 1 must be the most frequent for any skew > 0.3.
  const uint64_t top = *std::max_element(counts.begin() + 1, counts.end());
  EXPECT_EQ(counts[1], top);
  // Head outweighs the uniform share.
  uint64_t head = 0;
  for (int i = 1; i <= 100; ++i) head += counts[i];
  EXPECT_GT(head, uint64_t(50000 * 100 / 1000));
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfPropertyTest,
                         ::testing::Values(0.5, 0.8, 0.99));

// --------------------------------------------- DORA serialization property

// Property: N clients × M increments through per-key X actions lose no
// updates, for any executor count — the thread-local locking must be
// airtight regardless of partitioning.
class DoraExecutorSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DoraExecutorSweepTest, NoLostUpdatesAnyExecutorCount) {
  const uint32_t executors = GetParam();
  Database db;
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  dora::DoraEngine engine(&db);
  engine.RegisterTable(table, 64, executors);
  engine.Start();

  constexpr int kKeys = 8, kThreads = 4, kIters = 60;
  Rid rids[kKeys];
  {
    auto dtxn = engine.BeginTxn();
    dtxn->AddPhase();
    for (int k = 0; k < kKeys; ++k) {
      dtxn->AddAction(table, uint64_t(k * 8), dora::LocalMode::kX,
                      [&db, &rids, k, table](dora::ActionEnv& env) {
                        return env.db->Insert(env.txn, table, "00000000",
                                              &rids[k],
                                              AccessOptions::RidOnly());
                      });
    }
    ASSERT_TRUE(engine.Run(dtxn).ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kIters; ++i) {
        const int k = static_cast<int>(rng.UniformInt(uint64_t{0},
                                                      uint64_t{kKeys - 1}));
        auto dtxn = engine.BeginTxn();
        dtxn->AddPhase().AddAction(
            table, uint64_t(k * 8), dora::LocalMode::kX,
            [&, k](dora::ActionEnv& env) -> Status {
              std::string val;
              DORADB_RETURN_NOT_OK(env.db->Read(env.txn, table, rids[k],
                                                &val, AccessOptions::NoCc()));
              char buf[9];
              std::snprintf(buf, sizeof(buf), "%08lu",
                            std::stoul(val) + 1);
              return env.db->Update(env.txn, table, rids[k],
                                    std::string_view(buf, 8),
                                    AccessOptions::NoCc());
            });
        if (!engine.Run(dtxn).ok()) failures++;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  uint64_t total = 0;
  for (int k = 0; k < kKeys; ++k) {
    std::string val;
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[k], &val).ok());
    total += std::stoul(val);
  }
  EXPECT_EQ(total, uint64_t(kThreads * kIters)) << "lost updates";
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(Executors, DoraExecutorSweepTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ------------------------------------------- TPC-B invariant under sweep

// Property: the TPC-B balance invariant survives any client count on
// either engine.
struct TpcbSweepParam {
  uint32_t clients;
  bool dora;
};

class TpcbInvariantSweepTest
    : public ::testing::TestWithParam<TpcbSweepParam> {};

TEST_P(TpcbInvariantSweepTest, BalancesAlwaysAgree) {
  const TpcbSweepParam p = GetParam();
  Database::Options dbo;
  dbo.lock.wait_timeout_us = 500000;
  Database db(dbo);
  tpcb::TpcbWorkload::Config cfg;
  cfg.branches = 3;
  cfg.tellers_per_branch = 4;
  cfg.accounts_per_branch = 100;
  tpcb::TpcbWorkload workload(&db, cfg);
  ASSERT_TRUE(workload.Load().ok());
  dora::DoraEngine engine(&db);
  workload.SetupDora(&engine);
  engine.Start();

  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < p.clients; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < 50; ++i) {
        if (p.dora) {
          (void)workload.RunDora(&engine, 0, rng);
        } else {
          (void)workload.RunBaseline(0, rng);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_TRUE(workload.CheckConsistency().ok())
      << (p.dora ? "dora" : "baseline") << " clients=" << p.clients;
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TpcbInvariantSweepTest,
    ::testing::Values(TpcbSweepParam{1, false}, TpcbSweepParam{4, false},
                      TpcbSweepParam{8, false}, TpcbSweepParam{1, true},
                      TpcbSweepParam{4, true}, TpcbSweepParam{8, true}));

// ------------------------------------------------------ SlottedPage fuzz

// Property: a random insert/delete/update schedule never corrupts the page
// (all surviving records read back intact) for any record size.
class SlottedPageFuzzTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SlottedPageFuzzTest, RandomScheduleKeepsRecordsIntact) {
  const size_t rec_size = GetParam();
  alignas(8) uint8_t buf[kPageSize];
  SlottedPage page(buf);
  page.Init(1, 1);
  Rng rng(rec_size);
  std::map<SlotId, std::string> model;
  for (int step = 0; step < 2000; ++step) {
    const uint64_t dice = rng.UniformInt(uint64_t{0}, uint64_t{9});
    if (dice < 5) {
      const std::string rec = rng.AString(rec_size / 2, rec_size);
      SlotId slot;
      if (page.Insert(rec, &slot).ok()) {
        model[slot] = rec;
      }
    } else if (dice < 8 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.UniformInt(uint64_t{0},
                                      uint64_t(model.size() - 1)));
      ASSERT_TRUE(page.Delete(it->first).ok());
      model.erase(it);
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.UniformInt(uint64_t{0},
                                      uint64_t(model.size() - 1)));
      const std::string rec = rng.AString(rec_size / 2, rec_size);
      if (page.Update(it->first, rec).ok()) {
        it->second = rec;
      }
    }
    if (step % 256 == 0) {
      for (const auto& [slot, rec] : model) {
        std::string_view out;
        ASSERT_TRUE(page.Get(slot, &out).ok());
        ASSERT_EQ(out, rec) << "slot " << slot << " step " << step;
      }
      ASSERT_EQ(page.record_count(), model.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RecordSizes, SlottedPageFuzzTest,
                         ::testing::Values(16, 64, 256, 1024));

}  // namespace
}  // namespace doradb
