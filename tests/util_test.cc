// Unit tests for the util substrate: spin latches (TATAS, MCS), the
// reader-writer latch, the time-breakdown accounting
// machinery, and RNG distributions.

#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/rng.h"
#include "util/rwlatch.h"
#include "util/spinlock.h"
#include "util/sync_stats.h"

namespace doradb {
namespace {

// ----------------------------------------------------------------- latches

template <typename LockFn, typename UnlockFn>
void HammerCounter(int threads, int iters, LockFn lock, UnlockFn unlock,
                   int64_t* counter) {
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        lock();
        ++*counter;  // data race iff mutual exclusion broken
        unlock();
      }
    });
  }
  for (auto& th : ts) th.join();
}

TEST(TatasLockTest, MutualExclusion) {
  TatasLock lock;
  int64_t counter = 0;
  HammerCounter(4, 20000, [&] { lock.Lock(); }, [&] { lock.Unlock(); },
                &counter);
  EXPECT_EQ(counter, 4 * 20000);
}

TEST(TatasLockTest, TryLockFailsWhenHeld) {
  TatasLock lock;
  lock.Lock();
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

TEST(McsLockTest, MutualExclusion) {
  // MCS needs the queue node visible to both lock and unlock, so the
  // generic helper does not fit; hammer explicitly.
  McsLock lock;
  int64_t counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        McsLock::QNode qn;
        lock.Lock(&qn);
        ++counter;
        lock.Unlock(&qn);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(counter, 4 * 20000);
}

TEST(McsLockTest, GuardIsFifoUnderContention) {
  // Rough FIFO check: with heavy contention, no thread should starve.
  McsLock lock;
  std::vector<int> per_thread(4, 0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        McsGuard g(lock);
        per_thread[t]++;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop = true;
  for (auto& th : ts) th.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_GT(per_thread[t], 0) << "thread " << t << " starved";
  }
}

TEST(RwLatchTest, ManyReadersCoexist) {
  RwLatch latch;
  latch.ReadLock();
  EXPECT_TRUE(latch.TryReadLock());
  EXPECT_FALSE(latch.TryWriteLock());
  latch.ReadUnlock();
  latch.ReadUnlock();
  EXPECT_TRUE(latch.TryWriteLock());
  latch.WriteUnlock();
}

TEST(RwLatchTest, WriterExcludesEveryone) {
  RwLatch latch;
  latch.WriteLock();
  EXPECT_FALSE(latch.TryReadLock());
  EXPECT_FALSE(latch.TryWriteLock());
  latch.WriteUnlock();
}

TEST(RwLatchTest, ReadersWritersStress) {
  RwLatch latch;
  int64_t value = 0;
  std::atomic<bool> torn{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 2; ++t) {
    ts.emplace_back([&] {  // writers: keep value = 2k
      for (int i = 0; i < 5000; ++i) {
        WriteGuard g(latch);
        ++value;
        ++value;
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    ts.emplace_back([&] {  // readers: must never observe odd value
      while (!stop.load()) {
        ReadGuard g(latch);
        if (value % 2 != 0) torn = true;
      }
    });
  }
  ts[0].join();
  ts[1].join();
  stop = true;
  ts[2].join();
  ts[3].join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(value, 2 * 2 * 5000);
}

// -------------------------------------------------------------- sync stats

TEST(SyncStatsTest, ScopedTimeClassAttributesNested) {
  ThreadStats& stats = ThreadStats::Local();
  stats.Reset();
  {
    ScopedTimeClass outer(TimeClass::kWork);
    const uint64_t t0 = Cycles::Now();
    while (Cycles::Now() - t0 < 100000) {
    }
    {
      ScopedTimeClass inner(TimeClass::kLockAcquire);
      const uint64_t t1 = Cycles::Now();
      while (Cycles::Now() - t1 < 100000) {
      }
    }
  }
  stats.Flush();
  const StatsSnapshot s = stats.Snapshot();
  EXPECT_GT(s.Cycles(TimeClass::kWork), 50000u);
  EXPECT_GT(s.Cycles(TimeClass::kLockAcquire), 50000u);
  // Inner time must NOT be double counted as outer.
  EXPECT_LT(s.Cycles(TimeClass::kWork), 200000u);
}

TEST(SyncStatsTest, FractionsSumToOne) {
  ThreadStats& stats = ThreadStats::Local();
  stats.Reset();
  {
    ScopedTimeClass work(TimeClass::kWork);
    const uint64_t t0 = Cycles::Now();
    while (Cycles::Now() - t0 < 50000) {
    }
  }
  stats.Flush();
  const StatsSnapshot s = stats.Snapshot();
  double total = 0;
  for (size_t i = 1; i < kNumTimeClasses; ++i) {
    total += s.Fraction(static_cast<TimeClass>(i));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SyncStatsTest, LockCountersAccumulate) {
  ThreadStats& stats = ThreadStats::Local();
  stats.Reset();
  stats.CountLock(LockCounter::kRowLevel, 3);
  stats.CountLock(LockCounter::kDoraLocal);
  const StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.Locks(LockCounter::kRowLevel), 3u);
  EXPECT_EQ(s.Locks(LockCounter::kDoraLocal), 1u);
  EXPECT_EQ(s.Locks(LockCounter::kHigherLevel), 0u);
}

TEST(SyncStatsTest, AggregateSeesOtherThreads) {
  const StatsSnapshot before = ThreadStats::AggregateSnapshot();
  std::thread worker([] {
    ThreadStats::Local().CountLock(LockCounter::kHigherLevel, 7);
    ThreadStats::Local().Flush();
  });
  worker.join();
  const StatsSnapshot after = ThreadStats::AggregateSnapshot();
  EXPECT_EQ(after.Locks(LockCounter::kHigherLevel) -
                before.Locks(LockCounter::kHigherLevel),
            7u);
}

// --------------------------------------------------------------------- rng

TEST(SyncStatsTest, DurabilityStreamCountsLiveInTheRegistry) {
  constexpr uint32_t kStream = 77;
  auto row_for = [](uint32_t stream) -> std::optional<DurabilityStats::Row> {
    for (const auto& row : DurabilityStats::Snapshot()) {
      if (row.stream == stream) return row;
    }
    return std::nullopt;
  };
  const DurabilityStats::Stream stream(kStream);
  EXPECT_FALSE(row_for(kStream)) << "no row before the first count";
  stream.Count(DurabilityCounter::kFsyncCalls);
  stream.Count(DurabilityCounter::kBytesFlushed, 4096);
  const std::optional<DurabilityStats::Row> row = row_for(kStream);
  ASSERT_TRUE(row);
  EXPECT_EQ(row->counts[static_cast<size_t>(DurabilityCounter::kFsyncCalls)],
            1u);
  EXPECT_EQ(
      row->counts[static_cast<size_t>(DurabilityCounter::kBytesFlushed)],
      4096u);
  EXPECT_EQ(obs::MetricsRegistry::Default()
                .GetCounter("durability.log-77.fsyncs")
                ->Value(),
            1u);
  DurabilityStats::Reset();
  EXPECT_FALSE(row_for(kStream)) << "a snapshot after Reset is empty";
  stream.Count(DurabilityCounter::kSegmentsSealed);
  EXPECT_TRUE(row_for(kStream)) << "the stream counts again";
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.UniformInt(uint64_t{10}, uint64_t{20});
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, NURandRespectsBounds) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NURand(255, 1, 3000);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 3000u);
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 500u) << "NURand should spread widely";
}

TEST(RngTest, TatpSubscriberIdInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.TatpSubscriberId(100000);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100000u);
  }
}

TEST(RngTest, LastNameMatchesSpecExamples) {
  // TPC-C 4.3.2.3 syllables.
  EXPECT_EQ(Rng::LastName(0), "BARBARBAR");
  EXPECT_EQ(Rng::LastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(Rng::LastName(999), "EINGEINGEING");
}

TEST(RngTest, PermutationIsBijective) {
  Rng rng(4);
  auto p = rng.Permutation(1000);
  std::set<uint32_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 999u);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, AStringLengthBounds) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::string s = rng.AString(3, 9);
    EXPECT_GE(s.size(), 3u);
    EXPECT_LE(s.size(), 9u);
  }
}

}  // namespace
}  // namespace doradb
