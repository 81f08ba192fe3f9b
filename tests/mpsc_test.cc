// Tests for the lock-free executor-inbox substrate: the intrusive MPSC
// queue (multi-producer FIFO, park/wake races, stop delivery) and the
// global ticket line that replaces the §4.2.3 ordered-latch enqueue
// (including the deadlock-shaped interleaving it must rule out).

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "dora/ticket.h"
#include "util/mpsc_queue.h"

namespace doradb {
namespace {

struct TestNode : MpscNode {
  uint32_t producer = 0;
  uint64_t seq = 0;
};

// ------------------------------------------------------------- MpscQueue

TEST(MpscQueueTest, DrainReturnsFifo) {
  MpscQueue q;
  TestNode nodes[5];
  for (uint64_t i = 0; i < 5; ++i) {
    nodes[i].seq = i;
    q.Push(&nodes[i]);
  }
  MpscNode* chain = q.TryDrain();
  uint64_t expect = 0;
  while (chain != nullptr) {
    EXPECT_EQ(static_cast<TestNode*>(chain)->seq, expect++);
    chain = chain->next;
  }
  EXPECT_EQ(expect, 5u);
  EXPECT_EQ(q.TryDrain(), nullptr);
}

TEST(MpscQueueTest, MultiProducerPerProducerFifo) {
  constexpr uint32_t kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  MpscQueue q;
  std::vector<std::vector<TestNode>> nodes(kProducers);
  for (uint32_t p = 0; p < kProducers; ++p) {
    nodes[p].resize(kPerProducer);
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      nodes[p][i].producer = p;
      nodes[p][i].seq = i;
    }
  }
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) q.Push(&nodes[p][i]);
    });
  }
  // Consumer: mix parked and non-parked drains while producers run.
  uint64_t got = 0;
  uint64_t next_seq[kProducers] = {0, 0, 0, 0};
  while (got < kProducers * kPerProducer) {
    MpscNode* chain = q.TryDrain();
    if (chain == nullptr) chain = q.Park(/*timeout_us=*/1000);
    while (chain != nullptr) {
      auto* n = static_cast<TestNode*>(chain);
      chain = chain->next;
      // The batch is globally oldest-first, so each producer's items must
      // appear in strictly increasing sequence order.
      EXPECT_EQ(n->seq, next_seq[n->producer])
          << "per-producer FIFO violated for producer " << n->producer;
      next_seq[n->producer] = n->seq + 1;
      ++got;
    }
  }
  for (auto& t : producers) t.join();
  for (uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer);
  }
}

TEST(MpscQueueTest, ParkTimesOutWhenIdle) {
  MpscQueue q;
  EXPECT_EQ(q.Park(/*timeout_us=*/2000), nullptr);
  // The timed-out sentinel must have been retracted: a plain push must not
  // think the consumer is still parked forever, and the item must arrive.
  TestNode n;
  q.Push(&n);
  EXPECT_EQ(q.TryDrain(), &n);
}

TEST(MpscQueueTest, ParkWakesOnPush) {
  MpscQueue q;
  TestNode n;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(q.Push(&n)) << "push onto a parked consumer must wake it";
  });
  MpscNode* chain = q.Park(/*timeout_us=*/-1);
  EXPECT_EQ(chain, &n);
  producer.join();
  EXPECT_GE(q.wakeups(), 1u);
}

TEST(MpscQueueTest, CloseParkRaceDeliversEverythingOnce) {
  // Producers hammer a consumer that parks with tiny timeouts; a stop node
  // lands somewhere in the middle. Every node (including the stop) must be
  // delivered exactly once and the consumer must terminate.
  constexpr uint32_t kProducers = 3;
  constexpr uint64_t kPerProducer = 5000;
  MpscQueue q;
  std::vector<std::vector<TestNode>> nodes(kProducers);
  for (uint32_t p = 0; p < kProducers; ++p) {
    nodes[p].resize(kPerProducer);
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      nodes[p][i].producer = p + 1;  // 0 marks the stop node
      nodes[p][i].seq = i;
    }
  }
  TestNode stop_node;  // producer == 0
  std::atomic<uint64_t> delivered{0};
  std::atomic<bool> saw_stop{false};
  std::thread consumer([&] {
    bool stop = false;
    for (;;) {
      MpscNode* chain = q.TryDrain();
      if (chain == nullptr) {
        if (stop) return;  // drained empty after stop: done
        chain = q.Park(/*timeout_us=*/100);
        if (chain == nullptr) continue;
      }
      while (chain != nullptr) {
        auto* n = static_cast<TestNode*>(chain);
        chain = chain->next;
        if (n->producer == 0) {
          EXPECT_FALSE(saw_stop.exchange(true)) << "stop delivered twice";
          stop = true;
        } else {
          delivered.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) q.Push(&nodes[p][i]);
    });
  }
  for (auto& t : producers) t.join();
  q.Push(&stop_node);
  consumer.join();
  EXPECT_TRUE(saw_stop.load());
  EXPECT_EQ(delivered.load(), uint64_t{kProducers} * kPerProducer);
}

// ------------------------------------------------------------ TicketLine

TEST(TicketLineTest, HorizonAdvancesOnlyOverConsecutivePublishes) {
  dora::TicketLine line(64);
  const uint64_t t1 = line.Take();
  const uint64_t t2 = line.Take();
  EXPECT_EQ(t1, 1u);
  EXPECT_EQ(t2, 2u);
  EXPECT_EQ(line.horizon(), 0u);
  line.Publish(t2);  // out of order: a gap at t1 pins the horizon
  EXPECT_EQ(line.horizon(), 0u);
  line.Publish(t1);  // fills the gap; the horizon rolls over both
  EXPECT_EQ(line.horizon(), 2u);
  const uint64_t t3 = line.Take();
  line.Publish(t3);
  EXPECT_EQ(line.horizon(), 3u);
}

TEST(TicketLineTest, ConcurrentPublishersConverge) {
  dora::TicketLine line(1u << 12);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) line.Publish(line.Take());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(line.horizon(), uint64_t{kThreads} * kPerThread);
}

// The §4.2.3 property the tickets must restore: two multi-partition
// transactions must not interleave into a deadlock-shaped admission order.
// Adversarial schedule: T2 (later ticket) gets BOTH its enqueues in before
// T1 lands anywhere — with naive lock-free queues, executor 1 would admit
// T2 first while executor 2 admits T1 first, and the two transactions
// would block each other forever. The admission rule — defer a ticketed
// action until the horizon covers it, then drain once more and admit in
// ticket order — forces both executors to admit T1 before T2.
TEST(TicketLineTest, DeadlockShapedInterleavingIsReordered) {
  dora::TicketLine line(64);
  MpscQueue inbox[2];
  struct TicketedNode : MpscNode {
    uint64_t ticket = 0;
    int txn = 0;
  };
  TicketedNode t1_on_e0, t1_on_e1, t2_on_e0, t2_on_e1;

  // Dispatcher A takes its ticket first but is "preempted" mid-dispatch.
  const uint64_t ta = line.Take();
  // Dispatcher B dispatches T2 completely: both enqueues + publish.
  const uint64_t tb = line.Take();
  t2_on_e0.ticket = t2_on_e1.ticket = tb;
  t2_on_e0.txn = t2_on_e1.txn = 2;
  inbox[0].Push(&t2_on_e0);
  inbox[1].Push(&t2_on_e1);
  line.Publish(tb);

  // Executor 0 drains now: it sees only T2, whose ticket is NOT covered by
  // the horizon (T1 is still unpublished) — it must defer, not admit.
  auto drain_tickets = [](MpscQueue& q, std::vector<TicketedNode*>* out) {
    for (MpscNode* c = q.TryDrain(); c != nullptr;) {
      MpscNode* next = c->next;
      out->push_back(static_cast<TicketedNode*>(c));
      c = next;
    }
  };
  std::vector<TicketedNode*> deferred0;
  drain_tickets(inbox[0], &deferred0);
  ASSERT_EQ(deferred0.size(), 1u);
  EXPECT_EQ(deferred0[0]->txn, 2);
  EXPECT_LT(line.horizon(), deferred0[0]->ticket)
      << "T2 must not be admissible while T1 is unpublished";

  // Dispatcher A resumes: enqueues T1 everywhere and publishes.
  t1_on_e0.ticket = t1_on_e1.ticket = ta;
  t1_on_e0.txn = t1_on_e1.txn = 1;
  inbox[0].Push(&t1_on_e0);
  inbox[1].Push(&t1_on_e1);
  line.Publish(ta);
  ASSERT_GE(line.horizon(), tb);

  // Executor 0 observes the horizon, drains ONCE MORE (the admission
  // rule), and admits in ticket order: T1 strictly before T2.
  drain_tickets(inbox[0], &deferred0);
  std::stable_sort(deferred0.begin(), deferred0.end(),
                   [](const TicketedNode* a, const TicketedNode* b) {
                     return a->ticket < b->ticket;
                   });
  ASSERT_EQ(deferred0.size(), 2u);
  EXPECT_EQ(deferred0[0]->txn, 1);
  EXPECT_EQ(deferred0[1]->txn, 2);

  // Executor 1 drains fresh and admits the same order: no cycle possible.
  std::vector<TicketedNode*> deferred1;
  drain_tickets(inbox[1], &deferred1);
  std::stable_sort(deferred1.begin(), deferred1.end(),
                   [](const TicketedNode* a, const TicketedNode* b) {
                     return a->ticket < b->ticket;
                   });
  ASSERT_EQ(deferred1.size(), 2u);
  EXPECT_EQ(deferred1[0]->txn, 1);
  EXPECT_EQ(deferred1[1]->txn, 2);
}

// ------------------------------------------- engine-level integration

TEST(InboxEngineTest, ArenaRecyclesContextsAndCountsBatches) {
  Database db;
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  dora::DoraEngine engine(&db);
  engine.RegisterTable(table, 100, 2);
  engine.Start();
  for (int i = 0; i < 200; ++i) {
    auto dtxn = engine.BeginTxn();
    dtxn->AddPhase()
        .AddAction(table, 10, dora::LocalMode::kX,
                   [](dora::ActionEnv&) { return Status::OK(); })
        .AddAction(table, 90, dora::LocalMode::kX,
                   [](dora::ActionEnv&) { return Status::OK(); });
    ASSERT_TRUE(engine.Run(dtxn).ok());
  }
  const auto s = engine.CollectInboxStats();
  EXPECT_EQ(engine.txns_committed(), 200u);
  EXPECT_GE(s.actions, 400u);
  EXPECT_GT(s.batches, 0u);
  EXPECT_GE(s.items, s.batches);
  EXPECT_GT(s.tickets, 0u) << "two-executor phases must take tickets";
  // A closed loop reuses contexts: far fewer allocations than txns, and
  // recycling observed.
  EXPECT_LT(s.arena_allocs, 50u);
  EXPECT_GT(s.arena_recycles, 100u);
  engine.Stop();
}

TEST(InboxEngineTest, PinnedExecutorsRunTransactions) {
  Database db;
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  dora::DoraEngine::Options opts;
  opts.pin_threads = true;
  dora::DoraEngine engine(&db, opts);
  engine.RegisterTable(table, 100, 2);
  engine.Start();
  for (int i = 0; i < 50; ++i) {
    auto dtxn = engine.BeginTxn();
    dtxn->AddPhase().AddAction(table, static_cast<uint64_t>(i % 100),
                               dora::LocalMode::kX,
                               [](dora::ActionEnv&) { return Status::OK(); });
    ASSERT_TRUE(engine.Run(dtxn).ok());
  }
  EXPECT_EQ(engine.txns_committed(), 50u);
  engine.Stop();
}

}  // namespace
}  // namespace doradb
