// Substrate micro-benchmarks (google-benchmark): the primitive costs that
// the paper's argument is built on — uncontended vs contended lock-manager
// acquires, DORA local-lock acquires, B+Tree probes, log appends, latch
// round-trips.

#include <benchmark/benchmark.h>

#include "dora/local_lock_table.h"
#include "engine/database.h"
#include "storage/btree.h"
#include "util/spinlock.h"

namespace doradb {
namespace {

void BM_TatasUncontended(benchmark::State& state) {
  TatasLock lock;
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
}
BENCHMARK(BM_TatasUncontended);

void BM_McsUncontended(benchmark::State& state) {
  McsLock lock;
  for (auto _ : state) {
    McsLock::QNode qn;
    lock.Lock(&qn);
    lock.Unlock(&qn);
  }
}
BENCHMARK(BM_McsUncontended);

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  LockManager lm;
  uint64_t i = 0;
  for (auto _ : state) {
    Transaction txn(++i);
    lm.RegisterTxn(&txn);
    benchmark::DoNotOptimize(
        lm.LockRow(&txn, 1, Rid{static_cast<PageId>(i % 4096), 0},
                   LockMode::kX));
    lm.ReleaseAll(&txn);
    lm.UnregisterTxn(txn.id());
  }
}
BENCHMARK(BM_LockManagerAcquireRelease);

void BM_LockManagerContended(benchmark::State& state) {
  // All threads hammer the same row in S mode: compatible, but every
  // acquire/release latches the same lock head — the paper's §3 story.
  static LockManager* lm = new LockManager();
  static std::atomic<uint64_t> next_id{1};
  for (auto _ : state) {
    Transaction txn(next_id.fetch_add(1));
    lm->RegisterTxn(&txn);
    benchmark::DoNotOptimize(lm->LockRow(&txn, 1, Rid{7, 7}, LockMode::kS));
    lm->ReleaseAll(&txn);
    lm->UnregisterTxn(txn.id());
  }
}
BENCHMARK(BM_LockManagerContended)->Threads(1)->Threads(2)->Threads(4);

void BM_DoraLocalLock(benchmark::State& state) {
  Database db;
  dora::LocalLockTable table;
  uint64_t i = 0;
  for (auto _ : state) {
    dora::DoraTxn dtxn(&db, db.Begin());
    dora::Action a;
    a.dtxn = &dtxn;
    a.routing_value = i++ % 4096;
    a.mode = dora::LocalMode::kX;
    benchmark::DoNotOptimize(table.TryAcquire(&a));
    std::vector<dora::Action*> runnable;
    table.ReleaseAll(&dtxn, &runnable);
    (void)db.Abort(dtxn.txn());
  }
}
BENCHMARK(BM_DoraLocalLock);

void BM_BtreeProbe(benchmark::State& state) {
  static DiskManager* disk = new DiskManager();
  static BufferPool* pool = new BufferPool(disk, 1 << 14);
  static BTree* tree = [] {
    auto* t = new BTree(pool, 0, true);
    for (uint64_t i = 0; i < 100000; ++i) {
      KeyBuilder kb;
      kb.Add64(i);
      (void)t->Insert(kb.View(), IndexEntry{Rid{PageId(i), 0}, i, false});
    }
    return t;
  }();
  uint64_t i = 0;
  for (auto _ : state) {
    KeyBuilder kb;
    kb.Add64(i++ % 100000);
    IndexEntry out;
    benchmark::DoNotOptimize(tree->Probe(kb.View(), &out));
  }
}
BENCHMARK(BM_BtreeProbe)->Threads(1)->Threads(2);

void BM_BtreeInsert(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 1 << 14);
  BTree tree(&pool, 0, true);
  uint64_t i = 0;
  for (auto _ : state) {
    KeyBuilder kb;
    kb.Add64(i++);
    benchmark::DoNotOptimize(
        tree.Insert(kb.View(), IndexEntry{Rid{PageId(i), 0}, i, false}));
  }
}
BENCHMARK(BM_BtreeInsert);

// Every thread appends through one shared partition latch: the central
// log's append path.
void BM_LogAppend(benchmark::State& state) {
  static LogBackend* log = [] {
    LogBackend::Options o;
    o.num_partitions = 1;
    return new LogBackend(o);
  }();
  for (auto _ : state) {
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.txn = 1;
    rec.before.assign(64, 'b');
    rec.after.assign(64, 'a');
    benchmark::DoNotOptimize(log->Append(&rec));
  }
}
BENCHMARK(BM_LogAppend)->Threads(1)->Threads(2)->Threads(4);

void BM_HeapInsertRead(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 1 << 14);
  HeapFile heap(&pool, 0);
  const std::string rec(100, 'r');
  for (auto _ : state) {
    Rid rid;
    benchmark::DoNotOptimize(heap.Insert(rec, &rid));
    std::string out;
    benchmark::DoNotOptimize(heap.Get(rid, &out));
  }
}
BENCHMARK(BM_HeapInsertRead);

}  // namespace
}  // namespace doradb

BENCHMARK_MAIN();
