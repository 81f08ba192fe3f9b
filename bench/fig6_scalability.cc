// Figure 6: throughput as offered CPU load increases — TM1 (mix), TPC-B,
// and TPC-C OrderStatus; Baseline vs. DORA.
//
// Paper shape: Baseline stops scaling early (worst on TM1) and collapses
// past 100% offered load (preempted latch holders); DORA scales to the
// hardware limit and stays flat in overload.

#include "bench_common.h"

using namespace doradb;
using namespace doradb::bench;

namespace {

template <typename W>
void Sweep(const char* label, W* workload, dora::DoraEngine* engine,
           int txn_type) {
  std::printf("\n--- %s ---\n", label);
  std::printf("%-10s %14s %14s\n", "load%", "BASE tps", "DORA tps");
  for (uint32_t clients : ClientLadder()) {
    double tps[2] = {0, 0};
    double load = 0;
    int i = 0;
    dora::DoraEngine::InboxStats delta;
    for (const EngineKind kind : {EngineKind::kBaseline, EngineKind::kDora}) {
      ThreadStats::ResetAll();
      const auto s0 = engine->CollectInboxStats();
      // Per-executor skew over the DORA window: min/max busy fraction and
      // the worst executor's windowed queue-wait percentiles land on the
      // DORA row, making load imbalance visible per ladder step.
      SkewProbe skew(engine);
      RebalanceProbe rebalance;
      const BenchResult r =
          RunBench(workload, MakeConfig(kind, engine, clients, txn_type));
      if (kind == EngineKind::kDora) {
        delta = engine->CollectInboxStats() - s0;
      }
      tps[i++] = r.throughput_tps;
      load = r.offered_load_pct;
      JsonRow row = ResultRow(label, EngineName(kind), clients, r);
      if (kind == EngineKind::kDora) {
        skew.Fold(&row);
        // Inbox wakeup amortization for this ladder step.
        row.Num("wakeups_per_action", delta.wakeups_per_action());
        // Skew/rebalance A/B columns: with DORADB_SKEW_THETA>0 and
        // DORADB_REBALANCE=1 the exec_busy_max-exec_busy_min gap above
        // should shrink as migrations land.
        rebalance.Fold(&row);
      }
      BenchJson::Default().Add(row);
    }
    std::printf("%-10.0f %14.0f %14.0f\n", load, tps[0], tps[1]);
    // Inbox efficiency at this load: batch draining should hold executor
    // wakeups-per-action below 1 (well below once queues stay non-empty).
    PrintInboxStats(delta);
  }
}

}  // namespace

int main() {
  PrintHeader("Figure 6", "throughput vs offered CPU load");
  {
    auto tm1 = MakeTm1();
    Sweep("TM1 (mix)", tm1.workload.get(), tm1.engine.get(), -1);
  }
  {
    auto tpcb = MakeTpcb();
    Sweep("TPC-B", tpcb.workload.get(), tpcb.engine.get(), -1);
  }
  {
    auto tpcc = MakeTpcc();
    Sweep("TPC-C OrderStatus", tpcc.workload.get(), tpcc.engine.get(),
          tpcc::kOrderStatus);
  }
  std::printf(
      "\nexpected shape: DORA >= BASE everywhere; the gap is widest on TM1;\n"
      "past 100%% offered load BASE degrades while DORA holds.\n");
  BenchJson::Default().Emit("fig6_scalability");
  return 0;
}
