// Figure 8: maximum throughput under perfect admission control — for each
// system and workload, sweep the offered load and report the peak (and the
// load at which it was achieved).
//
// Paper shape: DORA peaks higher on every workload (up to +82%), and
// reaches its peak closer to full utilization. TPC-C/TPC-B gains are
// smaller (less lock contention to remove; the log manager becomes the
// bottleneck, §5.4).

#include "bench_common.h"

using namespace doradb;
using namespace doradb::bench;

namespace {

struct Peak {
  double tps = 0;
  double at_load = 0;
};

template <typename W>
void FindPeaks(const char* label, W* workload, dora::DoraEngine* engine,
               int txn_type) {
  // Two ladders on the same rig: Baseline, then DORA.
  Peak peaks[2];
  int i = 0;
  const auto s0 = engine->CollectInboxStats();
  RebalanceProbe rebalance;
  // Skew over the DORA ladder only: constructed at the first DORA point so
  // the baseline sweep's idle executors don't dilute the window.
  std::unique_ptr<SkewProbe> skew;
  for (const EngineKind kind : {EngineKind::kBaseline, EngineKind::kDora}) {
    if (kind == EngineKind::kDora) skew = std::make_unique<SkewProbe>(engine);
    for (uint32_t clients : ClientLadder()) {
      ThreadStats::ResetAll();
      const BenchResult r =
          RunBench(workload, MakeConfig(kind, engine, clients, txn_type));
      if (r.throughput_tps > peaks[i].tps) {
        peaks[i].tps = r.throughput_tps;
        peaks[i].at_load = r.offered_load_pct;
      }
    }
    ++i;
  }
  std::printf("%-28s %10.0f @%4.0f%% %10.0f @%4.0f%% %8.2fx\n", label,
              peaks[0].tps, peaks[0].at_load, peaks[1].tps, peaks[1].at_load,
              peaks[0].tps > 0 ? peaks[1].tps / peaks[0].tps : 0.0);
  PrintInboxStats(engine->CollectInboxStats() - s0);
  JsonRow row;
  row.Str("workload", label)
      .Num("base_peak_tps", peaks[0].tps)
      .Num("base_peak_load_pct", peaks[0].at_load)
      .Num("dora_peak_tps", peaks[1].tps)
      .Num("dora_peak_load_pct", peaks[1].at_load)
      .Num("speedup", peaks[0].tps > 0 ? peaks[1].tps / peaks[0].tps : 0);
  skew->Fold(&row);
  rebalance.Fold(&row);
  BenchJson::Default().Add(row);
}

}  // namespace

int main() {
  PrintHeader("Figure 8", "peak throughput under perfect admission control");
  std::printf("\n%-28s %17s %17s %9s\n", "workload", "BASE peak",
              "DORA peak", "DORA/BASE");
  {
    auto tm1 = MakeTm1();
    FindPeaks("TM1 (mix)", tm1.workload.get(), tm1.engine.get(), -1);
  }
  {
    auto tpcb = MakeTpcb();
    FindPeaks("TPC-B", tpcb.workload.get(), tpcb.engine.get(), -1);
  }
  {
    auto tpcc = MakeTpcc();
    FindPeaks("TPC-C NewOrder", tpcc.workload.get(), tpcc.engine.get(),
              tpcc::kNewOrder);
    FindPeaks("TPC-C Payment", tpcc.workload.get(), tpcc.engine.get(),
              tpcc::kPayment);
    FindPeaks("TPC-C OrderStatus", tpcc.workload.get(), tpcc.engine.get(),
              tpcc::kOrderStatus);
  }
  std::printf(
      "\nexpected shape (paper, 64 contexts): DORA/BASE > 1 everywhere,\n"
      "largest on TM1. On few-core hosts the Baseline may out-peak DORA at\n"
      "low load (no contention to remove); the paper-consistent signal is\n"
      "that DORA peaks at/beyond 100%% offered load while the Baseline must\n"
      "be throttled to its uncontended region (run-to-run spread:\n"
      "perfbench/README.md, \"Measured spread\").\n");
  BenchJson::Default().Emit("fig8_peak_throughput");
  return 0;
}
