// Shared scaffolding for the figure-reproduction benchmarks.
//
// Every bench binary regenerates one table/figure of the paper. The control
// variable is offered CPU load (clients relative to hardware contexts,
// §5.2); scales and durations default to CI-friendly values and can be
// raised via environment variables:
//   DORADB_BENCH_MS       per-point measurement window (default 700 ms)
//   DORADB_TM1_SUBS       TM1 subscribers            (default 20000)
//   DORADB_TPCB_BRANCHES  TPC-B branches             (default 8)
//   DORADB_TPCC_WH        TPC-C warehouses           (default 4)
//   DORADB_MAX_MULT       max clients as multiple of cores (default 4)
//   DORADB_EXECUTORS      DORA executors per table   (default 1; rigs that
//                         take an explicit executor count ignore this)
//   DORADB_PIN            1 = pin executors to cores by partition index
//
// Skew / live-repartitioning knobs:
//   DORADB_SKEW_THETA     >0: workload key picks (TM1 subscriber, TPC-B
//                         account) become Zipf(theta)-distributed by rank,
//                         rank 1 = lowest key — the hot set is contiguous
//                         so one range-partition executor soaks it up
//                         (default 0 = each workload's classic pick)
//   DORADB_REBALANCE      1 = run a RebalanceController per rig: consume
//                         the load heatmap and live-migrate hot routing
//                         ranges through the ticket-fenced cutover
//                         (default 0)
//   DORADB_REBALANCE_GAP  busy-fraction gap (hot - cold) that triggers a
//                         migration (default 0.25)
//   DORADB_REBALANCE_MS   controller cadence in ms (default 50)
//
// WAL knobs (both configurations benchable without recompiling):
//   DORADB_LOG_BACKEND    "central" (default: one partition every thread
//                         shares) or "plog"
//   DORADB_LOG_PARTITIONS plog partition count       (default 4)
//   DORADB_LOG_FLUSH_US   group-commit window in us  (default 50)
//   DORADB_LOG_SYNC       1 = flush inline on every append (default 0)
//
// Durable-mode knobs (file-backed segment log + pages.db):
//   DORADB_DATA_DIR       base directory; every rig gets a fresh private
//                         subdirectory under it (empty = in-memory media)
//   DORADB_LOG_SEGMENT_BYTES  segment roll target     (default 262144)
//
// Observability knobs (src/obs/):
//   DORADB_METRICS        0 = disable the metrics hot path (default 1)
//   DORADB_STATS_INTERVAL_MS  >0: every rig's Database runs a reporter
//                         thread printing "DORADB_STATS {json}" lines to
//                         stderr at this cadence (default 0 = off)
//   DORADB_TRACE_RING     >0: enable the commit-path tracer with rings of
//                         this many events per thread (default 0 = off)
//   DORADB_WATCHDOG_MS    stall-watchdog cadence (default 250, 0 = off)
//   DORADB_STALL_MS       heartbeat/horizon age that counts as a stall
//                         (default 2000)
//   DORADB_OBS_PORT       live metrics endpoint: unset/-1 off, 0 bind an
//                         ephemeral loopback port (announced via a
//                         "DORADB_OBS {json}" stderr line), >0 fixed port
//
// Storage fault-injection knobs (util/fault_injector.h; the plan is armed
// once per process, before the first rig's Database, so the occurrence
// counters run across every rig the binary builds):
//   DORADB_FAULT_OP       pwrite | fdatasync (also fsync) | open
//                         (unset = injector disarmed)
//   DORADB_FAULT_ERR      eio | enospc               (default eio)
//   DORADB_FAULT_NTH      1-based occurrence that faults (default 1)
//   DORADB_FAULT_STICKY   1 = fault every occurrence >= Nth (default 0)
//   DORADB_FAULT_MODE     error | short | torn  (pwrite only; default error)
//   DORADB_FAULT_PATH     substring filter on the target path

#ifndef DORADB_BENCH_BENCH_COMMON_H_
#define DORADB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dora/dora_engine.h"
#include "dora/rebalance.h"
#include "engine/database.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"
#include "workloads/common/driver.h"
#include "workloads/tm1/tm1.h"
#include "workloads/tpcb/tpcb.h"
#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace bench {

inline uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : std::strtoull(v, nullptr, 10);
}

inline double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : std::strtod(v, nullptr);
}

// The shared deterministic skew knob: every workload rig below feeds this
// into its Config, where a single util/rng.h ZipfGenerator (rank 1 = the
// lowest key id) replaces the uniform key pick. Deterministic given the
// client's seeded Rng; pinned by RebalanceTest.ZipfSkewGeneratorPinned.
inline double SkewTheta() { return EnvDouble("DORADB_SKEW_THETA", 0.0); }

inline bool RebalanceFromEnv() { return EnvU64("DORADB_REBALANCE", 0) != 0; }

inline uint64_t BenchMs() { return EnvU64("DORADB_BENCH_MS", 700); }

// Log options from driver flags: flush cadence, synchronous mode, and the
// partition count (LogBackendFromEnv) are runtime-settable so the same
// binary can A/B the central (one shared partition) and partitioned WAL.
inline plog::LogOptions LogOptionsFromEnv() {
  plog::LogOptions o;
  o.flush_interval_us = EnvU64("DORADB_LOG_FLUSH_US", o.flush_interval_us);
  o.synchronous = EnvU64("DORADB_LOG_SYNC", 0) != 0;
  return o;
}

// Engine options from driver flags: executor→core pinning (the NUMA
// roadmap's first step) is opt-in because hosts with fewer cores than
// executors + clients lose more to forced migration than they gain.
inline dora::DoraEngine::Options EngineOptionsFromEnv() {
  dora::DoraEngine::Options o;
  o.pin_threads = EnvU64("DORADB_PIN", 0) != 0;
  return o;
}

inline uint32_t ExecutorsFromEnv() {
  return static_cast<uint32_t>(EnvU64("DORADB_EXECUTORS", 1));
}

inline LogBackendKind LogBackendFromEnv() {
  const char* v = std::getenv("DORADB_LOG_BACKEND");
  if (v != nullptr && std::string(v) == "plog") {
    return LogBackendKind::kPartitioned;
  }
  return LogBackendKind::kCentral;
}

// Ladder of client counts expressed as offered-load steps up to
// DORADB_MAX_MULT x the hardware contexts (the >100% region reproduces the
// paper's overload behaviour, Fig. 6).
inline std::vector<uint32_t> ClientLadder() {
  const uint32_t hw = HardwareContexts();
  const uint32_t max_mult =
      static_cast<uint32_t>(EnvU64("DORADB_MAX_MULT", 4));
  std::vector<uint32_t> out;
  for (uint32_t c = 1; c < hw; c *= 2) out.push_back(c);
  for (uint32_t m = 1; m <= max_mult; m *= 2) out.push_back(hw * m);
  return out;
}

// Durable mode: DORADB_DATA_DIR makes every rig's WAL and page store
// file-backed. Each call claims a fresh private subdirectory (wiped first)
// so the several rigs a bench binary builds never adopt each other's
// segments; reuse the returned Options verbatim to REOPEN that same rig's
// directory in a second lifetime.
inline std::string ClaimRigDataDir() {
  const char* base = std::getenv("DORADB_DATA_DIR");
  if (base == nullptr || base[0] == '\0') return "";
  static std::atomic<uint64_t> next_rig{0};
  const std::string dir =
      std::string(base) + "/rig-" +
      std::to_string(next_rig.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// The DORADB_FAULT_* plan. An unknown op leaves the injector disarmed
// rather than faulting the wrong syscall.
inline FaultPlan FaultPlanFromEnv() {
  FaultPlan plan;
  const char* op = std::getenv("DORADB_FAULT_OP");
  if (op == nullptr || *op == '\0') return plan;
  if (std::strcmp(op, "pwrite") == 0) {
    plan.op = FaultOp::kPwrite;
  } else if (std::strcmp(op, "fdatasync") == 0 ||
             std::strcmp(op, "fsync") == 0) {
    plan.op = FaultOp::kFdatasync;
  } else if (std::strcmp(op, "open") == 0) {
    plan.op = FaultOp::kOpen;
  } else {
    return plan;
  }
  plan.err = EIO;
  if (const char* err = std::getenv("DORADB_FAULT_ERR")) {
    if (std::strcmp(err, "enospc") == 0) plan.err = ENOSPC;
  }
  if (const char* nth = std::getenv("DORADB_FAULT_NTH")) {
    const long long v = std::atoll(nth);
    if (v > 0) plan.nth = static_cast<uint64_t>(v);
  }
  if (const char* sticky = std::getenv("DORADB_FAULT_STICKY")) {
    plan.sticky = std::atoi(sticky) != 0;
  }
  if (const char* mode = std::getenv("DORADB_FAULT_MODE")) {
    if (std::strcmp(mode, "short") == 0) plan.mode = FaultMode::kShortWrite;
    if (std::strcmp(mode, "torn") == 0) plan.mode = FaultMode::kTorn;
  }
  if (const char* path = std::getenv("DORADB_FAULT_PATH")) {
    plan.path_substr = path;
  }
  return plan;
}

// Process-wide switches: observability and the fault plan. Applied once:
// the tracer's Enable clears every ring, and Arm zeroes the occurrence
// counters, so re-applying per rig would drop the spans collected by
// earlier rigs and refire a one-shot fault in every rig.
inline void ApplyProcessEnv() {
  static const bool applied = [] {
    if (EnvU64("DORADB_METRICS", 1) == 0) obs::SetMetricsEnabled(false);
    const uint64_t ring = EnvU64("DORADB_TRACE_RING", 0);
    if (ring > 0) obs::CommitTracer::Enable(static_cast<size_t>(ring));
    const FaultPlan plan = FaultPlanFromEnv();
    if (plan.op != FaultOp::kNone) FaultInjector::Default().Arm(plan);
    return true;
  }();
  (void)applied;
}

inline Database::Options DbOptions() {
  ApplyProcessEnv();
  Database::Options o;
  o.buffer_frames = 1 << 15;  // 256 MiB
  o.lock.wait_timeout_us = 1000000;
  o.log = LogOptionsFromEnv();
  o.log_backend = LogBackendFromEnv();
  o.log_partitions =
      static_cast<uint32_t>(EnvU64("DORADB_LOG_PARTITIONS", 4));
  o.data_dir = ClaimRigDataDir();
  o.log_segment_bytes = EnvU64("DORADB_LOG_SEGMENT_BYTES", 1 << 18);
  o.stats_interval_ms = EnvU64("DORADB_STATS_INTERVAL_MS", 0);
  o.watchdog_interval_ms = EnvU64("DORADB_WATCHDOG_MS", 250);
  o.stall_threshold_ms = EnvU64("DORADB_STALL_MS", 2000);
  const char* port = std::getenv("DORADB_OBS_PORT");
  if (port != nullptr && port[0] != '\0') o.obs_port = std::atoi(port);
  return o;
}

// A fully-loaded workload with its own database and started DORA engine.
template <typename W>
struct Rig {
  std::unique_ptr<Database> db;
  std::unique_ptr<W> workload;
  std::unique_ptr<dora::DoraEngine> engine;
  // DORADB_REBALANCE=1: the live-repartitioning controller. Declared after
  // engine so it destructs (and stops) first; Stop() is also called
  // explicitly before engine->Stop() for moved-from clarity.
  std::unique_ptr<dora::RebalanceController> rebalancer;

  Rig() = default;
  Rig(Rig&&) = default;
  Rig& operator=(Rig&&) = default;
  ~Rig() {
    if (rebalancer != nullptr) rebalancer->Stop();
    if (engine != nullptr) engine->Stop();
  }
};

// Arm a rig's live-repartitioning controller when DORADB_REBALANCE=1. The
// controller sweeps the heatmap itself, so it works whether or not the
// rig's watchdog is driving sweeps too (sweeps are diff-based — two
// sweepers just mean shorter windows).
template <typename W>
inline void MaybeStartRebalancer(Rig<W>* rig) {
  if (!RebalanceFromEnv()) return;
  dora::RebalanceController::Options o;
  o.min_busy_gap = EnvDouble("DORADB_REBALANCE_GAP", 0.25);
  o.interval_ms = EnvU64("DORADB_REBALANCE_MS", 50);
  rig->rebalancer = std::make_unique<dora::RebalanceController>(
      rig->engine.get(), o);
  rig->rebalancer->Start();
}

inline Rig<tm1::Tm1Workload> MakeTm1(uint32_t executors_per_table = 0,
                                     bool trace = false) {
  Rig<tm1::Tm1Workload> rig;
  rig.db = std::make_unique<Database>(DbOptions());
  tm1::Tm1Workload::Config cfg;
  cfg.subscribers = EnvU64("DORADB_TM1_SUBS", 20000);
  cfg.executors_per_table =
      executors_per_table != 0 ? executors_per_table : ExecutorsFromEnv();
  cfg.trace_subscriber_accesses = trace;
  cfg.skew_theta = SkewTheta();
  rig.workload = std::make_unique<tm1::Tm1Workload>(rig.db.get(), cfg);
  Status s = rig.workload->Load();
  if (!s.ok()) {
    std::fprintf(stderr, "TM1 load failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  rig.engine = std::make_unique<dora::DoraEngine>(rig.db.get(),
                                                  EngineOptionsFromEnv());
  rig.workload->SetupDora(rig.engine.get());
  rig.engine->Start();
  MaybeStartRebalancer(&rig);
  return rig;
}

// TPC-B rig with explicit database/engine options and executor counts —
// the log-scalability bench sweeps these.
inline Rig<tpcb::TpcbWorkload> MakeTpcbWith(
    Database::Options db_opts, dora::DoraEngine::Options engine_opts,
    uint32_t account_executors, uint32_t other_executors) {
  Rig<tpcb::TpcbWorkload> rig;
  rig.db = std::make_unique<Database>(db_opts);
  tpcb::TpcbWorkload::Config cfg;
  cfg.branches = EnvU64("DORADB_TPCB_BRANCHES", 8);
  cfg.accounts_per_branch = 2000;
  cfg.account_executors = account_executors;
  cfg.other_executors = other_executors;
  cfg.skew_theta = SkewTheta();
  rig.workload = std::make_unique<tpcb::TpcbWorkload>(rig.db.get(), cfg);
  Status s = rig.workload->Load();
  if (!s.ok()) {
    std::fprintf(stderr, "TPC-B load failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  rig.engine =
      std::make_unique<dora::DoraEngine>(rig.db.get(), engine_opts);
  rig.workload->SetupDora(rig.engine.get());
  rig.engine->Start();
  MaybeStartRebalancer(&rig);
  return rig;
}

inline Rig<tpcb::TpcbWorkload> MakeTpcb() {
  return MakeTpcbWith(DbOptions(), EngineOptionsFromEnv(),
                      /*account_executors=*/2, /*other_executors=*/1);
}

inline Rig<tpcc::TpccWorkload> MakeTpcc(uint32_t warehouses = 0,
                                        uint32_t executors_per_table = 0,
                                        bool trace = false) {
  Rig<tpcc::TpccWorkload> rig;
  rig.db = std::make_unique<Database>(DbOptions());
  tpcc::TpccWorkload::Config cfg;
  cfg.warehouses = warehouses != 0
                       ? warehouses
                       : static_cast<uint32_t>(EnvU64("DORADB_TPCC_WH", 4));
  cfg.customers_per_district = 300;
  cfg.items = 1000;
  cfg.executors_per_table =
      executors_per_table != 0 ? executors_per_table : ExecutorsFromEnv();
  cfg.trace_district_accesses = trace;
  rig.workload = std::make_unique<tpcc::TpccWorkload>(rig.db.get(), cfg);
  Status s = rig.workload->Load();
  if (!s.ok()) {
    std::fprintf(stderr, "TPC-C load failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  rig.engine = std::make_unique<dora::DoraEngine>(rig.db.get(),
                                                  EngineOptionsFromEnv());
  rig.workload->SetupDora(rig.engine.get());
  rig.engine->Start();
  MaybeStartRebalancer(&rig);
  return rig;
}

inline BenchConfig MakeConfig(EngineKind kind, dora::DoraEngine* engine,
                              uint32_t clients, int txn_type = -1) {
  BenchConfig cfg;
  cfg.engine = kind;
  cfg.dora_engine = engine;
  cfg.num_clients = clients;
  cfg.duration_ms = BenchMs();
  cfg.warmup_ms = BenchMs() / 4;
  cfg.txn_type = txn_type;
  return cfg;
}

// One-line summary of the engine's inbox/arena counters over a measured
// window (pass the delta of two CollectInboxStats snapshots).
inline void PrintInboxStats(const dora::DoraEngine::InboxStats& d) {
  std::printf(
      "    dora inbox: batches=%llu actions_per_drain=%.2f "
      "wakeups_per_action=%.3f tickets=%llu arena_recycles=%llu\n",
      static_cast<unsigned long long>(d.batches), d.actions_per_drain(),
      d.wakeups_per_action(), static_cast<unsigned long long>(d.tickets),
      static_cast<unsigned long long>(d.arena_recycles));
}

// --- machine-readable results ---------------------------------------------
// Every bench binary ends with exactly one line of the form
//   BENCH_JSON {"bench":"<name>","hw_contexts":N,"window_ms":N,"rows":[...]}
// so sweeps can be scraped without parsing the human tables. Row fields are
// per-bench; rows built from a BenchResult share the standard set below.

inline std::string JsonNum(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";  // NaN/inf guard
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

class JsonRow {
 public:
  JsonRow& Str(const char* key, const std::string& v) {
    Key(key);
    body_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') body_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;  // keep it simple
      body_ += c;
    }
    body_ += '"';
    return *this;
  }
  JsonRow& Num(const char* key, double v) {
    Key(key);
    body_ += JsonNum(v);
    return *this;
  }
  JsonRow& Int(const char* key, uint64_t v) {
    Key(key);
    body_ += std::to_string(v);
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const char* key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
  }
  std::string body_;
};

inline const char* EngineName(EngineKind kind) {
  return kind == EngineKind::kBaseline ? "base" : "dora";
}

inline JsonRow ResultRow(const char* workload, const char* engine,
                         uint32_t clients, const BenchResult& r) {
  JsonRow row;
  row.Str("workload", workload)
      .Str("engine", engine)
      .Int("clients", clients)
      .Num("load_pct", r.offered_load_pct)
      .Num("tps", r.throughput_tps)
      .Int("committed", r.committed)
      .Int("user_aborts", r.user_aborts)
      .Int("system_aborts", r.system_aborts)
      .Int("latency_p50_ns", r.latency->Percentile(50))
      .Int("latency_p99_ns", r.latency->Percentile(99));
  return row;
}

// Per-executor skew probe: snapshot every executor's busy cycles and
// queue-wait buckets at window start, fold min/max busy fraction and the
// worst per-executor windowed queue-wait p50/p99 into a BENCH_JSON row at
// window end. A balanced run shows busy_min ≈ busy_max; a hot logical
// partition shows up as one executor pinned at ~1.0 while others idle.
class SkewProbe {
 public:
  explicit SkewProbe(dora::DoraEngine* engine) : engine_(engine) {
    start_tsc_ = Cycles::Now();
    for (dora::Executor* e : engine_->AllExecutors()) {
      Base b;
      b.busy_cycles = e->busy_cycles();
      const Histogram* h = e->queue_wait_hist();
      for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        b.qwait_buckets[i] = h->BucketCount(i);
      }
      base_[e->global_index()] = b;
    }
  }

  // Adds exec_busy_min/exec_busy_max and the worst executor's windowed
  // queue-wait p50/p99 (exec_qwait_p50_max_ns/exec_qwait_p99_max_ns).
  void Fold(JsonRow* row) const {
    const uint64_t now = Cycles::Now();
    const double span = static_cast<double>(now - start_tsc_);
    double busy_min = 1.0, busy_max = 0.0;
    uint64_t p50_max = 0, p99_max = 0;
    bool any = false;
    for (dora::Executor* e : engine_->AllExecutors()) {
      auto it = base_.find(e->global_index());
      if (it == base_.end() || span <= 0) continue;
      any = true;
      const double busy =
          static_cast<double>(e->busy_cycles() - it->second.busy_cycles) /
          span;
      busy_min = std::min(busy_min, busy);
      busy_max = std::max(busy_max, busy > 1.0 ? 1.0 : busy);
      std::array<uint64_t, Histogram::kNumBuckets> delta{};
      uint64_t total = 0;
      const Histogram* h = e->queue_wait_hist();
      for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        delta[i] = h->BucketCount(i) - it->second.qwait_buckets[i];
        total += delta[i];
      }
      p50_max = std::max(
          p50_max, obs::LoadHeatmap::DeltaPercentile(delta, total, 50.0));
      p99_max = std::max(
          p99_max, obs::LoadHeatmap::DeltaPercentile(delta, total, 99.0));
    }
    if (!any) return;
    row->Num("exec_busy_min", busy_min > busy_max ? 0.0 : busy_min)
        .Num("exec_busy_max", busy_max)
        .Int("exec_qwait_p50_max_ns", p50_max)
        .Int("exec_qwait_p99_max_ns", p99_max);
  }

 private:
  struct Base {
    uint64_t busy_cycles = 0;
    std::array<uint64_t, Histogram::kNumBuckets> qwait_buckets{};
  };
  dora::DoraEngine* const engine_;
  uint64_t start_tsc_ = 0;
  std::map<uint32_t, Base> base_;
};

// Windowed live-repartitioning probe: deltas of the process-wide rebalance
// counters, so a bench row records how many migrations the controller
// committed during its window (0 when DORADB_REBALANCE is off).
class RebalanceProbe {
 public:
  RebalanceProbe() {
    auto& reg = obs::MetricsRegistry::Default();
    splits0_ = reg.GetCounter("dora.rebalance.splits")->Value();
    moved0_ = reg.GetCounter("dora.rebalance.moved_ranges")->Value();
  }

  uint64_t Splits() const {
    return obs::MetricsRegistry::Default()
               .GetCounter("dora.rebalance.splits")
               ->Value() -
           splits0_;
  }
  uint64_t MovedRanges() const {
    return obs::MetricsRegistry::Default()
               .GetCounter("dora.rebalance.moved_ranges")
               ->Value() -
           moved0_;
  }

  // Adds the skew/rebalance columns every DORA row carries when the knobs
  // are in play: the offered skew, whether the controller was armed, and
  // the migrations it landed during the window.
  void Fold(JsonRow* row) const {
    row->Num("skew_theta", SkewTheta())
        .Int("rebalance", RebalanceFromEnv() ? 1 : 0)
        .Int("rebalance_splits", Splits())
        .Int("rebalance_moved_ranges", MovedRanges());
  }

 private:
  uint64_t splits0_ = 0;
  uint64_t moved0_ = 0;
};

class BenchJson {
 public:
  static BenchJson& Default() {
    static BenchJson b;
    return b;
  }
  void Add(const JsonRow& row) { rows_.push_back(row.Done()); }
  // Print the single BENCH_JSON line (call once, last thing in main).
  void Emit(const char* bench) {
    std::string out = "{\"bench\":\"";
    out += bench;
    out += "\",\"hw_contexts\":" + std::to_string(HardwareContexts());
    out += ",\"window_ms\":" + std::to_string(BenchMs());
    out += ",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ',';
      out += rows_[i];
    }
    out += "]}";
    std::printf("BENCH_JSON %s\n", out.c_str());
    std::fflush(stdout);
    rows_.clear();
  }

 private:
  std::vector<std::string> rows_;
};

inline void PrintHeader(const char* fig, const char* desc) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", fig, desc);
  std::printf("hardware contexts: %u | window: %lu ms\n", HardwareContexts(),
              static_cast<unsigned long>(BenchMs()));
  std::printf("=============================================================\n");
}

}  // namespace bench
}  // namespace doradb

#endif  // DORADB_BENCH_BENCH_COMMON_H_
