// perfbench: the canonical closed-loop benchmark. One process runs one
// workload:
//
//   perfbench --workload <tm1-dora|tpcb-durable|tpcc-base|tpcc-dora>
//             --seed N --seconds S --trace 0|1 --data-dir DIR
//
// --trace 0 sets the workload up kSetups times (setup_s is the median),
// warms up, measures one S-second window and reports the end-to-end
// metrics. --trace 1 sets up once, probes every layer over the S-second
// window with obs::CommitTracer on in alternate seconds, and reports the
// per-layer metrics plus the tracing overhead. Both modes then run the
// correctness checks (CheckConsistency, the working-set eviction property,
// and for tpcb-durable a kill + reopen + Recover with an acknowledged-
// commit check); any violation exits 1 without printing a result.
//
// Human-readable lines go to stdout first; the last stdout line is one JSON
// object {"correct","attempted","failed","metrics"}. Every engine option
// is pinned below: the benchmark refuses to run with DORADB_* set.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client_loop.h"
#include "layer_probe.h"
#include "obs/trace.h"
#include "workloads/tm1/tm1.h"
#include "workloads/tpcb/tpcb.h"
#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace perfbench {
namespace {

constexpr uint32_t kClients = 4;  // = the 4 hardware contexts: 100% load
constexpr int kSetups = 3;        // setup_s is the median of these
constexpr double kWarmupSeconds = 2.0;
// Per-thread commit-tracer ring (events); 24 B each.
constexpr size_t kTraceRingEvents = size_t{1} << 17;

enum class Kind { kTm1Dora, kTpcbDurable, kTpccBase, kTpccDora };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data_dir;
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);  // skip destructors of a possibly wedged engine
}

void Check(const char* what, const Status& s) {
  if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
}

// ---- pinned configuration -------------------------------------------------

// TPC-B account table: 8 branches x 25,000 accounts = 200,000 rows of
// ~64 B; at ~100 rows per 8 KiB page the heap alone is ~2,000 pages, so the
// 1,024-frame pool below cannot hold it.
constexpr uint64_t kTpcbBranches = 8;
constexpr uint64_t kTpcbAccountsPerBranch = 25000;
constexpr size_t kTpcbPoolFrames = 1024;

Database::Options BaseDbOptions() {
  Database::Options o;
  o.lock.wait_timeout_us = 1000000;
  o.lock.detect_interval_us = 500;
  o.lock.deadlock_detection = true;
  o.log.flush_interval_us = 50;
  o.log.synchronous = false;
  o.log.idle_sync_skip_ticks = 64;
  o.checkpoint.enabled = false;
  o.log_segment_bytes = 1 << 20;
  o.stats_interval_ms = 0;
  o.watchdog_interval_ms = 250;  // production default
  o.stall_threshold_ms = 2000;
  o.obs_port = -1;
  return o;
}

dora::DoraEngine::Options EngineOptions() {
  dora::DoraEngine::Options o;
  o.pin_threads = false;
  o.hold_table_locks = true;
  o.local_wait_timeout_us = 150000;
  o.pipelined_commit = true;
  o.epoch_batch_min = 0;  // epoch batching off
  return o;
}

tpcc::TpccWorkload::Config TpccConfig() {
  tpcc::TpccWorkload::Config c;
  c.warehouses = 4;
  c.districts = 10;
  c.customers_per_district = 300;
  c.items = 1000;
  // Every customer has an order, so OrderStatus finds one (the loader's
  // default of 10 orders per district leaves most customers without).
  c.initial_orders_per_district = c.customers_per_district;
  c.executors_per_table = 1;
  return c;
}

// ---- rigs ---------------------------------------------------------------

struct Rig {
  std::unique_ptr<Database> db;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<dora::DoraEngine> engine;  // null on the Baseline
  std::function<Status()> check;             // CheckConsistency
  std::string dir;                           // empty = in-memory media
  bool fits_pool = true;

  ~Rig() {
    if (engine != nullptr) engine->Stop();
    engine.reset();
    workload.reset();
    db.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

// `dir` is used only by the file-backed workload.
Database::Options DbOptionsFor(Kind kind, const std::string& dir) {
  Database::Options o = BaseDbOptions();
  switch (kind) {
    case Kind::kTm1Dora:
      o.buffer_frames = 8192;
      o.log_backend = LogBackendKind::kPartitioned;
      o.log_partitions = 4;  // one per executor (4 tables x 1)
      break;
    case Kind::kTpcbDurable:
      o.buffer_frames = kTpcbPoolFrames;
      o.log_backend = LogBackendKind::kPartitioned;
      o.log_partitions = 5;  // branch, teller, 2 x account, history
      o.checkpoint.enabled = true;  // daemon at its defaults
      o.data_dir = dir;
      break;
    case Kind::kTpccBase:
    case Kind::kTpccDora:
      // Holds the load (~3,000 pages) plus TPC-C's insert growth (~1,750
      // pages/s at tpcc-base's rate) over warm-up and a 10 s window, with
      // room for twice that rate.
      o.buffer_frames = 49152;
      o.log_backend = kind == Kind::kTpccBase ? LogBackendKind::kCentral
                                              : LogBackendKind::kPartitioned;
      o.log_partitions = 9;  // one per executor (9 tables x 1)
      break;
  }
  return o;
}

// Database construction + Load + SetupDora + engine Start: the span
// setup_s times.
std::unique_ptr<Rig> MakeRig(Kind kind, const std::string& dir) {
  auto rig = std::make_unique<Rig>();
  const Database::Options o = DbOptionsFor(kind, dir);
  rig->dir = o.data_dir;
  rig->fits_pool = kind != Kind::kTpcbDurable;
  if (!rig->dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(rig->dir, ec);
    std::filesystem::create_directories(rig->dir, ec);
  }
  rig->db = std::make_unique<Database>(o);
  Database* db = rig->db.get();
  switch (kind) {
    case Kind::kTm1Dora: {
      tm1::Tm1Workload::Config c;
      c.subscribers = 20000;
      c.executors_per_table = 1;
      c.skew_theta = 0.0;
      auto w = std::make_unique<tm1::Tm1Workload>(db, c);
      rig->check = [w = w.get()] { return w->CheckConsistency(); };
      rig->workload = std::move(w);
      break;
    }
    case Kind::kTpcbDurable: {
      tpcb::TpcbWorkload::Config c;
      c.branches = kTpcbBranches;
      c.tellers_per_branch = 10;
      c.accounts_per_branch = kTpcbAccountsPerBranch;
      c.account_executors = 2;
      c.other_executors = 1;
      c.skew_theta = 0.0;
      auto w = std::make_unique<tpcb::TpcbWorkload>(db, c);
      rig->check = [w = w.get()] { return w->CheckConsistency(); };
      rig->workload = std::move(w);
      break;
    }
    case Kind::kTpccBase:
    case Kind::kTpccDora: {
      auto w = std::make_unique<tpcc::TpccWorkload>(db, TpccConfig());
      rig->check = [w = w.get()] { return w->CheckConsistency(); };
      rig->workload = std::move(w);
      break;
    }
  }
  Check("load", rig->workload->Load());
  if (kind != Kind::kTpccBase) {
    rig->engine = std::make_unique<dora::DoraEngine>(db, EngineOptions());
    rig->workload->SetupDora(rig->engine.get());
    rig->engine->Start();
  }
  return rig;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- correctness ---------------------------------------------------------

// The working-set claim each workload makes about the buffer pool.
void CheckEvictions(const Rig& rig) {
  const uint64_t ev = rig.db->buffer_pool()->evictions();
  if (rig.fits_pool && ev != 0) {
    Fail("working set should fit the pool, but " + std::to_string(ev) +
         " pages were evicted");
  }
  if (!rig.fits_pool && ev == 0) {
    Fail("working set should exceed the pool, but nothing was evicted");
  }
}

struct RecoveryResult {
  double reopen_s = 0;   // Database(data_dir) + catalog replay + Attach
  double recover_s = 0;  // Database::Recover (ARIES + index rebuild)
};

// tpcb-durable: kill the quiesced engine, reopen the directory in a second
// lifetime, recover, and check that every acknowledged commit survived.
RecoveryResult KillAndRecover(std::unique_ptr<Rig> rig,
                              uint64_t acked_commits) {
  const std::string dir = rig->dir;
  rig->db->SimulateKill();
  rig->engine.reset();
  rig->workload.reset();
  rig->db.reset();
  rig->dir.clear();  // keep the files for the reopen
  rig.reset();

  RecoveryResult r;
  const auto t0 = std::chrono::steady_clock::now();
  {
    Database db(DbOptionsFor(Kind::kTpcbDurable, dir));
    Check("reopen catalog", db.catalog_load_status());
    tpcb::TpcbWorkload w(&db, tpcb::TpcbWorkload::Config{});
    Check("attach", w.Attach());
    const auto t1 = std::chrono::steady_clock::now();
    Check("recover", db.Recover());
    const auto t2 = std::chrono::steady_clock::now();
    r.reopen_s = Seconds(t0, t1);
    r.recover_s = Seconds(t1, t2);
    Check("post-recovery consistency", w.CheckConsistency());
    uint64_t history_rows = 0;
    Check("history scan",
          db.catalog()->Heap(w.schema().history)->Scan(
              [&](const Rid&, std::string_view) {
                ++history_rows;
                return true;
              }));
    if (history_rows < acked_commits) {
      Fail("lost acknowledged commits: " + std::to_string(history_rows) +
           " history rows < " + std::to_string(acked_commits) +
           " acknowledged commits");
    }
    std::printf("check recovery: %llu history rows >= %llu acked commits\n",
                static_cast<unsigned long long>(history_rows),
                static_cast<unsigned long long>(acked_commits));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return r;
}

// ---- output ----------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintMetrics(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-9s %-34s %14.4f %s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ---- main flow -------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--data-dir") {
      a.data_dir = v;
    } else {
      Fail("unknown argument " + k);
    }
  }
  if (a.seconds <= 0) Fail("--seconds must be positive");
  if (a.data_dir.empty()) Fail("--data-dir is required");
  return a;
}

Kind ParseKind(const std::string& name) {
  if (name == "tm1-dora") return Kind::kTm1Dora;
  if (name == "tpcb-durable") return Kind::kTpcbDurable;
  if (name == "tpcc-base") return Kind::kTpccBase;
  if (name == "tpcc-dora") return Kind::kTpccDora;
  Fail("unknown workload '" + name + "'");
}

int Main(int argc, char** argv) {
  RefuseEngineEnvironment();
  const Args args = ParseArgs(argc, argv);
  const Kind kind = ParseKind(args.workload);
  const bool traced = args.trace != 0;

  // Setup, timed; all but the last rig are torn down again.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  const int setups = traced ? 1 : kSetups;
  // rss_mb: footprint of the first loaded database and started engine. It
  // is read before any teardown (a torn-down rig leaves allocator arenas
  // behind) and before the clients start (on in-memory media the stable
  // log grows with every commit, so a later reading rises with throughput).
  double setup_rss_mb = 0;
  for (int i = 0; i < setups; ++i) {
    rig.reset();
    const auto t0 = std::chrono::steady_clock::now();
    rig = MakeRig(kind, args.data_dir + "/db-" + std::to_string(i));
    setup_s.push_back(Seconds(t0, std::chrono::steady_clock::now()));
    if (i == 0) setup_rss_mb = PeakRssMb();
  }

  ClientLoop loop(rig->workload.get(), rig->engine.get(), kClients,
                  args.seed);
  LayerProbe probe(rig->db.get(), rig->engine.get(), rig->dir);
  std::vector<obs::TraceEvent> trace_events;
  loop.Start();
  SleepSeconds(kWarmupSeconds);
  if (!traced) {
    loop.OpenWindow();
    SleepSeconds(args.seconds);
    loop.CloseWindow();
    loop.Stop();
  } else {
    // Untraced and traced seconds alternate, so both halves see the same
    // host conditions: odd slices run with the commit tracer on. Enable
    // clears the rings, so the stage gaps come from the last traced second
    // (dumped after the window, where the copy disturbs nothing).
    loop.OpenWindow();
    probe.Begin();
    const auto start = std::chrono::steady_clock::now();
    const int seconds = std::max(2, static_cast<int>(args.seconds));
    for (int i = 0; i < seconds; ++i) {
      if (i % 2 == 1) obs::CommitTracer::Enable(kTraceRingEvents);
      std::this_thread::sleep_until(start + std::chrono::seconds(i + 1));
      if (i % 2 == 1) obs::CommitTracer::Disable();
    }
    loop.CloseWindow();
    probe.End();
    loop.Stop();
    trace_events = obs::CommitTracer::Dump();
  }
  if (rig->engine != nullptr) rig->engine->Stop();

  const WindowRecord& w = loop.window();
  std::vector<Metric> layer;
  if (traced) {
    probe.Derive(w.attempts, w.commits, w.seconds, &layer);
    LayerProbe::AddTracerStages(trace_events, &layer);
  }

  // ---- correctness checks (any failure exits 1 before a result) ----
  Check("consistency", rig->check());
  CheckEvictions(*rig);
  std::printf("check consistency: ok; %llu pages allocated, %zu-frame "
              "pool, %llu evictions (working set %s the pool)\n",
              static_cast<unsigned long long>(rig->db->disk()->NumAllocated()),
              rig->db->buffer_pool()->num_frames(),
              static_cast<unsigned long long>(
                  rig->db->buffer_pool()->evictions()),
              rig->fits_pool ? "fits" : "exceeds");
  RecoveryResult rec;
  if (kind == Kind::kTpcbDurable) {
    rec = KillAndRecover(std::move(rig), loop.lifetime_commits());
  }
  rig.reset();

  // ---- report ----
  std::printf("workload %s seed %llu: %llu attempts, %llu commits, %llu user "
              "aborts, %llu system aborts, %llu errors in %.3f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(w.attempts),
              static_cast<unsigned long long>(w.commits),
              static_cast<unsigned long long>(w.user_aborts),
              static_cast<unsigned long long>(w.system_aborts),
              static_cast<unsigned long long>(w.errors), w.seconds);
  if (!loop.first_error().ok()) {
    std::printf("first error: %s\n", loop.first_error().ToString().c_str());
  }
  const double fail_ratio = w.FailRatio();
  std::vector<Metric> metrics;
  if (!traced) {
    const std::vector<Slice> slices = w.Slices();
    std::printf("slices (commit_tps p50_us p99_us):");
    for (const Slice& x : slices) {
      std::printf(" %.0f/%.1f/%.1f", x.commit_tps, x.p50_us, x.p99_us);
    }
    std::printf("\n");
    const Slice good = GoodQuartile(slices);
    metrics = {
        {"commit_tps", good.commit_tps, "1/s"},
        {"p50_us", good.p50_us, "us"},
        {"p99_us", good.p99_us, "us"},
        {"success_ratio", 1.0 - fail_ratio, "ratio"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"rss_mb", setup_rss_mb, "MB"},
    };
    PrintMetrics("e2e", metrics);
    // Printed for the reader, carried as per-layer metrics in the JSON of
    // the traced run (see README: fail_ratio is 0 on most workloads and
    // recover_s exists only for tpcb-durable).
    std::printf("%-9s %-34s %14.6f %s\n", "e2e", "fail_ratio", fail_ratio,
                "ratio");
    if (kind == Kind::kTpcbDurable) {
      std::printf("%-9s %-34s %14.4f %s\n", "e2e", "recover_s",
                  rec.reopen_s + rec.recover_s, "s");
    }
  } else {
    Workload* types = nullptr;
    // Per-type latency spans under a fixed name set: the 13 transaction
    // types of TM1, TPC-B and TPC-C, 0 for types this workload lacks.
    tm1::Tm1Workload tm1_names(nullptr, tm1::Tm1Workload::Config{});
    tpcb::TpcbWorkload tpcb_names(nullptr, tpcb::TpcbWorkload::Config{});
    tpcc::TpccWorkload tpcc_names(nullptr, tpcc::TpccWorkload::Config{});
    switch (kind) {
      case Kind::kTm1Dora: types = &tm1_names; break;
      case Kind::kTpcbDurable: types = &tpcb_names; break;
      default: types = &tpcc_names; break;
    }
    for (Workload* names :
         std::initializer_list<Workload*>{&tm1_names, &tpcb_names,
                                          &tpcc_names}) {
      for (uint32_t t = 0; t < names->NumTxnTypes(); ++t) {
        std::vector<uint64_t> v;
        if (names == types) v = w.LatenciesOf(t);
        const std::string base = std::string("txn.") + names->TxnName(t);
        metrics.push_back({base + ".p50_us", PercentileUs(&v, 50), "us"});
        metrics.push_back({base + ".p99_us", PercentileUs(&v, 99), "us"});
      }
    }
    metrics.insert(metrics.end(), layer.begin(), layer.end());
    std::vector<Slice> untraced_slices, traced_slices;
    const std::vector<Slice> slices = w.Slices();
    for (size_t i = 0; i < slices.size(); ++i) {
      (i % 2 == 1 ? traced_slices : untraced_slices).push_back(slices[i]);
    }
    const double untraced = GoodQuartile(untraced_slices).commit_tps;
    const double traced_tps = GoodQuartile(traced_slices).commit_tps;
    metrics.push_back({"fail_ratio", fail_ratio, "ratio"});
    metrics.push_back({"proc.rss_peak_mb", PeakRssMb(), "MB"});
    metrics.push_back({"recover_s", rec.reopen_s + rec.recover_s, "s"});
    metrics.push_back({"engine.reopen_s", rec.reopen_s, "s"});
    metrics.push_back({"log.recover_s", rec.recover_s, "s"});
    metrics.push_back({"trace.commit_tps", traced_tps, "1/s"});
    metrics.push_back({"trace.overhead_tps", traced_tps - untraced, "1/s"});
    metrics.push_back(
        {"trace.overhead_pct",
         untraced > 0 ? 100.0 * (traced_tps - untraced) / untraced : 0.0,
         "%"});
    PrintMetrics("layer", metrics);
  }
  PrintResult(w.attempts, w.errors, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace doradb

int main(int argc, char** argv) {
  return doradb::perfbench::Main(argc, argv);
}
