// Tests for the self-diagnosis layer: heartbeat table semantics, the
// load-heatmap ring (wrap + concurrent read/write consistency), stall
// detection through the watchdog (heartbeats and progress probes),
// blackbox report structure, and the live obs endpoint (routing and a
// real socket round trip). Ends with an end-to-end rig: a deliberately
// stalled executor must flip /healthz to 503 and leave a flight-recorder
// dump under <data_dir>/blackbox/.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "obs/heartbeat.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/obs_server.h"
#include "obs/watchdog.h"

namespace doradb {
namespace obs {
namespace {

void SleepMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "doradb_wd_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Minimal HTTP/1.0 GET against 127.0.0.1:<port>. Returns {status, body};
// status -1 on connect failure.
std::pair<int, std::string> HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {-1, ""};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {-1, ""};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  ssize_t off = 0;
  while (off < static_cast<ssize_t>(req.size())) {
    const ssize_t n = ::write(fd, req.data() + off, req.size() - off);
    if (n <= 0) break;
    off += n;
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) resp.append(buf, n);
  ::close(fd);
  int status = -1;
  if (resp.rfind("HTTP/", 0) == 0) {
    const size_t sp = resp.find(' ');
    if (sp != std::string::npos) status = std::atoi(resp.c_str() + sp + 1);
  }
  const size_t body_at = resp.find("\r\n\r\n");
  return {status,
          body_at == std::string::npos ? "" : resp.substr(body_at + 4)};
}

// ------------------------------------------------------------- heartbeats

TEST(HeartbeatTest, RegisterSnapshotUnregister) {
  auto& table = Heartbeats::Default();
  const size_t before = table.size();
  Heartbeats::Handle* h = table.Register("test.hb.basic");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(table.size(), before + 1);
  h->SetStage("working");
  h->Beat();

  bool found = false;
  for (const Heartbeats::Row& row : table.Snapshot()) {
    if (row.name != "test.hb.basic") continue;
    found = true;
    EXPECT_STREQ(row.stage, "working");
    EXPECT_FALSE(row.idle);
    EXPECT_GT(row.last_beat_tsc, 0u);
  }
  EXPECT_TRUE(found);

  table.Unregister(h);
  EXPECT_EQ(table.size(), before);
}

TEST(HeartbeatTest, LeavingIdleCountsAsBeat) {
  auto& table = Heartbeats::Default();
  Heartbeats::Handle* h = table.Register("test.hb.idle");
  h->SetIdle(true);
  uint64_t idle_beat = 0;
  for (const auto& row : table.Snapshot()) {
    if (row.name == "test.hb.idle") idle_beat = row.last_beat_tsc;
  }
  SleepMs(5);
  h->SetIdle(false);  // must refresh the beat — no instant staleness
  for (const auto& row : table.Snapshot()) {
    if (row.name == "test.hb.idle") {
      EXPECT_GT(row.last_beat_tsc, idle_beat);
    }
  }
  table.Unregister(h);
}

// ---------------------------------------------------------------- heatmap

TEST(HeatmapTest, RingWrapsKeepingNewestWindows) {
  LoadHeatmap hm(4);
  EXPECT_EQ(hm.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    HeatmapWindow w;
    ExecutorSample s;
    s.executor = static_cast<uint32_t>(i);
    w.rows.push_back(s);
    hm.Push(std::move(w));
  }
  const auto windows = hm.Windows();
  ASSERT_EQ(windows.size(), 4u) << "ring must evict past capacity";
  // Sequences stay monotonic and the newest windows survive.
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].seq, windows[i - 1].seq + 1);
  }
  EXPECT_EQ(windows.back().seq, 10u);
  ASSERT_EQ(windows.back().rows.size(), 1u);
  EXPECT_EQ(windows.back().rows[0].executor, 9u);
  EXPECT_EQ(hm.Latest().seq, 10u);
  EXPECT_EQ(hm.sweeps(), 10u);
}

TEST(HeatmapTest, ConcurrentPushAndSnapshotStayConsistent) {
  LoadHeatmap hm(8);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto windows = hm.Windows();
      for (size_t i = 1; i < windows.size(); ++i) {
        // A torn snapshot would show non-monotonic or duplicated seqs.
        if (windows[i].seq <= windows[i - 1].seq) bad.fetch_add(1);
      }
      const std::string json = hm.ToJson();
      if (json.find("\"windows\":[") == std::string::npos) bad.fetch_add(1);
    }
  });

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 400;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&hm, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        HeatmapWindow w;
        ExecutorSample s;
        s.executor = static_cast<uint32_t>(t);
        s.busy_frac = 0.5;
        w.rows.push_back(s);
        hm.Push(std::move(w));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(hm.sweeps(), static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(hm.Windows().size(), 8u);
  EXPECT_EQ(hm.Latest().seq, static_cast<uint64_t>(kWriters * kPerWriter));
}

TEST(HeatmapTest, SweepDiffsSourceCountersIntoRates) {
  LoadHeatmap hm(16);
  std::atomic<uint64_t> actions{0};
  Histogram qwait;
  const uint64_t token = hm.RegisterSource([&] {
    std::vector<ExecLoadRaw> out;
    ExecLoadRaw raw;
    raw.executor = 0;
    raw.inbox_depth = 3;
    raw.actions_executed = actions.load();
    raw.busy_cycles = 0;
    raw.queue_wait = &qwait;
    out.push_back(raw);
    return out;
  });

  hm.Sweep();  // primes the diff state; rates read 0
  EXPECT_EQ(hm.Latest().rows.at(0).drained_per_s, 0.0);

  actions.store(5000);
  for (int i = 0; i < 100; ++i) qwait.Record(4096);
  SleepMs(20);
  hm.Sweep();

  const HeatmapWindow w = hm.Latest();
  ASSERT_EQ(w.rows.size(), 1u);
  EXPECT_EQ(w.rows[0].inbox_depth, 3);
  EXPECT_GT(w.rows[0].drained_per_s, 0.0);
  EXPECT_GT(w.rows[0].queue_wait_p99_ns, 0u)
      << "windowed p99 must come from the bucket delta";
  EXPECT_GE(w.span_ms, 1.0);
  hm.UnregisterSource(token);

  // Sweep mirrors levels into registry gauges.
  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  bool saw_gauge = false;
  for (const auto& m : snap.metrics) {
    if (m.name == "dora.exec.0.queue_wait_p99_ns") saw_gauge = true;
  }
  EXPECT_TRUE(saw_gauge);
}

TEST(HeatmapTest, DeltaPercentileInterpolatesWithinBucket) {
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};
  buckets[12] = 100;  // all samples in [4096, 8192)
  const uint64_t p50 = LoadHeatmap::DeltaPercentile(buckets, 100, 50.0);
  EXPECT_GE(p50, uint64_t{4096});
  EXPECT_LT(p50, uint64_t{8192});
  EXPECT_EQ(LoadHeatmap::DeltaPercentile(buckets, 0, 99.0), 0u)
      << "empty window must report 0, not garbage";
}

// --------------------------------------------------------------- watchdog

TEST(WatchdogTest, StalledHeartbeatIsDetectedIdleIsExempt) {
  Watchdog wd;
  Watchdog::Options wo;
  wo.interval_ms = 10000;  // tick manually via Check()
  wo.stall_ms = 100;
  wd.Retain(wo);

  Heartbeats::Handle* h = Heartbeats::Default().Register("test.wd.stuck");
  h->SetStage("wedged");
  SleepMs(250);

  Watchdog::Health sick = wd.Check();
  EXPECT_FALSE(sick.ok);
  bool complained = false;
  for (const std::string& c : sick.complaints) {
    if (c.find("test.wd.stuck") != std::string::npos) {
      complained = true;
      EXPECT_NE(c.find("stalled in stage wedged"), std::string::npos) << c;
    }
  }
  EXPECT_TRUE(complained);
  EXPECT_GE(sick.threads, 1u);

  h->Beat();
  EXPECT_TRUE(wd.Check().ok) << "a fresh beat clears the stall";

  h->SetIdle(true);
  SleepMs(250);
  EXPECT_TRUE(wd.Check().ok) << "idle threads are exempt from staleness";

  Heartbeats::Default().Unregister(h);
  wd.Release();
  EXPECT_FALSE(wd.running());
}

TEST(WatchdogTest, ProgressProbeStuckOnlyWithWorkOutstanding) {
  Watchdog wd;
  Watchdog::Options wo;
  wo.interval_ms = 10000;
  wo.stall_ms = 100;
  wd.Retain(wo);

  std::atomic<bool> outstanding{true};
  std::atomic<uint64_t> position{42};
  const uint64_t token = wd.RegisterProgressProbe(
      "test.wd.horizon", [&] { return outstanding.load(); },
      [&] { return position.load(); });

  EXPECT_TRUE(wd.Check().ok) << "first check primes the probe";
  SleepMs(250);
  Watchdog::Health sick = wd.Check();
  EXPECT_FALSE(sick.ok);
  bool complained = false;
  for (const std::string& c : sick.complaints) {
    if (c.find("test.wd.horizon") != std::string::npos &&
        c.find("stuck at 42") != std::string::npos) {
      complained = true;
    }
  }
  EXPECT_TRUE(complained);

  position.store(43);  // progress clears the stall
  EXPECT_TRUE(wd.Check().ok);

  outstanding.store(false);  // no work: frozen position is fine
  SleepMs(250);
  EXPECT_TRUE(wd.Check().ok);

  wd.UnregisterProbe(token);
  wd.Release();
}

TEST(WatchdogTest, BlackboxReportHasAllSectionsAndParsableMetrics) {
  const std::string dir = TempDirFor("blackbox");
  Watchdog wd;
  Watchdog::Options wo;
  wo.interval_ms = 10000;
  wo.dump_dir = dir;
  wd.Retain(wo);

  const std::string path = wd.WriteBlackbox("unit-test");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(wd.dumps_written(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string report = ss.str();

  for (const char* marker :
       {"DORADB_BLACKBOX v1", "reason: unit-test", "== threads ==",
        "== health ==", "== heatmap ==", "== metrics ==", "== trace ==",
        "== end =="}) {
    EXPECT_NE(report.find(marker), std::string::npos)
        << "missing section marker: " << marker;
  }

  // The metrics section is one JSON document per line; the first line must
  // round-trip through the strict snapshot parser.
  const size_t m = report.find("== metrics ==");
  ASSERT_NE(m, std::string::npos);
  size_t start = report.find('\n', m) + 1;
  const size_t end = report.find('\n', start);
  const std::string metrics_json = report.substr(start, end - start);
  MetricsSnapshot snap;
  EXPECT_TRUE(MetricsSnapshot::FromJson(metrics_json, &snap).ok())
      << metrics_json.substr(0, 200);
  EXPECT_FALSE(snap.metrics.empty());

  wd.Release();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------- obs server

TEST(ObsServerTest, HandleRoutesWithoutASocket) {
  const auto [ms, metrics_body] = ObsServer::Handle("/metrics");
  EXPECT_EQ(ms, 200);
  MetricsSnapshot snap;
  EXPECT_TRUE(MetricsSnapshot::FromJson(metrics_body, &snap).ok())
      << metrics_body.substr(0, 200);

  const auto [hs, heatmap_body] = ObsServer::Handle("/heatmap");
  EXPECT_EQ(hs, 200);
  EXPECT_NE(heatmap_body.find("\"windows\":["), std::string::npos);

  const auto [zs, health_body] = ObsServer::Handle("/healthz");
  EXPECT_TRUE(zs == 200 || zs == 503);
  EXPECT_NE(health_body.find("\"ok\":"), std::string::npos);

  EXPECT_EQ(ObsServer::Handle("/nope").first, 404);
}

TEST(ObsServerTest, ServesMetricsOverLoopbackSocket) {
  ObsServer::Options so;
  so.port = 0;  // ephemeral
  ObsServer server(so);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const auto [status, body] = HttpGet(server.port(), "/metrics");
  EXPECT_EQ(status, 200);
  MetricsSnapshot snap;
  EXPECT_TRUE(MetricsSnapshot::FromJson(body, &snap).ok());

  EXPECT_EQ(HttpGet(server.port(), "/bogus").first, 404);
  EXPECT_GE(server.requests_served(), 2u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

// ----------------------------------------------------- end-to-end: stall

TEST(WatchdogEndToEndTest, StalledExecutorTripsHealthzAndDumpsBlackbox) {
  const std::string dir = TempDirFor("e2e");
  Database::Options opts;
  opts.buffer_frames = 1024;
  opts.data_dir = dir;
  opts.watchdog_interval_ms = 20;
  opts.stall_threshold_ms = 120;
  opts.obs_port = 0;
  {
    Database db(opts);
    ASSERT_GT(db.obs_port(), 0);
    TableId table;
    ASSERT_TRUE(db.catalog()->CreateTable("stall", &table).ok());
    dora::DoraEngine engine(&db);
    engine.RegisterTable(table, 100, 2);
    engine.Start();

    // The wedge below runs on the client's thread as a guest of its idle
    // executor, whose baton is free only once its thread first parked:
    // commit no-op guests on the same executor until one ran inline.
    for (int i = 0; i < 1000 && engine.txns_inline() == 0; ++i) {
      auto dtxn = engine.BeginTxn();
      dtxn->AddPhase().AddAction(table, 5, dora::LocalMode::kX,
                                 [](dora::ActionEnv&) { return Status::OK(); });
      ASSERT_TRUE(engine.Run(dtxn).ok());
      SleepMs(1);
    }
    ASSERT_EQ(engine.txns_inline(), 1u);

    // A transaction whose action body wedges its executor for far longer
    // than the stall threshold — the "stuck in an action" failure mode.
    std::thread client([&] {
      auto dtxn = engine.BeginTxn();
      dtxn->AddPhase().AddAction(table, 5, dora::LocalMode::kX,
                                 [](dora::ActionEnv&) {
                                   SleepMs(800);
                                   return Status::OK();
                                 });
      EXPECT_TRUE(engine.Run(dtxn).ok());
    });

    // While the executor is wedged, /healthz must flip to 503.
    bool saw_unhealthy = false;
    for (int i = 0; i < 300 && !saw_unhealthy; ++i) {
      const auto [status, body] = HttpGet(db.obs_port(), "/healthz");
      if (status == 503) {
        saw_unhealthy = true;
        EXPECT_NE(body.find("\"ok\":false"), std::string::npos);
        EXPECT_NE(body.find("stalled"), std::string::npos) << body;
      }
      SleepMs(10);
    }
    client.join();
    EXPECT_EQ(engine.txns_inline(), 2u) << "the wedge did not run as a guest";
    EXPECT_TRUE(saw_unhealthy)
        << "watchdog never reported the wedged executor via /healthz";

    // The fresh stall must have left a flight-recorder dump.
    EXPECT_GE(Watchdog::Default().dumps_written(), 1u);
    bool dump_found = false;
    const std::string bb = dir + "/blackbox";
    if (std::filesystem::exists(bb)) {
      for (const auto& e : std::filesystem::directory_iterator(bb)) {
        std::ifstream in(e.path());
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string report = ss.str();
        if (report.find("DORADB_BLACKBOX v1") != std::string::npos &&
            report.find("== heatmap ==") != std::string::npos &&
            report.find("== metrics ==") != std::string::npos &&
            report.find("== trace ==") != std::string::npos) {
          dump_found = true;
        }
      }
    }
    EXPECT_TRUE(dump_found) << "no complete blackbox report under " << bb;

    // Once the action finishes and the executor beats again, health
    // recovers — the stall was transient, not latched.
    bool recovered = false;
    for (int i = 0; i < 100 && !recovered; ++i) {
      recovered = HttpGet(db.obs_port(), "/healthz").first == 200;
      SleepMs(10);
    }
    EXPECT_TRUE(recovered);

    engine.Stop();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obs
}  // namespace doradb
