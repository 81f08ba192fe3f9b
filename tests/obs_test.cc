// Tests for the observability layer (src/obs/): histogram bucket math and
// percentile interpolation, sharded-counter aggregation under concurrency,
// registry snapshot/delta semantics, JSON round-tripping, the commit-path
// tracer (ring wraparound + the seven lifecycle spans over a real DORA
// run, dispatched and as a guest), the background stats reporter's output
// format, and the heatmap's view of guest work.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "util/histogram.h"

namespace doradb {
namespace obs {
namespace {

// ----------------------------------------------------------- histogram math

TEST(HistogramTest, BucketPlacement) {
  Histogram h;
  h.Record(0);  // bucket 0
  h.Record(1);  // bucket 0
  h.Record(2);  // bucket 1
  h.Record(3);  // bucket 1
  h.Record(4);  // bucket 2
  h.Record(1024);  // bucket 10
  h.Record(1025);  // bucket 10
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(10), 2u);
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_EQ(h.Sum(), 0u + 1 + 2 + 3 + 4 + 1024 + 1025);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 1025u);
}

TEST(HistogramTest, PercentileWithinBucketBounds) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(1000);  // bucket 9: [512, 1024)
  for (double p : {1.0, 50.0, 99.0, 99.9}) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, 512u) << "p=" << p;
    EXPECT_LE(v, 1024u) << "p=" << p;
  }
}

TEST(HistogramTest, PercentileSeparatesModes) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(8);          // bucket 3
  for (int i = 0; i < 10; ++i) h.Record(1 << 20);    // bucket 20
  EXPECT_LE(h.Percentile(50), 16u);
  EXPECT_GE(h.Percentile(99), 1u << 20);
  EXPECT_LE(h.Percentile(99), 1u << 21);
}

// ------------------------------------------------------------ counter/gauge

TEST(CounterTest, MultiThreadedAggregation) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, GetOrCreateIsStable) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a.count");
  Counter* c2 = reg.GetCounter("a.count");
  EXPECT_EQ(c1, c2);
  // A name keeps its first-registered kind; asking for another kind under
  // the same name yields nullptr rather than aliasing.
  EXPECT_EQ(reg.GetGauge("a.count"), nullptr);
  EXPECT_EQ(reg.GetHistogram("a.count"), nullptr);
}

TEST(RegistryTest, SnapshotSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("z.last")->Add(1);
  reg.GetGauge("a.first")->Set(-5);
  reg.GetHistogram("m.middle")->Record(100);
  const MetricsSnapshot s = reg.Snapshot();
  ASSERT_EQ(s.metrics.size(), 3u);
  EXPECT_EQ(s.metrics[0].name, "a.first");
  EXPECT_EQ(s.metrics[1].name, "m.middle");
  EXPECT_EQ(s.metrics[2].name, "z.last");
  EXPECT_EQ(s.Find("a.first")->value, -5);
  EXPECT_EQ(s.Find("m.middle")->count, 1u);
  EXPECT_EQ(s.Find("z.last")->value, 1);
  EXPECT_EQ(s.Find("missing"), nullptr);
}

TEST(RegistryTest, CallbackMetricsAndUnregister) {
  MetricsRegistry reg;
  std::atomic<int64_t> source{42};
  const uint64_t token = reg.RegisterCallback(
      "cb.value", [&source] { return source.load(); }, MetricType::kGauge,
      "units");
  const MetricsSnapshot s1 = reg.Snapshot();
  ASSERT_NE(s1.Find("cb.value"), nullptr);
  EXPECT_EQ(s1.Find("cb.value")->value, 42);
  EXPECT_EQ(s1.Find("cb.value")->unit, "units");
  reg.Unregister(token);
  EXPECT_EQ(reg.Snapshot().Find("cb.value"), nullptr);
}

TEST(RegistryTest, SnapshotDeltaMath) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("flow");
  Gauge* g = reg.GetGauge("level");
  Histogram* h = reg.GetHistogram("lat");

  c->Add(10);
  g->Set(3);
  h->Record(100);
  h->Record(200);
  const MetricsSnapshot s0 = reg.Snapshot();

  c->Add(5);
  g->Set(7);
  h->Record(1000);
  const MetricsSnapshot s1 = reg.Snapshot();

  const MetricsSnapshot d = s1.Delta(s0);
  // Counters subtract (flow over the window).
  EXPECT_EQ(d.Find("flow")->value, 5);
  // Gauges keep the later level.
  EXPECT_EQ(d.Find("level")->value, 7);
  // Histograms subtract count/sum/buckets; percentiles cover the window —
  // only the 1000ns record (bucket [512, 1024)) falls inside it.
  EXPECT_EQ(d.Find("lat")->count, 1u);
  EXPECT_EQ(d.Find("lat")->sum, 1000u);
  EXPECT_GE(d.Find("lat")->p50, 512u);
  EXPECT_LE(d.Find("lat")->p50, 1024u);
}

TEST(RegistryTest, ResetAllZeroes) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Add(9);
  reg.GetGauge("g")->Set(9);
  reg.GetHistogram("h")->Record(9);
  reg.ResetAll();
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.Find("c")->value, 0);
  EXPECT_EQ(s.Find("g")->value, 0);
  EXPECT_EQ(s.Find("h")->count, 0u);
}

TEST(RegistryTest, EnableGateToggles) {
  EXPECT_TRUE(MetricsEnabled());  // default on
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
}

// --------------------------------------------------------------------- json

TEST(JsonTest, RoundTripPreservesSummaries) {
  MetricsRegistry reg;
  reg.GetCounter("txn.count", "txns")->Add(123);
  reg.GetGauge("queue.depth", "msgs")->Set(-4);
  Histogram* h = reg.GetHistogram("commit.lat", "ns");
  h->Record(100);
  h->Record(5000);
  const MetricsSnapshot orig = reg.Snapshot();

  MetricsSnapshot parsed;
  ASSERT_TRUE(MetricsSnapshot::FromJson(orig.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.wall_ms, orig.wall_ms);
  ASSERT_EQ(parsed.metrics.size(), orig.metrics.size());
  for (size_t i = 0; i < orig.metrics.size(); ++i) {
    const MetricValue& a = orig.metrics[i];
    const MetricValue& b = parsed.metrics[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.unit, b.unit);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
  }
}

TEST(JsonTest, MalformedInputRejected) {
  MetricsSnapshot out;
  EXPECT_FALSE(MetricsSnapshot::FromJson("", &out).ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("not json", &out).ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"ts_ms\":1}", &out).ok());
  EXPECT_FALSE(
      MetricsSnapshot::FromJson("{\"ts_ms\":1,\"metrics\":{", &out).ok());
}

// -------------------------------------------------------------------- trace

TEST(TraceTest, RingWrapsKeepingNewest) {
  CommitTracer::Enable(/*ring_size=*/8);
  for (uint64_t id = 1; id <= 20; ++id) {
    CommitTracer::Stamp(id, TraceStage::kDispatch);
  }
  const std::vector<TraceEvent> events = CommitTracer::Dump();
  CommitTracer::Disable();
  ASSERT_EQ(events.size(), 8u) << "ring caps retained events";
  std::set<uint64_t> ids;
  for (const auto& e : events) ids.insert(e.txn_id);
  // Newest stamps survive the wrap, oldest are overwritten.
  EXPECT_TRUE(ids.count(20));
  EXPECT_TRUE(ids.count(13));
  EXPECT_FALSE(ids.count(1));
}

TEST(TraceTest, DisabledStampIsDropped) {
  CommitTracer::Enable(16);
  CommitTracer::Disable();
  CommitTracer::Stamp(7, TraceStage::kDispatch);
  CommitTracer::Enable(16);  // clears rings
  EXPECT_TRUE(CommitTracer::Dump().empty());
  CommitTracer::Disable();
}

uint64_t HistCount(const MetricsSnapshot& snap, const std::string& name) {
  const MetricValue* m = snap.Find(name);
  return m == nullptr ? 0 : m->count;
}

// One committed DORA transaction must show every lifecycle span, in strict
// order: dispatch → enqueue → drain → execute → commit-append → durable →
// ack. Two ways to run it: dispatched through the executor's inbox (a
// whole-dataset action is never run inline), and on the client's thread as
// a guest of the idle executor (a single-action graph).
enum class CommitPath { kPipelined, kGuest };

class CommitPathTraceTest : public ::testing::TestWithParam<CommitPath> {};

TEST_P(CommitPathTraceTest, SevenSpansForCommittedTxn) {
  const CommitPath path = GetParam();
  Database::Options opts;
  opts.buffer_frames = 1024;
  Database db(opts);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  dora::DoraEngine engine(&db);
  engine.RegisterTable(table, 100, 2);
  engine.Start();

  auto insert = [table](dora::ActionEnv& env) {
    Rid rid;
    return env.db->Insert(env.txn, table, "payload", &rid,
                          AccessOptions::RidOnly());
  };
  const MetricsSnapshot before = db.Metrics();
  CommitTracer::Enable();
  uint64_t txn_id = 0;
  // A guest needs the executor asleep with its baton free, which it is
  // only once its thread first parked: retry until a commit ran inline.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const uint64_t inline_before = engine.txns_inline();
    auto dtxn = engine.BeginTxn();
    txn_id = dtxn->txn()->id();
    if (path == CommitPath::kGuest) {
      dtxn->AddPhase().AddAction(table, 5, dora::LocalMode::kX, insert);
    } else {
      dtxn->AddPhase().AddWholeDatasetAction(table, 0, dora::LocalMode::kX,
                                             insert);
    }
    ASSERT_TRUE(engine.Run(dtxn).ok());
    if (path != CommitPath::kGuest) {
      EXPECT_EQ(engine.txns_inline(), inline_before);
      break;
    }
    if (engine.txns_inline() == inline_before + 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::vector<TraceEvent> events = CommitTracer::Dump();
  const std::string text = CommitTracer::DumpText();
  CommitTracer::Disable();
  const MetricsSnapshot after = db.Metrics();
  std::vector<std::string> exec_waits;
  for (const dora::Executor* e : engine.AllExecutors()) {
    exec_waits.push_back("dora.exec." + std::to_string(e->global_index()) +
                         ".queue_wait_ns");
  }
  engine.Stop();

  std::vector<const TraceEvent*> mine;
  for (const auto& e : events) {
    if (e.txn_id == txn_id) mine.push_back(&e);
  }
  std::set<TraceStage> stages;
  for (const auto* e : mine) stages.insert(e->stage);
  ASSERT_EQ(stages.size(), kNumTraceStages)
      << "expected all seven spans, got:\n"
      << text;
  // Dump() sorts a transaction's events by time; the lifecycle must come
  // out in pipeline order.
  for (size_t i = 1; i < mine.size(); ++i) {
    EXPECT_GE(mine[i]->tsc, mine[i - 1]->tsc);
    EXPECT_GT(mine[i]->stage, mine[i - 1]->stage) << text;
  }
  EXPECT_EQ(mine.front()->stage, TraceStage::kDispatch);
  EXPECT_EQ(mine.back()->stage, TraceStage::kAck);
  // The text dump names every stage for the sampled transaction.
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    EXPECT_NE(text.find(TraceStageName(static_cast<TraceStage>(s))),
              std::string::npos);
  }

  if (path == CommitPath::kGuest) {
    // The guest's commit is counted as inline, and it never went through
    // an inbox.
    const MetricValue* inl = after.Find("dora.txns.inline");
    ASSERT_NE(inl, nullptr);
    const MetricValue* inl0 = before.Find("dora.txns.inline");
    EXPECT_EQ(inl->value - (inl0 == nullptr ? 0 : inl0->value), 1);
  } else {
    // The executors' drain histograms are the per-executor queue-wait
    // signal (the heatmap reads them); the drain that served the action
    // must have recorded into one of them.
    uint64_t exec_samples = 0;
    for (const std::string& name : exec_waits) {
      exec_samples += HistCount(after, name) - HistCount(before, name);
    }
    EXPECT_GT(exec_samples, 0u);
  }
  // The tracer is the only stage stamper: no sampled stage-gap histograms.
  for (const MetricValue& m : after.metrics) {
    EXPECT_FALSE(m.name.rfind("prof.", 0) == 0) << m.name;
    EXPECT_EQ(m.name.find(".gap."), std::string::npos) << m.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CommitPaths, CommitPathTraceTest,
    ::testing::Values(CommitPath::kPipelined, CommitPath::kGuest),
    [](const ::testing::TestParamInfo<CommitPath>& info) {
      switch (info.param) {
        case CommitPath::kPipelined:
          return "Pipelined";
        case CommitPath::kGuest:
          return "Guest";
      }
      return "";
    });

// The rebalance trigger reads only busy fractions, so an executor whose
// load all runs inline (guests on the clients' threads) must still read
// busy in the heatmap: guest sessions count as the executor's busy time.
TEST(HeatmapTest, GuestSessionsCountAsExecutorBusy) {
  Database::Options opts;
  opts.buffer_frames = 1024;
  Database db(opts);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  dora::DoraEngine engine(&db);
  engine.RegisterTable(table, 100, 1);
  engine.Start();
  Rid rid;
  auto run_one = [&] {
    auto dtxn = engine.BeginTxn();
    dtxn->AddPhase().AddAction(table, 7, dora::LocalMode::kX,
                               [&](dora::ActionEnv& env) {
                                 return env.db->Insert(
                                     env.txn, table, "row", &rid,
                                     AccessOptions::RidOnly());
                               });
    ASSERT_TRUE(engine.Run(dtxn).ok());
  };
  // Until the executor first sleeps, its baton is not free.
  for (int i = 0; i < 1000 && engine.txns_inline() == 0; ++i) {
    run_one();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(engine.txns_inline(), 0u);

  LoadHeatmap& heatmap = LoadHeatmap::Default();
  heatmap.Sweep();  // primes this engine's source
  const uint64_t inline_before = engine.txns_inline();
  const uint64_t batches_before = engine.CollectInboxStats().batches;
  constexpr int kTxns = 500;
  for (int i = 0; i < kTxns; ++i) run_one();
  heatmap.Sweep();
  // Every transaction ran inline; the executor thread drained nothing.
  EXPECT_EQ(engine.txns_inline() - inline_before, uint64_t(kTxns));
  EXPECT_EQ(engine.CollectInboxStats().batches, batches_before);
  const uint32_t exec = engine.AllExecutors().front()->global_index();
  const HeatmapWindow w = heatmap.Latest();
  bool found = false;
  for (const ExecutorSample& row : w.rows) {
    if (row.executor != exec) continue;
    found = true;
    EXPECT_GT(row.busy_frac, 0.0);
    EXPECT_GT(row.drained_per_s, 0.0);
  }
  EXPECT_TRUE(found);
  engine.Stop();
}

// ----------------------------------------------------------------- reporter

TEST(ReporterTest, EmitsParsableStatsLines) {
  MetricsRegistry reg;
  reg.GetCounter("r.count")->Add(3);
  FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  {
    StatsReporter reporter(&reg, /*interval_ms=*/5, out);
    reporter.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    reporter.Stop();
    EXPECT_GE(reporter.lines_emitted(), 1u);
  }
  std::rewind(out);
  char line[1 << 16];
  size_t lines = 0;
  std::string last_reason;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    std::string s(line);
    if (!s.empty() && s.back() == '\n') s.pop_back();
    // Interval logs may interleave DORADB_HEATMAP lines (piggybacked by
    // the reporter when a heatmap is live); only the STATS lines are
    // schema-checked here.
    if (s.rfind("DORADB_STATS ", 0) != 0) {
      ASSERT_EQ(s.rfind("DORADB_HEATMAP ", 0), 0u) << s;
      continue;
    }
    MetricsSnapshot snap;
    ASSERT_TRUE(
        MetricsSnapshot::FromJson(s.substr(strlen("DORADB_STATS ")), &snap)
            .ok())
        << s;
    ASSERT_NE(snap.Find("r.count"), nullptr);
    EXPECT_EQ(snap.Find("r.count")->value, 3);
    EXPECT_TRUE(snap.reason == "interval" || snap.reason == "final")
        << snap.reason;
    last_reason = snap.reason;
    ++lines;
  }
  std::fclose(out);
  EXPECT_GE(lines, 1u);
  // Stop() always flushes one last line so sub-interval runs report too.
  EXPECT_EQ(last_reason, "final");
}

TEST(ReporterTest, ZeroIntervalStaysIdle) {
  MetricsRegistry reg;
  StatsReporter reporter(&reg, /*interval_ms=*/0);
  reporter.Start();
  reporter.Stop();
  EXPECT_EQ(reporter.lines_emitted(), 0u);
}

TEST(ReporterTest, ShortRunStillEmitsFinalLine) {
  // A run far shorter than one interval must still leave one snapshot
  // behind: Stop() flushes a "final" line.
  MetricsRegistry reg;
  reg.GetCounter("short.count")->Add(7);
  FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  {
    StatsReporter reporter(&reg, /*interval_ms=*/60000, out);
    reporter.Start();
    reporter.Stop();
    EXPECT_EQ(reporter.lines_emitted(), 1u);
  }
  std::rewind(out);
  char line[1 << 16];
  ASSERT_NE(std::fgets(line, sizeof(line), out), nullptr);
  std::string s(line);
  ASSERT_EQ(s.rfind("DORADB_STATS ", 0), 0u) << s;
  if (!s.empty() && s.back() == '\n') s.pop_back();
  MetricsSnapshot snap;
  ASSERT_TRUE(
      MetricsSnapshot::FromJson(s.substr(strlen("DORADB_STATS ")), &snap)
          .ok())
      << s;
  EXPECT_EQ(snap.reason, "final");
  ASSERT_NE(snap.Find("short.count"), nullptr);
  EXPECT_EQ(snap.Find("short.count")->value, 7);
  std::fclose(out);
}

// -------------------------------------------------- windowed percentiles

TEST(JsonTest, ZeroSampleWindowSerializesNullPercentiles) {
  // A Delta() window in which a histogram gained no samples must not
  // report fabricated zero percentiles: they serialize as null and
  // round-trip as "absent".
  MetricsRegistry reg;
  reg.GetHistogram("w.lat_ns", "ns")->Record(4096);
  const MetricsSnapshot s1 = reg.Snapshot();
  const MetricsSnapshot s2 = reg.Snapshot();  // no new samples in between
  const MetricsSnapshot d = s2.Delta(s1);
  const MetricValue* m = d.Find("w.lat_ns");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 0u);
  EXPECT_FALSE(m->has_percentiles);

  const std::string json = d.ToJson();
  EXPECT_NE(json.find("\"p50\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\":null"), std::string::npos) << json;

  MetricsSnapshot back;
  ASSERT_TRUE(MetricsSnapshot::FromJson(json, &back).ok()) << json;
  const MetricValue* bm = back.Find("w.lat_ns");
  ASSERT_NE(bm, nullptr);
  EXPECT_FALSE(bm->has_percentiles);

  // The lifetime snapshot (count > 0) keeps numeric percentiles.
  const MetricValue* lm = s2.Find("w.lat_ns");
  ASSERT_NE(lm, nullptr);
  EXPECT_TRUE(lm->has_percentiles);
  EXPECT_GE(lm->p50, 4096u);
}

}  // namespace
}  // namespace obs
}  // namespace doradb
