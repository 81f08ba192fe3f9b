#include "obs/watchdog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/health.h"
#include "obs/heartbeat.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace doradb {
namespace obs {

namespace {

int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double AgeMs(uint64_t now_tsc, uint64_t then_tsc) {
  if (then_tsc == 0 || now_tsc <= then_tsc) return 0.0;
  return Cycles::ToNanos(now_tsc - then_tsc) / 1e6;
}

// Minimum spacing between blackbox dumps while the engine stays
// unhealthy, so a wedged engine leaves a handful of reports, not a disk
// full of them.
constexpr double kDumpMinGapMs = 5000;

}  // namespace

std::string Watchdog::Health::ToJson() const {
  std::string out = "{\"ok\":";
  out += ok ? "true" : "false";
  char buf[160];
  snprintf(buf, sizeof(buf),
           ",\"threads\":%zu,\"dumps\":%llu,\"health_state\":%d"
           ",\"io_retries\":%llu,\"io_errors\":%llu",
           threads, static_cast<unsigned long long>(dumps), degraded ? 1 : 0,
           static_cast<unsigned long long>(io_retries),
           static_cast<unsigned long long>(io_errors));
  out += buf;
  out += ",\"complaints\":[";
  for (size_t i = 0; i < complaints.size(); ++i) {
    if (i) out.push_back(',');
    out.push_back('"');
    for (char c : complaints[i]) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
  }
  out += "]}";
  return out;
}

void Watchdog::Retain(const Options& options) {
  std::lock_guard<std::mutex> g(mu_);
  options_ = options;  // last retainer's options win
  if (++retainers_ == 1) {
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { Loop(); });
  }
}

void Watchdog::Release() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (retainers_ == 0) return;
    if (--retainers_ > 0) return;
    stop_.store(true, std::memory_order_release);
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
}

bool Watchdog::running() const {
  std::lock_guard<std::mutex> g(mu_);
  return retainers_ > 0;
}

uint64_t Watchdog::RegisterProgressProbe(std::string name,
                                         std::function<bool()> outstanding,
                                         std::function<uint64_t()> position) {
  std::lock_guard<std::mutex> g(mu_);
  const uint64_t token = next_probe_token_++;
  Probe p;
  p.name = std::move(name);
  p.outstanding = std::move(outstanding);
  p.position = std::move(position);
  probes_[token] = std::move(p);
  return token;
}

void Watchdog::UnregisterProbe(uint64_t token) {
  std::lock_guard<std::mutex> g(mu_);
  probes_.erase(token);
}

Watchdog::Health Watchdog::Check() {
  Health h;
  const uint64_t now = Cycles::Now();
  uint64_t stall_ms;
  {
    std::lock_guard<std::mutex> g(mu_);
    stall_ms = options_.stall_ms;
    for (auto& [token, p] : probes_) {
      const uint64_t pos = p.position();
      if (!p.primed || pos != p.last_position) {
        p.last_position = pos;
        p.last_change_tsc = now;
        p.primed = true;
        continue;
      }
      if (p.outstanding() &&
          AgeMs(now, p.last_change_tsc) > static_cast<double>(stall_ms)) {
        char buf[256];
        snprintf(buf, sizeof(buf),
                 "probe %s stuck at %llu with work outstanding for %.0f ms",
                 p.name.c_str(), static_cast<unsigned long long>(pos),
                 AgeMs(now, p.last_change_tsc));
        h.complaints.push_back(buf);
      }
    }
  }
  const auto rows = Heartbeats::Default().Snapshot();
  h.threads = rows.size();
  for (const auto& r : rows) {
    if (r.idle) continue;
    const double age = AgeMs(now, r.last_beat_tsc);
    if (age > static_cast<double>(stall_ms)) {
      char buf[256];
      snprintf(buf, sizeof(buf), "thread %s stalled in stage %s for %.0f ms",
               r.name.c_str(), r.stage, age);
      h.complaints.push_back(buf);
    }
  }
  // Engine health latch: a degraded engine (poisoned log/page medium) is
  // unhealthy even with every thread beating on time — commits are failing
  // Unavailable, and /healthz must say 503 so writers get routed away.
  auto& eh = EngineHealth::Default();
  if (eh.degraded()) {
    h.degraded = true;
    h.degraded_reason = eh.reason();
    h.complaints.push_back("engine degraded (read-only): " +
                           h.degraded_reason);
  }
  h.io_retries = eh.io_retries();
  h.io_errors = eh.io_errors();
  h.ok = h.complaints.empty();
  h.dumps = dumps_.load(std::memory_order_relaxed);
  return h;
}

std::string Watchdog::RenderReport(const std::string& reason) {
  Health h = Check();
  const uint64_t now = Cycles::Now();
  std::string out;
  out.reserve(1 << 16);
  out += "DORADB_BLACKBOX v1\n";
  out += "reason: " + reason + "\n";
  char buf[320];
  snprintf(buf, sizeof(buf), "wall_ms: %lld\n",
           static_cast<long long>(WallMs()));
  out += buf;
  out += "== threads ==\n";
  for (const auto& r : Heartbeats::Default().Snapshot()) {
    snprintf(buf, sizeof(buf), "%-28s stage=%-14s idle=%d age_ms=%.1f\n",
             r.name.c_str(), r.stage, r.idle ? 1 : 0,
             AgeMs(now, r.last_beat_tsc));
    out += buf;
  }
  out += "== health ==\n";
  out += h.ToJson();
  out += "\n== heatmap ==\n";
  out += LoadHeatmap::Default().ToJson();
  out += "\n== metrics ==\n";
  out += MetricsRegistry::Default().Snapshot().ToJson();
  out += "\n== trace ==\n";
  out += CommitTracer::DumpText();
  out += "== end ==\n";
  return out;
}

std::string Watchdog::WriteBlackbox(const std::string& reason) {
  std::string dir;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (options_.dump_dir.empty()) return "";
    dir = options_.dump_dir + "/blackbox";
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  const uint64_t n = dumps_.fetch_add(1, std::memory_order_relaxed) + 1;
  char name[96];
  snprintf(name, sizeof(name), "/blackbox-%lld-%llu.txt",
           static_cast<long long>(WallMs()),
           static_cast<unsigned long long>(n));
  const std::string path = dir + name;
  std::ofstream f(path, std::ios::trunc);
  if (!f) return "";
  f << RenderReport(reason);
  f.close();
  {
    std::lock_guard<std::mutex> g(mu_);
    last_dump_tsc_ = Cycles::Now();
  }
  return path;
}

void Watchdog::Loop() {
  ScopedHeartbeat hb("obs.watchdog");
  for (;;) {
    uint64_t interval_ms;
    {
      std::lock_guard<std::mutex> g(mu_);
      interval_ms = options_.interval_ms;
    }
    // Nap in short slices so Release() never waits a full interval; the
    // nap is marked idle so a long interval never looks like a stall of
    // the watchdog itself.
    hb->SetIdle(true);
    uint64_t slept = 0;
    while (slept < interval_ms && !stop_.load(std::memory_order_acquire)) {
      const uint64_t slice = std::min<uint64_t>(10, interval_ms - slept);
      NapMicros(slice * 1000);
      slept += slice;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    hb->SetIdle(false);
    hb->SetStage("sweep");
    LoadHeatmap::Default().Sweep();
    hb->SetStage("check");
    Health h = Check();
    ticks_.fetch_add(1, std::memory_order_relaxed);

    bool dump = false;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!h.ok && !options_.dump_dir.empty()) {
        const double gap = AgeMs(Cycles::Now(), last_dump_tsc_);
        if (was_healthy_ || last_dump_tsc_ == 0 ||
            gap > kDumpMinGapMs) {
          dump = true;
        }
      }
      was_healthy_ = h.ok;
    }
    if (dump) {
      hb->SetStage("dump");
      WriteBlackbox(h.complaints.empty() ? "stall" : h.complaints.front());
    }

    hb->SetStage("nap");
  }
}

Watchdog& Watchdog::Default() {
  static Watchdog* dog = new Watchdog();  // leaked: process lifetime
  return *dog;
}

}  // namespace obs
}  // namespace doradb
