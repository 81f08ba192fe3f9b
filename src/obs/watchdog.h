// Stall watchdog + flight recorder: the engine's self-diagnosis thread.
//
// Every background loop beats a heartbeat (heartbeat.h); the watchdog
// wakes at `interval_ms`, drives one heatmap sweep, and checks:
//
//  * heartbeats — a non-idle registered thread silent for longer than
//    `stall_ms` is stalled (an executor stuck in an action body, a
//    flusher wedged in fsync, a checkpoint that never returns);
//  * progress probes — a subsystem position (e.g. the log flush
//    horizon) that has outstanding work but hasn't moved for `stall_ms`
//    is stuck (the group-commit-never-completes failure the pipelined
//    path gates every ack on).
//
// On a fresh unhealthy verdict it writes a black-box report to
// `<dump_dir>/blackbox/` — the last heatmap windows, a full metrics
// snapshot, the commit tracer's rings, and the per-thread stage table —
// at most one every 5 s while the engine stays unhealthy, so a wedged
// engine leaves a handful of reports, not a disk full of them.
// `/healthz` (obs_server.h) serves Check()'s verdict live.
//
// The watchdog is process-wide and refcounted: every Database retains it
// at construction (unless disabled by options) and releases it at
// destruction; the thread runs while any retainer is alive, and the last
// retainer's options win.

#ifndef DORADB_OBS_WATCHDOG_H_
#define DORADB_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace doradb {
namespace obs {

class Watchdog {
 public:
  struct Options {
    uint64_t interval_ms = 250;       // tick period (sweep + check)
    uint64_t stall_ms = 2000;         // silence/stuck threshold
    std::string dump_dir;             // blackbox under <dump_dir>/blackbox
  };

  struct Health {
    bool ok = true;
    std::vector<std::string> complaints;
    size_t threads = 0;    // registered heartbeats at check time
    uint64_t dumps = 0;    // blackbox reports written so far
    // Engine health latch (obs/health.h): a degraded engine serves reads
    // but fails logged commits Unavailable — /healthz reports 503 so
    // orchestration stops routing writes here.
    bool degraded = false;
    std::string degraded_reason;
    uint64_t io_retries = 0;  // transient storage errors retried away
    uint64_t io_errors = 0;   // storage errors that exhausted retries
    std::string ToJson() const;
  };

  // Refcounted lifecycle: Retain starts the thread on 0→1 (and installs
  // the latest options on every call); Release stops and joins on 1→0.
  void Retain(const Options& options);
  void Release();
  bool running() const;

  // A progress probe: `outstanding()` says whether the subsystem has
  // work in flight; `position()` is its progress position. Stalled =
  // outstanding and position unchanged for stall_ms. Unregister before
  // the probed subsystem dies.
  uint64_t RegisterProgressProbe(std::string name,
                                 std::function<bool()> outstanding,
                                 std::function<uint64_t()> position);
  void UnregisterProbe(uint64_t token);

  // Evaluate health right now (also advances probe change-tracking).
  // Thread-safe; called by the watchdog tick and by /healthz.
  Health Check();

  // Render / write a blackbox report immediately (also used by the
  // tick on a fresh stall). Returns the report path, or "" when no
  // dump_dir is configured.
  std::string RenderReport(const std::string& reason);
  std::string WriteBlackbox(const std::string& reason);

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  uint64_t dumps_written() const {
    return dumps_.load(std::memory_order_relaxed);
  }

  // The process-wide watchdog Database retains and /healthz queries.
  static Watchdog& Default();

 private:
  struct Probe {
    std::string name;
    std::function<bool()> outstanding;
    std::function<uint64_t()> position;
    uint64_t last_position = 0;
    uint64_t last_change_tsc = 0;
    bool primed = false;
  };

  void Loop();

  mutable std::mutex mu_;       // options, refcount, probes
  Options options_;
  int retainers_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::map<uint64_t, Probe> probes_;
  uint64_t next_probe_token_ = 1;

  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> dumps_{0};
  uint64_t last_dump_tsc_ = 0;   // guarded by mu_
  bool was_healthy_ = true;      // guarded by mu_
};

}  // namespace obs
}  // namespace doradb

#endif  // DORADB_OBS_WATCHDOG_H_
