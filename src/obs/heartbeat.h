// Per-thread heartbeat table: the watchdog's view of every engine
// background thread (executors, log flushers, checkpoint coordinator).
//
// Each long-running loop registers a named Handle and calls Beat() once
// per iteration — one relaxed tsc store, cheap enough for the executor
// drain loop. Threads that block *by design* (an executor parked on an
// empty inbox, a flusher napping between ticks) mark themselves idle
// first so the watchdog never confuses "no work" with "stuck".
// SetStage() publishes a static string naming what the thread is doing
// right now; it is read by the watchdog for the blackbox per-thread
// table, so stage strings must have static storage duration.
// A handle has one writer at a time: its own loop, or, for an executor,
// a client running a transaction as the executor's guest while it holds
// the executor's baton (dora/executor.h), so a wedged guest session reads
// as a stalled executor.
//
// Handles are owned by the table and freed on Unregister — every loop
// must unregister before its thread object is joined and destroyed
// (ScopedHeartbeat does this). Snapshot() copies rows under the table
// mutex, so the watchdog never dereferences a dying handle.

#ifndef DORADB_OBS_HEARTBEAT_H_
#define DORADB_OBS_HEARTBEAT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

namespace doradb {
namespace obs {

class Heartbeats {
 public:
  class Handle {
   public:
    void Beat() { last_beat_.store(Cycles::Now(), std::memory_order_relaxed); }
    // `stage` must point at a string literal / static storage.
    void SetStage(const char* stage) {
      stage_.store(stage, std::memory_order_relaxed);
    }
    // Idle threads (parked, condvar wait) are exempt from staleness
    // checks. Leaving idle counts as a beat.
    void SetIdle(bool idle) {
      idle_.store(idle, std::memory_order_relaxed);
      if (!idle) Beat();
    }
    const std::string& name() const { return name_; }

   private:
    friend class Heartbeats;
    explicit Handle(std::string name) : name_(std::move(name)) { Beat(); }

    const std::string name_;
    std::atomic<uint64_t> last_beat_{0};
    std::atomic<const char*> stage_{"start"};
    std::atomic<bool> idle_{false};
  };

  struct Row {
    std::string name;
    const char* stage;
    bool idle;
    uint64_t last_beat_tsc;
  };

  Handle* Register(std::string name);
  void Unregister(Handle* h);
  std::vector<Row> Snapshot() const;
  size_t size() const;

  // The process-wide table the engine's threads beat into.
  static Heartbeats& Default();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Handle>> handles_;
};

// RAII registration for thread loops: registers against the default
// table on entry, unregisters on scope exit (i.e. before the thread
// function returns and the thread becomes joinable-dead).
class ScopedHeartbeat {
 public:
  explicit ScopedHeartbeat(std::string name)
      : h_(Heartbeats::Default().Register(std::move(name))) {}
  ~ScopedHeartbeat() { Heartbeats::Default().Unregister(h_); }
  ScopedHeartbeat(const ScopedHeartbeat&) = delete;
  ScopedHeartbeat& operator=(const ScopedHeartbeat&) = delete;

  Heartbeats::Handle* get() const { return h_; }
  Heartbeats::Handle* operator->() const { return h_; }

 private:
  Heartbeats::Handle* h_;
};

}  // namespace obs
}  // namespace doradb

#endif  // DORADB_OBS_HEARTBEAT_H_
