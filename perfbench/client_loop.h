// Closed-loop load generator for the canonical benchmark.
//
// N client threads each issue one transaction at a time through
// Workload::RunDora or Workload::RunBaseline and wait for its Status before
// issuing the next (no think time — the paper's offered-load model, §5.2).
// Unlike workloads/common/driver.cc's RunBench, every attempt's latency is
// kept exactly (nanoseconds, one entry per attempt), so p50/p99 carry no
// bucketing error, and outcomes are counted per Status code.
//
// Outcome classes:
//   commit       Status OK
//   user abort   kAborted / kNotFound / kDuplicate: an outcome the
//                benchmark itself defines (TM1's missing rows, TPC-C's 1%
//                NewOrder rollback); not a failure
//   system abort kDeadlock / kTimeout: a concurrency-control victim
//   error        any other code (Unavailable, indeterminate commit, I/O)
// Every attempt is a fresh draw from the mix: a victim is not retried
// (retrying TPC-C's DORA victims with the same input re-deadlocks them
// until throughput collapses), as in RunBench.
//
// An attempt is recorded only if the measured window was open both when it
// started and when it finished; warm-up traffic and attempts straddling a
// boundary only count toward the lifetime commit total the recovery check
// compares against.

#ifndef DORADB_PERFBENCH_CLIENT_LOOP_H_
#define DORADB_PERFBENCH_CLIENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "dora/dora_engine.h"
#include "util/status.h"
#include "workloads/common/workload.h"

namespace doradb {
namespace perfbench {

// Exits the process with a message when any DORADB_* variable is set: the
// engine still reads some of them (profiler sampling, fault injection),
// and the benchmark pins every option in code.
void RefuseEngineEnvironment();

// One attempted transaction.
struct Sample {
  uint64_t end_ns;      // completion time, since the window opened
  uint64_t latency_ns;  // issue to Status, as the client saw it
  uint32_t type;        // Workload transaction type
  uint32_t code;        // Status::Code
};

// One one-second slice of a window: its commit rate and exact latency
// percentiles over the attempts that completed in it.
struct Slice {
  double commit_tps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Everything the measured window recorded.
struct WindowRecord {
  uint64_t attempts = 0;
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  uint64_t system_aborts = 0;  // deadlock + timeout
  uint64_t errors = 0;
  std::vector<Sample> samples;
  double seconds = 0;

  void Merge(const WindowRecord& other);
  // (system aborts + errors) / attempts
  double FailRatio() const;
  // The window's whole one-second slices (the partial last second is
  // dropped); one slice over the whole window when it is shorter than two
  // seconds.
  std::vector<Slice> Slices() const;
  // Latencies (ns) of every attempt of `type`.
  std::vector<uint64_t> LatenciesOf(uint32_t type) const;
};

// Exact nearest-rank percentile of `v` in microseconds (sorts in place);
// 0 for an empty vector.
double PercentileUs(std::vector<uint64_t>* v, double pct);

// The q-quantile (0..1) of `v`, interpolating linearly between ranks.
double Quantile(std::vector<double> v, double q);

// A window's reported figures: its least-disturbed quartile of slices, the
// 75th percentile of the slices' commit rates and the 25th of their
// latencies. Interference from outside the process (other tenants of the
// host, hypervisor steal) only ever slows a second down, so this quartile
// tracks the engine's own speed; a change that slows more than a quarter
// of the seconds still moves it.
Slice GoodQuartile(const std::vector<Slice>& slices);

class ClientLoop {
 public:
  // `engine` null = Baseline (RunBaseline), else DORA (RunDora).
  ClientLoop(Workload* workload, dora::DoraEngine* engine, uint32_t clients,
             uint64_t seed);
  ~ClientLoop();

  // Spawn the clients; they run unrecorded until OpenWindow.
  void Start();
  // Open / close the measured window (once each); clients keep running.
  void OpenWindow();
  void CloseWindow();
  // Stop and join every client, then merge the per-client records.
  void Stop();

  // Valid after Stop().
  const WindowRecord& window() const { return merged_; }
  // Commits acknowledged to clients over the loop's whole life.
  uint64_t lifetime_commits() const { return lifetime_commits_; }
  // First error Status any client saw (OK when none).
  const Status& first_error() const { return first_error_; }

 private:
  struct Client {
    uint32_t id = 0;
    WindowRecord window;
    uint64_t commits = 0;
    Status first_error;
    std::thread thread;
  };
  void Run(Client* c);

  Workload* const workload_;
  dora::DoraEngine* const engine_;
  const uint64_t seed_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<bool> stop_{false};
  // Written by OpenWindow before the release store of open_, read by
  // clients after acquiring it.
  uint64_t start_ns_ = 0;
  uint64_t end_ns_ = 0;
  std::atomic<bool> open_{false};
  WindowRecord merged_;
  uint64_t lifetime_commits_ = 0;
  Status first_error_;
};

}  // namespace perfbench
}  // namespace doradb

#endif  // DORADB_PERFBENCH_CLIENT_LOOP_H_
