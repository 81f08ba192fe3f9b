// Per-executor load heatmap: a compact time-series ring of periodic
// load sweeps across all executors.
//
// DORA's health is the shape of its per-executor queues — a hot logical
// partition shows up as one deep inbox, one saturated busy fraction, and
// one fat queue-wait tail while the other executors idle. The heatmap
// turns the instantaneous counters the executors already maintain into
// a windowed time series the adaptive-routing roadmap item (and a human
// reading /heatmap) can consume:
//
//   inbox depth      level at sweep time
//   drained/s        actions executed per second over the window
//   queue-wait p99   windowed percentile from the per-executor
//                    `dora.exec.<g>.queue_wait_ns` histogram's bucket
//                    delta across the window
//   busy fraction    executor cycles spent processing drained batches /
//                    wall cycles in the window
//
// Engines register a *source* (a pull callback returning raw per-
// executor samples); Sweep() — driven by the watchdog tick — diffs each
// executor's raws against the previous sweep, pushes one window into the
// ring, and mirrors busy%/drain-rate into registry gauges so plain
// `Database::Metrics()` snapshots and DORADB_STATS lines carry the
// signal too. The reporter additionally emits one `DORADB_HEATMAP
// {json}` line per interval.

#ifndef DORADB_OBS_HEATMAP_H_
#define DORADB_OBS_HEATMAP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace doradb {
namespace obs {

// Raw per-executor state pulled from a source at sweep time. Counters
// are lifetime totals; the heatmap does the windowing.
struct ExecLoadRaw {
  uint32_t executor = 0;
  int64_t inbox_depth = 0;
  uint64_t actions_executed = 0;  // lifetime total
  uint64_t busy_cycles = 0;       // lifetime tsc cycles spent processing
  const Histogram* queue_wait = nullptr;  // per-executor queue-wait (may be null)
};
using HeatmapSource = std::function<std::vector<ExecLoadRaw>()>;

// One executor's row in one window.
struct ExecutorSample {
  uint32_t executor = 0;
  int64_t inbox_depth = 0;
  double drained_per_s = 0.0;
  uint64_t queue_wait_p99_ns = 0;  // over this window only
  double busy_frac = 0.0;          // [0,1]
};

struct HeatmapWindow {
  uint64_t seq = 0;      // monotonically increasing sweep number
  int64_t wall_ms = 0;   // unix epoch ms at sweep
  double span_ms = 0.0;  // window length (previous sweep → this one)
  std::vector<ExecutorSample> rows;  // sorted by executor index
};

class LoadHeatmap {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  explicit LoadHeatmap(size_t capacity = kDefaultCapacity);

  // Sources are pulled on every Sweep(). Unregister before the engine
  // the callback reads is stopped (DoraEngine::Stop does).
  uint64_t RegisterSource(HeatmapSource fn);
  void UnregisterSource(uint64_t token);

  // Take one window: pull every source, diff against the previous sweep,
  // append to the ring (evicting the oldest past capacity), and mirror
  // per-executor busy%/drain-rate into registry gauges. The first sweep
  // after a source appears only primes the diff state (rates read 0).
  void Sweep();

  // Tests / synthetic writers: append a pre-built window (seq/wall_ms
  // are assigned by the ring so sequences stay monotonic).
  void Push(HeatmapWindow w);

  std::vector<HeatmapWindow> Windows() const;  // oldest → newest
  HeatmapWindow Latest() const;                // rows empty if none yet
  size_t capacity() const { return capacity_; }
  uint64_t sweeps() const;

  // {"ts_ms":..,"windows":[{...},...]} — oldest → newest.
  std::string ToJson() const;
  static std::string WindowJson(const HeatmapWindow& w);

  // Percentile over a window's bucket delta: Histogram::Percentile's
  // linear interpolation applied to subtracted counts. Shared with the
  // bench skew probes, which window the same per-executor histograms.
  static uint64_t DeltaPercentile(
      const std::array<uint64_t, Histogram::kNumBuckets>& buckets,
      uint64_t total, double p);

  // The process-wide heatmap the watchdog sweeps and /heatmap serves.
  static LoadHeatmap& Default();

 private:
  struct PrevRaw {
    uint64_t actions = 0;
    uint64_t busy_cycles = 0;
    uint64_t tsc = 0;
    uint64_t qwait_count = 0;
    std::array<uint64_t, Histogram::kNumBuckets> qwait_buckets{};
    bool valid = false;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<HeatmapWindow> ring_;
  uint64_t next_seq_ = 1;
  uint64_t next_token_ = 1;
  uint64_t last_sweep_tsc_ = 0;
  std::map<uint64_t, HeatmapSource> sources_;
  std::map<uint32_t, PrevRaw> prev_;  // by executor index
};

}  // namespace obs
}  // namespace doradb

#endif  // DORADB_OBS_HEATMAP_H_
