// RebalanceController: closes the loop between the load heatmap and the
// engine's ticket-fenced routing migration (the "adaptive routing under
// skew" roadmap item; paper §6 names the fixed partition→executor binding
// as DORA's weakness under skewed access, §A.2.1 sketches the handoff).
//
// The controller consumes per-executor busy fractions from an
// obs::LoadHeatmap window. When one executor of a table runs at least
// `min_busy_gap` busier than the coldest executor of the same table, it
// either MOVES one of the hot executor's datasets to the cold one (hot
// owns more than one) or SPLITS the hot executor's single range at its
// midpoint and hands the upper half over. The new rule — version =
// current + 1 — is applied through DoraEngine::MigrateRoutingRule, which
// fences the cutover with a dispatch ticket, persists the assignment
// through the durable catalog, and records dora.rebalance.* metrics; the
// controller additionally prints one `DORADB_REBALANCE {json}` line per
// migration in the reporter's stderr line format.
//
// Determinism hooks (the migration test harness): the controller needs no
// thread at all — DecideFromWindow() is a pure function of a heatmap
// window, StepOnce() runs one decide+apply cycle inline, and Options can
// point at a private LoadHeatmap fed with Push()ed scripted windows. The
// optional Start()/Stop() background loop (used by benches and the demo)
// is pausable mid-run.

#ifndef DORADB_DORA_REBALANCE_H_
#define DORADB_DORA_REBALANCE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "dora/dora_engine.h"
#include "dora/routing.h"
#include "obs/heatmap.h"

namespace doradb {
namespace dora {

class RebalanceController {
 public:
  struct Options {
    // Minimum busy-fraction gap (hot - cold, in [0,1]) between two
    // executors of one table before a migration is considered.
    double min_busy_gap = 0.25;
    // Background-loop cadence.
    uint64_t interval_ms = 100;
    // Pull a LoadHeatmap::Sweep() before each decision, so the controller
    // works without the watchdog driving sweeps. Scripted tests Push()
    // windows instead and turn this off.
    bool sweep = true;
    // Heatmap to consume; null = LoadHeatmap::Default(). Tests use a
    // private instance so scripted windows cannot leak across tests.
    obs::LoadHeatmap* heatmap = nullptr;
  };

  // One planned migration, fully describable before any lock is taken.
  struct Decision {
    TableId table = 0;
    uint32_t hot_executor = 0;   // index within the table's group
    uint32_t cold_executor = 0;
    bool split = false;          // false = whole-dataset move
    double busy_hot = 0.0;
    double busy_cold = 0.0;
    std::shared_ptr<const RoutingRule> rule;  // version = current + 1
  };

  RebalanceController(DoraEngine* engine, Options options);
  ~RebalanceController();
  RebalanceController(const RebalanceController&) = delete;
  RebalanceController& operator=(const RebalanceController&) = delete;

  // Background loop (idempotent Start/Stop).
  void Start();
  void Stop();
  // Freeze/unfreeze the loop without tearing the thread down; StepOnce()
  // still works while paused (the deterministic harness drives it).
  void Pause() { paused_.store(true, std::memory_order_relaxed); }
  void Resume() { paused_.store(false, std::memory_order_relaxed); }
  bool paused() const { return paused_.load(std::memory_order_relaxed); }

  // Plan a migration from one heatmap window. Pure: no engine state is
  // modified. Returns false when no table shows an actionable gap.
  bool DecideFromWindow(const obs::HeatmapWindow& w, Decision* out) const;

  // Execute a planned migration (fence + publish + persist + metrics +
  // DORADB_REBALANCE line).
  Status Apply(const Decision& d);

  // One synchronous cycle: optional sweep, decide from the latest window
  // (each window seq is consumed at most once), apply. True if a
  // migration was performed.
  bool StepOnce();

  uint64_t migrations() const {
    return migrations_.load(std::memory_order_relaxed);
  }
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t moves() const { return moves_.load(std::memory_order_relaxed); }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  void Loop();
  obs::LoadHeatmap& heatmap() const {
    return options_.heatmap != nullptr ? *options_.heatmap
                                       : obs::LoadHeatmap::Default();
  }

  DoraEngine* const engine_;
  const Options options_;

  std::atomic<bool> paused_{false};
  std::atomic<uint64_t> migrations_{0};
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> moves_{0};
  std::atomic<uint64_t> failed_{0};

  // StepOnce state: last heatmap seq acted on (a window is only decided
  // once).
  uint64_t last_seq_ = 0;
  std::mutex step_mu_;  // serializes StepOnce (loop vs. explicit calls)

  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace dora
}  // namespace doradb

#endif  // DORADB_DORA_REBALANCE_H_
