// DORA-S plan choice (paper §A.4): monitors per-transaction-type abort
// rates and recommends serial execution plans for high-abort
// intra-parallel transactions. TM1's UpdateSubscriberData is its only
// consumer.

#ifndef DORADB_WORKLOADS_TM1_PLAN_ADVISOR_H_
#define DORADB_WORKLOADS_TM1_PLAN_ADVISOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace doradb {
namespace tm1 {

// Tracks abort rates per transaction type; recommends the serial plan when
// the observed rate crosses the threshold (§A.4: "When the abort rates are
// high, DORA switches to serial execution plans").
class PlanAdvisor {
 public:
  struct Options {
    double serial_threshold = 0.10;  // switch to DORA-S above 10% aborts
    double hysteresis = 0.05;        // switch back below threshold-hysteresis
    uint64_t min_samples = 50;
  };

  explicit PlanAdvisor(Options options) : options_(options) {}
  PlanAdvisor() : PlanAdvisor(Options()) {}

  void RecordOutcome(uint32_t txn_type, bool aborted);
  bool RecommendSerial(uint32_t txn_type) const;
  double AbortRate(uint32_t txn_type) const;

 private:
  struct TypeStats {
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> aborted{0};
    std::atomic<bool> serial{false};
  };

  const Options options_;
  mutable std::mutex mu_;
  // Keyed by caller-assigned transaction-type id.
  mutable std::unordered_map<uint32_t, std::unique_ptr<TypeStats>> stats_;

  TypeStats& StatsFor(uint32_t txn_type) const;
};

}  // namespace tm1
}  // namespace doradb

#endif  // DORADB_WORKLOADS_TM1_PLAN_ADVISOR_H_
