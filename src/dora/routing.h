// Routing rules: the mapping from routing-field values to datasets to
// executors (paper §4.1.1).
//
// A routing rule partitions a table's routing-field domain into contiguous
// ranges, one per dataset; each dataset is owned by one executor. Rules are
// maintained at runtime by the RebalanceController (rebalance.h), which
// swaps in a new rule version to rebalance load (§A.2.1). Dispatchers read
// rules lock-free via shared_ptr snapshots; executors re-validate ownership
// on dequeue, so a stale-routed action bounces to the right executor
// instead of executing on the wrong one.

#ifndef DORADB_DORA_ROUTING_H_
#define DORADB_DORA_ROUTING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace doradb {
namespace dora {

// One immutable version of a table's routing rule.
struct RoutingRule {
  // boundaries[i] is the first routing value owned by dataset i+1; dataset 0
  // owns [0, boundaries[0]). Values >= boundaries.back() map to the last
  // dataset. Empty boundaries = single dataset.
  std::vector<uint64_t> boundaries;
  // executor (index within the table's executor group) per dataset;
  // size = boundaries.size() + 1.
  std::vector<uint32_t> executor_of_dataset;
  uint64_t version = 0;

  uint32_t DatasetOf(uint64_t value) const {
    uint32_t lo = 0, hi = static_cast<uint32_t>(boundaries.size());
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (value >= boundaries[mid]) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  uint32_t Route(uint64_t value) const {
    return executor_of_dataset[DatasetOf(value)];
  }

  // Evenly split [0, key_space) across `executors` datasets.
  static std::shared_ptr<const RoutingRule> Uniform(uint64_t key_space,
                                                    uint32_t executors);

  // Structural validity against a table's registered wiring: one executor
  // per dataset, boundaries strictly increasing inside (0, key_space),
  // every dataset's executor below `executors`. Shared by the engine's
  // migration path and by catalog-load adoption, so a rule can only be
  // installed (or persisted) if the other side would accept it.
  Status Validate(uint64_t key_space, uint32_t executors) const;
};

// Mutable holder of the current rule for one table. Route() — called once
// per action at dispatch and once more at admission (stale-route check) —
// is a single atomic pointer load; the mutex is paid only by Install and
// by snapshot readers. Installed rules are retained for the table's
// lifetime so a reader's raw pointer can never dangle: rules are tiny and
// rebalances are rare, so retention is bounded and cheap.
class RoutingTable {
 public:
  RoutingTable() = default;

  void Install(std::shared_ptr<const RoutingRule> rule) {
    std::lock_guard<std::mutex> g(mu_);
    current_.store(rule.get(), std::memory_order_release);
    retained_.push_back(std::move(rule));
  }

  std::shared_ptr<const RoutingRule> Current() const {
    std::lock_guard<std::mutex> g(mu_);
    return retained_.empty() ? nullptr : retained_.back();
  }

  uint32_t Route(uint64_t value) const {
    return current_.load(std::memory_order_acquire)->Route(value);
  }

 private:
  std::atomic<const RoutingRule*> current_{nullptr};
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const RoutingRule>> retained_;
};

}  // namespace dora
}  // namespace doradb

#endif  // DORADB_DORA_ROUTING_H_
