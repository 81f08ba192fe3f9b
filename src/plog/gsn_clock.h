// GsnClock: the global sequence number authority of the partitioned log.
//
// Every log record, regardless of which partition it lands in, is stamped
// with a GSN drawn from this single atomic counter. GSNs give the merged
// multi-partition log a total order that embeds every per-transaction
// prev_lsn chain and every per-page update order, so recovery can merge
// the partition streams by GSN and replay exactly as if there had been one
// log (cf. the queue-oriented WAL designs descending from Shore-MT's
// Aether line).
//
// The fetch_add is the only cross-partition synchronization on the append
// path — one uncontended cache line versus a shared partition latch held
// across the full record memcpy (the one-partition central log).

#ifndef DORADB_PLOG_GSN_CLOCK_H_
#define DORADB_PLOG_GSN_CLOCK_H_

#include <atomic>

#include "storage/types.h"

namespace doradb {
namespace plog {

class GsnClock {
 public:
  // Issue the next GSN (first issued value is 1; 0 is kInvalidLsn).
  // acq_rel: an observer whose last_issued() covers a GSN must also see
  // everything the issuing thread wrote before drawing it (the checkpoint
  // horizon cap reads the clock and then trusts per-transaction undo-low
  // pins that were stored before their records' GSNs were drawn; RMWs
  // extend the release sequence, so the acquire load below synchronizes
  // with every issuance it covers).
  Lsn Next() { return next_.fetch_add(1, std::memory_order_acq_rel); }

  // Highest GSN issued so far. A partition that observes this value while
  // its buffer is empty knows every GSN it will ever host from now on is
  // strictly greater (stamping happens under the partition latch).
  Lsn last_issued() const {
    return next_.load(std::memory_order_acquire) - 1;
  }

  // Cold-start: ensure every future GSN exceeds `gsn` (the highest value
  // recovered from any partition's segment files or watermark header).
  // Called before any appends, so a plain CAS loop suffices.
  void AdvanceTo(Lsn gsn) {
    Lsn cur = next_.load(std::memory_order_relaxed);
    while (gsn + 1 > cur &&
           !next_.compare_exchange_weak(cur, gsn + 1,
                                        std::memory_order_acq_rel)) {
    }
  }

 private:
  std::atomic<Lsn> next_{1};
};

}  // namespace plog
}  // namespace doradb

#endif  // DORADB_PLOG_GSN_CLOCK_H_
