// Conventional (thread-to-transaction) execution of the seven TM1
// transactions: every record access goes through the centralized
// hierarchical lock manager, exactly like the paper's Baseline system.
// Each body is the transaction's steps (tm1_steps.cc) in statement order.

#include "workloads/tm1/tm1.h"

namespace doradb {
namespace tm1 {

Status Tm1Workload::RunBaseline(uint32_t type, Rng& rng) {
  const Input in = MakeInput(type, rng);
  return RunInTxn(db_, [&](Transaction* txn) -> Status {
    const CcSet& cc = kBaselineCc;
    SpecialFacilityRow sf;
    switch (type) {
      case kGetSubscriberData:
        return ReadSubscriber(txn, cc, in.s_id);
      case kGetNewDestination:
        DORADB_RETURN_NOT_OK(ReadSpecialFacility(txn, cc, in, &sf));
        if (sf.is_active == 0) return Status::NotFound("sf inactive");
        return FindDestination(txn, cc, in);
      case kGetAccessData:
        return ReadAccessInfo(txn, cc, in);
      case kUpdateSubscriberData:
        // The Subscriber update always succeeds; the SpecialFacility one
        // fails ~37.5% (wrong input, §A.4).
        DORADB_RETURN_NOT_OK(SetSubscriberBit(txn, cc, in));
        return SetFacilityData(txn, cc, in);
      case kUpdateLocation: {
        IndexEntry ie;
        DORADB_RETURN_NOT_OK(ProbeSubNbr(in, &ie));
        return SetLocation(txn, cc, ie, in.vlr);
      }
      case kInsertCallForwarding:
        // The special facility must exist.
        DORADB_RETURN_NOT_OK(ReadSpecialFacility(txn, cc, in, &sf));
        return InsertCallForwarding(txn, cc, in);
      case kDeleteCallForwarding:
        return DeleteCallForwarding(txn, cc, in);
    }
    return Status::InvalidArgument("bad txn type");
  });
}

}  // namespace tm1
}  // namespace doradb
