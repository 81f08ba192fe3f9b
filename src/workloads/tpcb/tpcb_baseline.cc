// Conventional execution of the TPC-B AccountUpdate: the steps
// (tpcb_steps.cc) in statement order, each row locked through the
// centralized lock manager.

#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace tpcb {

Status TpcbWorkload::RunBaseline(uint32_t, Rng& rng) {
  const Input in = MakeInput(rng);
  return RunInTxn(db_, [&](Transaction* txn) -> Status {
    DORADB_RETURN_NOT_OK(UpdateAccount(txn, kBaselineCc, in));
    DORADB_RETURN_NOT_OK(UpdateTeller(txn, kBaselineCc, in));
    DORADB_RETURN_NOT_OK(UpdateBranch(txn, kBaselineCc, in));
    return InsertHistory(txn, kBaselineCc, in);
  });
}

}  // namespace tpcb
}  // namespace doradb
