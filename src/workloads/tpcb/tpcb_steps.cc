// TPC-B transaction input and the row-level steps both engines' bodies
// call (workload.h), under the calling engine's CcSet.

#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace tpcb {

namespace {

// Probe + read-modify-write: add `delta` to the row's balance.
template <typename Row>
Status AddToBalance(Database* db, Transaction* txn, const CcSet& cc,
                    TableId table, IndexId index, uint64_t id,
                    int64_t delta) {
  return ProbeUpdate<Row>(db, txn, cc.rmw, table, index, Schema::Key(id),
                          [delta](Row& row) { row.balance += delta; });
}

}  // namespace

TpcbWorkload::Input TpcbWorkload::MakeInput(Rng& rng) const {
  Input in;
  in.t_id = rng.UniformInt(
      uint64_t{1}, config_.branches * config_.tellers_per_branch);
  in.b_id = (in.t_id - 1) / config_.tellers_per_branch + 1;
  if (zipf_ != nullptr) {
    // Skewed mode: Zipf rank over the whole account space (rank 1 = a_id
    // 1). The balance invariant does not care which branch the account
    // belongs to, so the 85/15 locality rule is simply replaced.
    in.a_id = zipf_->Next(rng);
  } else {
    // 85% of accounts belong to the teller's branch, 15% are remote.
    uint64_t a_branch = in.b_id;
    if (config_.branches > 1 && rng.Percent(15)) {
      do {
        a_branch = rng.UniformInt(uint64_t{1}, config_.branches);
      } while (a_branch == in.b_id);
    }
    in.a_id = (a_branch - 1) * config_.accounts_per_branch +
              rng.UniformInt(uint64_t{1}, config_.accounts_per_branch);
  }
  in.delta = rng.UniformInt(int64_t{-99999}, int64_t{99999});
  return in;
}

Status TpcbWorkload::UpdateAccount(Transaction* txn, const CcSet& cc,
                                   const Input& in) {
  return AddToBalance<AccountRow>(db_, txn, cc, schema_.account,
                                  schema_.account_pk, in.a_id, in.delta);
}

Status TpcbWorkload::UpdateTeller(Transaction* txn, const CcSet& cc,
                                  const Input& in) {
  return AddToBalance<TellerRow>(db_, txn, cc, schema_.teller,
                                 schema_.teller_pk, in.t_id, in.delta);
}

Status TpcbWorkload::UpdateBranch(Transaction* txn, const CcSet& cc,
                                  const Input& in) {
  return AddToBalance<BranchRow>(db_, txn, cc, schema_.branch,
                                 schema_.branch_pk, in.b_id, in.delta);
}

Status TpcbWorkload::InsertHistory(Transaction* txn, const CcSet& cc,
                                   const Input& in) {
  HistoryRow h{};
  h.a_id = in.a_id;
  h.t_id = in.t_id;
  h.b_id = in.b_id;
  h.delta = in.delta;
  Rid rid;
  return db_->Insert(txn, schema_.history, AsBytes(h), &rid, cc.insert);
}

}  // namespace tpcb
}  // namespace doradb
