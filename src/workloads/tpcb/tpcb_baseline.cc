#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace tpcb {

namespace {
constexpr AccessOptions kCc = AccessOptions{true, false};
constexpr AccessOptions kForUpdate = AccessOptions{true, false, true};
}

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

Status TpcbWorkload::RunBaseline(uint32_t, Rng& rng) {
  const Input in = MakeInput(rng);
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    Catalog* cat = db_->catalog();
    // Account.
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(
        cat->Index(schema_.account_pk)->Probe(Schema::Key(in.a_id), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.account, ie.rid, &bytes, kForUpdate));
    auto acc = FromBytes<AccountRow>(bytes);
    acc.balance += in.delta;
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.account, ie.rid, AsBytes(acc), kCc));
    // Teller.
    DORADB_RETURN_NOT_OK(
        cat->Index(schema_.teller_pk)->Probe(Schema::Key(in.t_id), &ie));
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.teller, ie.rid, &bytes, kForUpdate));
    auto tel = FromBytes<TellerRow>(bytes);
    tel.balance += in.delta;
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.teller, ie.rid, AsBytes(tel), kCc));
    // Branch.
    DORADB_RETURN_NOT_OK(
        cat->Index(schema_.branch_pk)->Probe(Schema::Key(in.b_id), &ie));
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.branch, ie.rid, &bytes, kForUpdate));
    auto br = FromBytes<BranchRow>(bytes);
    br.balance += in.delta;
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.branch, ie.rid, AsBytes(br), kCc));
    // History append.
    HistoryRow h{};
    h.a_id = in.a_id;
    h.t_id = in.t_id;
    h.b_id = in.b_id;
    h.delta = in.delta;
    Rid hrid;
    return db_->Insert(txn.get(), schema_.history, AsBytes(h), &hrid, kCc);
  }();
  if (s.ok()) return db_->Commit(txn.get());
  (void)db_->Abort(txn.get());
  return s;
}

}  // namespace tpcb
}  // namespace doradb
