#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace tpcb {

namespace {
constexpr AccessOptions kNoCc = AccessOptions{false, false};
constexpr AccessOptions kRid = AccessOptions{false, true};
}  // namespace

void TpcbWorkload::SetupDora(dora::DoraEngine* engine) {
  engine->RegisterTable(schema_.branch, config_.branches + 1,
                        config_.other_executors);
  engine->RegisterTable(schema_.teller,
                        config_.branches * config_.tellers_per_branch + 1,
                        config_.other_executors);
  engine->RegisterTable(schema_.account,
                        config_.branches * config_.accounts_per_branch + 1,
                        config_.account_executors);
  engine->RegisterTable(schema_.history, config_.branches + 1,
                        config_.other_executors);
}

Status TpcbWorkload::RunDora(dora::DoraEngine* e, uint32_t, Rng& rng) {
  const Input in = MakeInput(rng);
  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  // All four actions are mutually independent: a single phase (the history
  // row is built from transaction inputs alone, unlike TPC-C Payment).
  g.AddPhase()
      .AddAction(schema_.account, in.a_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) -> Status {
                   IndexEntry ie;
                   DORADB_RETURN_NOT_OK(
                       env.db->catalog()->Index(schema_.account_pk)->Probe(
                           Schema::Key(in.a_id), &ie));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(
                       env.txn, schema_.account, ie.rid, &bytes, kNoCc));
                   auto acc = FromBytes<AccountRow>(bytes);
                   acc.balance += in.delta;
                   return env.db->Update(env.txn, schema_.account, ie.rid,
                                         AsBytes(acc), kNoCc);
                 })
      .AddAction(schema_.teller, in.t_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) -> Status {
                   IndexEntry ie;
                   DORADB_RETURN_NOT_OK(
                       env.db->catalog()->Index(schema_.teller_pk)->Probe(
                           Schema::Key(in.t_id), &ie));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(
                       env.txn, schema_.teller, ie.rid, &bytes, kNoCc));
                   auto tel = FromBytes<TellerRow>(bytes);
                   tel.balance += in.delta;
                   return env.db->Update(env.txn, schema_.teller, ie.rid,
                                         AsBytes(tel), kNoCc);
                 })
      .AddAction(schema_.branch, in.b_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) -> Status {
                   IndexEntry ie;
                   DORADB_RETURN_NOT_OK(
                       env.db->catalog()->Index(schema_.branch_pk)->Probe(
                           Schema::Key(in.b_id), &ie));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(
                       env.txn, schema_.branch, ie.rid, &bytes, kNoCc));
                   auto br = FromBytes<BranchRow>(bytes);
                   br.balance += in.delta;
                   return env.db->Update(env.txn, schema_.branch, ie.rid,
                                         AsBytes(br), kNoCc);
                 })
      .AddAction(schema_.history, in.b_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) -> Status {
                   HistoryRow h{};
                   h.a_id = in.a_id;
                   h.t_id = in.t_id;
                   h.b_id = in.b_id;
                   h.delta = in.delta;
                   Rid rid;
                   // Insert takes only the centralized RID lock (§4.2.1).
                   return env.db->Insert(env.txn, schema_.history, AsBytes(h),
                                         &rid, kRid);
                 });
  return e->Run(dtxn, std::move(g));
}

}  // namespace tpcb
}  // namespace doradb
