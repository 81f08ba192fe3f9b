// DORA execution of the TPC-B AccountUpdate: the Baseline's steps
// (tpcb_steps.cc) under kDoraCc, one action per table.

#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace tpcb {

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
  // All four actions are mutually independent: a single phase (the history
  // row is built from transaction inputs alone, unlike TPC-C Payment).
  dtxn->AddPhase()
      .AddAction(schema_.account, in.a_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) {
                   return UpdateAccount(env.txn, kDoraCc, in);
                 })
      .AddAction(schema_.teller, in.t_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) {
                   return UpdateTeller(env.txn, kDoraCc, in);
                 })
      .AddAction(schema_.branch, in.b_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) {
                   return UpdateBranch(env.txn, kDoraCc, in);
                 })
      // The insert takes only the centralized RID lock (§4.2.1).
      .AddAction(schema_.history, in.b_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) {
                   return InsertHistory(env.txn, kDoraCc, in);
                 });
  return e->Run(dtxn);
}

}  // namespace tpcb
}  // namespace doradb
