// DORA (thread-to-data) execution of the seven TM1 transactions: the same
// steps as the Baseline (tm1_steps.cc) under kDoraCc — isolation comes from
// the owning executor's thread-local locks; inserts/deletes take only the
// centralized RID lock (§4.2.1). The sub_nbr index is the non-routing-
// aligned path: probes to it run as secondary actions on the dispatcher,
// using the routing field stored in each leaf entry (§4.2.2).

#include "workloads/tm1/tm1.h"

namespace doradb {
namespace tm1 {

namespace {

// A one-phase transaction of a single action.
template <typename Body>
Status RunOneAction(dora::DoraEngine* e, TableId table, uint64_t s_id,
                    dora::LocalMode mode, Body&& body) {
  auto dtxn = e->BeginTxn();
  dtxn->AddPhase().AddAction(table, s_id, mode, std::forward<Body>(body));
  return e->Run(dtxn);
}

}  // namespace

void Tm1Workload::SetupDora(dora::DoraEngine* engine) {
  const uint64_t space = config_.subscribers + 1;
  engine->RegisterTable(schema_.subscriber, space,
                        config_.executors_per_table);
  engine->RegisterTable(schema_.access_info, space,
                        config_.executors_per_table);
  engine->RegisterTable(schema_.special_facility, space,
                        config_.executors_per_table);
  engine->RegisterTable(schema_.call_forwarding, space,
                        config_.executors_per_table);
}

Status Tm1Workload::RunDora(dora::DoraEngine* e, uint32_t type, Rng& rng) {
  const Input in = MakeInput(type, rng);
  switch (type) {
    case kGetSubscriberData:
      return RunOneAction(e, schema_.subscriber, in.s_id, dora::LocalMode::kS,
                          [this, in](dora::ActionEnv& env) {
                            return ReadSubscriber(env.txn, kDoraCc, in.s_id);
                          });
    case kGetNewDestination:
      return DoraGetNewDestination(e, in);
    case kGetAccessData:
      return RunOneAction(e, schema_.access_info, in.s_id,
                          dora::LocalMode::kS,
                          [this, in](dora::ActionEnv& env) {
                            return ReadAccessInfo(env.txn, kDoraCc, in);
                          });
    case kUpdateSubscriberData:
      return DoraUpdateSubscriberData(e, in);
    case kUpdateLocation:
      return DoraUpdateLocation(e, in);
    case kInsertCallForwarding:
      return DoraInsertCallForwarding(e, in);
    case kDeleteCallForwarding:
      return RunOneAction(e, schema_.call_forwarding, in.s_id,
                          dora::LocalMode::kX,
                          [this, in](dora::ActionEnv& env) {
                            return DeleteCallForwarding(env.txn, kDoraCc, in);
                          });
  }
  return Status::InvalidArgument("bad txn type");
}

Status Tm1Workload::DoraGetNewDestination(dora::DoraEngine* e,
                                          const Input& in) {
  struct State {
    std::atomic<bool> sf_active{false};
    std::atomic<bool> cf_found{false};
  };
  auto st = std::make_shared<State>();

  // Both reads run in parallel; the outcome is decided client-side.
  auto dtxn = e->BeginTxn();
  dtxn->AddPhase()
      .AddAction(schema_.special_facility, in.s_id, dora::LocalMode::kS,
                 [this, in, st](dora::ActionEnv& env) -> Status {
                   SpecialFacilityRow sf;
                   const Status s =
                       ReadSpecialFacility(env.txn, kDoraCc, in, &sf);
                   if (s.IsNotFound()) return Status::OK();
                   st->sf_active = s.ok() && sf.is_active != 0;
                   return s;
                 })
      .AddAction(schema_.call_forwarding, in.s_id, dora::LocalMode::kS,
                 [this, in, st](dora::ActionEnv& env) -> Status {
                   const Status s = FindDestination(env.txn, kDoraCc, in);
                   st->cf_found = s.ok();
                   return s.IsNotFound() ? Status::OK() : s;
                 });
  DORADB_RETURN_NOT_OK(e->Run(dtxn));
  if (!st->sf_active.load() || !st->cf_found.load()) {
    return Status::NotFound("no destination");  // user-level failure
  }
  return Status::OK();
}

Status Tm1Workload::DoraUpdateSubscriberData(dora::DoraEngine* e,
                                             const Input& in) {
  auto dtxn = e->BeginTxn();
  // SpecialFacility first: under the serial plan (DORA-S) this runs first
  // and aborts cheaply before any Subscriber work is wasted (§A.4, Fig 11).
  dtxn->AddPhase()
      .AddAction(schema_.special_facility, in.s_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) {
                   return SetFacilityData(env.txn, kDoraCc, in);
                 })
      .AddAction(schema_.subscriber, in.s_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) {
                   return SetSubscriberBit(env.txn, kDoraCc, in);
                 });
  if (plan_mode_ == PlanMode::kSerial ||
      (plan_mode_ == PlanMode::kAuto &&
       advisor_.RecommendSerial(kUpdateSubscriberData))) {
    dtxn->UseSerialPlan();
  }
  const Status s = e->Run(dtxn);
  if (plan_mode_ == PlanMode::kAuto) {
    advisor_.RecordOutcome(kUpdateSubscriberData, !s.ok());
  }
  return s;
}

Status Tm1Workload::DoraUpdateLocation(dora::DoraEngine* e,
                                       const Input& in) {
  // Secondary action (§4.2.2): the dispatcher probes the non-routing
  // sub_nbr index; the leaf entry's aux carries the routing field (s_id),
  // which determines the owning executor for the record access.
  IndexEntry ie;
  DORADB_RETURN_NOT_OK(ProbeSubNbr(in, &ie));
  return RunOneAction(e, schema_.subscriber, ie.aux, dora::LocalMode::kX,
                      [this, ie, vlr = in.vlr](dora::ActionEnv& env) {
                        return SetLocation(env.txn, kDoraCc, ie, vlr);
                      });
}

Status Tm1Workload::DoraInsertCallForwarding(dora::DoraEngine* e,
                                             const Input& in) {
  auto dtxn = e->BeginTxn();
  // Phase 1: the special facility must exist (read-only check).
  dtxn->AddPhase().AddAction(schema_.special_facility, in.s_id,
                             dora::LocalMode::kS,
                             [this, in](dora::ActionEnv& env) {
                               SpecialFacilityRow sf;
                               return ReadSpecialFacility(env.txn, kDoraCc,
                                                          in, &sf);
                             });
  // Phase 2 (after the RVP): insert the call forwarding. The insert takes
  // the centralized RID lock — the only lock manager interaction (§4.2.1).
  dtxn->AddPhase().AddAction(schema_.call_forwarding, in.s_id,
                             dora::LocalMode::kX,
                             [this, in](dora::ActionEnv& env) {
                               return InsertCallForwarding(env.txn, kDoraCc,
                                                           in);
                             });
  return e->Run(dtxn);
}

}  // namespace tm1
}  // namespace doradb
