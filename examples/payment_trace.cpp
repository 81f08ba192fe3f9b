// Fig. 9 walk-through: traces the 12 steps of one TPC-C Payment transaction
// executing under DORA — dispatch, executor pickup, local locking, RVPs,
// the History insert's RID lock, commit, and completion fan-out.
//
//   $ ./build/examples/payment_trace

#include <cstdio>
#include <mutex>

#include "workloads/tpcc/tpcc.h"

using namespace doradb;

namespace {
std::mutex g_print_mu;
void Step(int n, const char* msg, uint32_t executor = UINT32_MAX) {
  std::lock_guard<std::mutex> g(g_print_mu);
  if (executor == UINT32_MAX) {
    std::printf("step %2d [dispatcher ] %s\n", n, msg);
  } else {
    std::printf("step %2d [executor %2u] %s\n", n, executor, msg);
  }
}
}  // namespace

int main() {
  Database db;
  tpcc::TpccWorkload::Config cfg;
  cfg.warehouses = 2;
  cfg.districts = 2;
  cfg.customers_per_district = 30;
  cfg.items = 50;
  cfg.initial_orders_per_district = 2;
  tpcc::TpccWorkload workload(&db, cfg);
  if (!workload.Load().ok()) return 1;
  const tpcc::Schema& sc = workload.schema();

  dora::DoraEngine engine(&db);
  workload.SetupDora(&engine);
  engine.Start();

  std::printf("TPC-C Payment under DORA (paper Fig. 9):\n");
  std::printf("flow graph: phase1 {U(WH), U(DI), U(CU)} -> RVP1 -> "
              "phase2 {I(HI)} -> RVP2(commit)\n\n");

  const uint32_t w = 1;
  const uint8_t d = 1;
  const uint32_t c = 7;
  const int64_t amount = 1234;

  Step(1, "client builds the flow graph and atomically enqueues phase-1 "
          "actions to the WH/DI/CU executors (ordered latching, §4.2.3)");

  auto dtxn = engine.BeginTxn();
  dtxn->AddPhase()
      .AddAction(sc.warehouse, w, dora::LocalMode::kX,
                 [&](dora::ActionEnv& env) -> Status {
                   Step(2, "WH action dequeued", env.self->global_index());
                   Step(3, "local lock table probe: X on warehouse 1 "
                           "granted (no conflict)",
                        env.self->global_index());
                   IndexEntry e;
                   DORADB_RETURN_NOT_OK(db.catalog()->Index(sc.wh_pk)->Probe(
                       tpcc::Schema::WhKey(w), &e));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(env.txn, sc.warehouse,
                                                     e.rid, &bytes,
                                                     AccessOptions::NoCc()));
                   auto row = FromBytes<tpcc::WarehouseRow>(bytes);
                   row.ytd += amount;
                   DORADB_RETURN_NOT_OK(
                       env.db->Update(env.txn, sc.warehouse, e.rid,
                                      AsBytes(row), AccessOptions::NoCc()));
                   Step(4, "WH updated without centralized locks; "
                           "decrement RVP1",
                        env.self->global_index());
                   return Status::OK();
                 })
      .AddAction(sc.district, w, dora::LocalMode::kX,
                 [&](dora::ActionEnv& env) -> Status {
                   IndexEntry e;
                   DORADB_RETURN_NOT_OK(db.catalog()->Index(sc.di_pk)->Probe(
                       tpcc::Schema::DiKey(w, d), &e));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(env.txn, sc.district,
                                                     e.rid, &bytes,
                                                     AccessOptions::NoCc()));
                   auto row = FromBytes<tpcc::DistrictRow>(bytes);
                   row.ytd += amount;
                   DORADB_RETURN_NOT_OK(
                       env.db->Update(env.txn, sc.district, e.rid,
                                      AsBytes(row), AccessOptions::NoCc()));
                   Step(4, "DI updated; decrement RVP1",
                        env.self->global_index());
                   return Status::OK();
                 })
      .AddAction(sc.customer, w, dora::LocalMode::kX,
                 [&](dora::ActionEnv& env) -> Status {
                   IndexEntry e;
                   DORADB_RETURN_NOT_OK(db.catalog()->Index(sc.cu_pk)->Probe(
                       tpcc::Schema::CuKey(w, d, c), &e));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(env.txn, sc.customer,
                                                     e.rid, &bytes,
                                                     AccessOptions::NoCc()));
                   auto row = FromBytes<tpcc::CustomerRow>(bytes);
                   row.balance -= amount;
                   row.ytd_payment += amount;
                   row.payment_cnt++;
                   DORADB_RETURN_NOT_OK(
                       env.db->Update(env.txn, sc.customer, e.rid,
                                      AsBytes(row), AccessOptions::NoCc()));
                   Step(4, "CU updated; decrement RVP1",
                        env.self->global_index());
                   return Status::OK();
                 });
  dtxn->AddPhase().AddAction(
      sc.history, w, dora::LocalMode::kX,
      [&](dora::ActionEnv& env) -> Status {
        Step(5, "last phase-1 action zeroed RVP1 and enqueued the "
                "History action", env.self->global_index());
        Step(6, "HI action dequeued", env.self->global_index());
        Step(7, "local lock table probe: granted",
             env.self->global_index());
        tpcc::HistoryRow h{};
        h.w_id = w;
        h.d_id = d;
        h.c_id = c;
        h.c_w_id = w;
        h.c_d_id = d;
        h.amount = amount;
        Rid rid;
        DORADB_RETURN_NOT_OK(env.db->Insert(env.txn, sc.history, AsBytes(h),
                                            &rid, AccessOptions::RidOnly()));
        Step(8, "History inserted — the ONE centralized lock of this "
                "transaction: the new row's RID (§4.2.1)",
             env.self->global_index());
        Step(9, "zeroing terminal RVP2: executor calls for commit "
                "(log flush)", env.self->global_index());
        return Status::OK();
      });

  const Status s = engine.Run(dtxn);
  Step(10, "storage manager committed; completion messages enqueued to "
           "WH/DI/CU/HI executors");
  Step(11, "executors pick the committed transaction id from their "
           "completed queues");
  Step(12, "executors remove its entries from their local lock tables and "
           "resume any blocked actions");
  std::printf("\nresult: %s | committed txns: %lu\n", s.ToString().c_str(),
              static_cast<unsigned long>(engine.txns_committed()));

  engine.Stop();
  return s.ok() ? 0 : 1;
}
