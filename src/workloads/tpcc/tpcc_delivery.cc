// TPC-C Delivery and StockLevel — the remaining two transactions of the
// full mix (deferred-execution and read-heavy decision-support styles) —
// on both engines, as their steps (tpcc_steps.cc) in each engine's order.
//
// Both DORA variants span several phases while holding earlier-phase local
// locks, so they can form cross-graph waits with NewOrder/OrderStatus; the
// executors' parked-action expiration (the paper's §4.2.3 "propagate local
// waits to the deadlock detector") resolves any such cycle by aborting a
// participant, which the driver counts as a system abort.

#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace tpcc {

// ------------------------------------------------------------- Delivery

Status TpccWorkload::BaseDelivery(Rng& rng) {
  const DeliveryInput in = MakeDeliveryInput(rng);
  return RunInTxn(db_, [&](Transaction* txn) -> Status {
    const CcSet& cc = kBaselineCc;
    for (uint8_t d = 1; d <= config_.districts; ++d) {
      uint32_t o_id;
      if (OldestNewOrder(in.w_id, d, &o_id).IsNotFound()) continue;  // skip
      DORADB_RETURN_NOT_OK(DeleteNewOrder(txn, cc, in.w_id, d, o_id));
      // The order's customer is locked before the order, the order every
      // Baseline transaction follows (OrderStatus reads customer, then
      // order). Its c_id is read without a lock: the new_order X lock
      // above excludes the only other writer of this order, and the
      // NewOrder that inserted it has committed.
      OrderRow ord{};
      DORADB_RETURN_NOT_OK(ProbeRead(db_, txn, AccessOptions::NoCc(),
                                     schema_.order, schema_.or_pk,
                                     Schema::OrKey(in.w_id, d, o_id), &ord));
      Rid c_rid;
      CustomerRow cu;
      DORADB_RETURN_NOT_OK(ResolveCustomer(txn, in.w_id, d, false, nullptr,
                                           ord.c_id, cc.rmw, &c_rid, &cu));
      DORADB_RETURN_NOT_OK(
          StampOrder(txn, cc, in.w_id, d, o_id, in.carrier, nullptr));
      int64_t total;
      DORADB_RETURN_NOT_OK(
          DeliverOrderLines(txn, cc, in.w_id, d, o_id, &total));
      DORADB_RETURN_NOT_OK(CreditCustomer(txn, cc, c_rid, cu, total));
    }
    return Status::OK();
  });
}

Status TpccWorkload::DoraDelivery(dora::DoraEngine* e, Rng& rng) {
  const DeliveryInput in = MakeDeliveryInput(rng);

  struct State {
    // Per district: delivered order id (0 = none), customer, line total.
    std::array<std::atomic<uint32_t>, 11> o_id{};
    std::array<std::atomic<uint32_t>, 11> c_id{};
    std::array<std::atomic<int64_t>, 11> total{};
  };
  auto st = std::make_shared<State>();
  const uint8_t districts = config_.districts;

  auto dtxn = e->BeginTxn();
  // Phase 1: consume the oldest NewOrder of every district.
  dtxn->AddPhase().AddAction(
      schema_.new_order, in.w_id, dora::LocalMode::kX,
      [this, in, districts, st](dora::ActionEnv& env) -> Status {
        for (uint8_t d = 1; d <= districts; ++d) {
          uint32_t o_id;
          if (OldestNewOrder(in.w_id, d, &o_id).IsNotFound()) continue;
          DORADB_RETURN_NOT_OK(
              DeleteNewOrder(env.txn, kDoraCc, in.w_id, d, o_id));
          st->o_id[d].store(o_id, std::memory_order_relaxed);
        }
        return Status::OK();
      });
  // Phase 2: order carrier stamps + order-line delivery, one action per
  // table (atomically enqueued together to keep {OR, OL} ordering
  // consistent with NewOrder's and OrderStatus's batches).
  dtxn->AddPhase()
      .AddAction(schema_.order, in.w_id, dora::LocalMode::kX,
                 [this, in, districts, st](dora::ActionEnv& env) -> Status {
                   for (uint8_t d = 1; d <= districts; ++d) {
                     const uint32_t o_id =
                         st->o_id[d].load(std::memory_order_relaxed);
                     if (o_id == 0) continue;
                     uint32_t c_id;
                     DORADB_RETURN_NOT_OK(StampOrder(env.txn, kDoraCc,
                                                     in.w_id, d, o_id,
                                                     in.carrier, &c_id));
                     st->c_id[d].store(c_id, std::memory_order_relaxed);
                   }
                   return Status::OK();
                 })
      .AddAction(schema_.order_line, in.w_id, dora::LocalMode::kX,
                 [this, in, districts, st](dora::ActionEnv& env) -> Status {
                   for (uint8_t d = 1; d <= districts; ++d) {
                     const uint32_t o_id =
                         st->o_id[d].load(std::memory_order_relaxed);
                     if (o_id == 0) continue;
                     int64_t total;
                     DORADB_RETURN_NOT_OK(DeliverOrderLines(
                         env.txn, kDoraCc, in.w_id, d, o_id, &total));
                     st->total[d].store(total, std::memory_order_relaxed);
                   }
                   return Status::OK();
                 });
  // Phase 3: credit the customers.
  dtxn->AddPhase().AddAction(
      schema_.customer, in.w_id, dora::LocalMode::kX,
      [this, in, districts, st](dora::ActionEnv& env) -> Status {
        for (uint8_t d = 1; d <= districts; ++d) {
          if (st->o_id[d].load(std::memory_order_relaxed) == 0) continue;
          Rid rid;
          CustomerRow cu;
          DORADB_RETURN_NOT_OK(ResolveCustomer(
              env.txn, in.w_id, d, false, nullptr,
              st->c_id[d].load(std::memory_order_relaxed), kDoraCc.rmw,
              &rid, &cu));
          DORADB_RETURN_NOT_OK(CreditCustomer(
              env.txn, kDoraCc, rid, cu,
              st->total[d].load(std::memory_order_relaxed)));
        }
        return Status::OK();
      });
  return e->Run(dtxn);
}

// ------------------------------------------------------------ StockLevel

Status TpccWorkload::BaseStockLevel(Rng& rng) {
  const StockLevelInput in = MakeStockLevelInput(rng);
  return RunInTxn(db_, [&](Transaction* txn) -> Status {
    const CcSet& cc = kBaselineCc;
    uint32_t next_o;
    DORADB_RETURN_NOT_OK(ReadNextOrderId(txn, cc, in, &next_o));
    std::vector<uint32_t> items;
    DORADB_RETURN_NOT_OK(RecentItems(txn, cc, in, next_o, &items));
    int low;
    return CountLowStock(txn, cc, in, items, &low);
  });
}

Status TpccWorkload::DoraStockLevel(dora::DoraEngine* e, Rng& rng) {
  const StockLevelInput in = MakeStockLevelInput(rng);

  struct State {
    std::atomic<uint32_t> next_o{0};
    std::vector<uint32_t> items;
  };
  auto st = std::make_shared<State>();

  auto dtxn = e->BeginTxn();
  dtxn->AddPhase().AddAction(
      schema_.district, in.w_id, dora::LocalMode::kS,
      [this, in, st](dora::ActionEnv& env) -> Status {
        uint32_t next_o;
        DORADB_RETURN_NOT_OK(ReadNextOrderId(env.txn, kDoraCc, in, &next_o));
        st->next_o.store(next_o, std::memory_order_relaxed);
        return Status::OK();
      });
  dtxn->AddPhase().AddAction(
      schema_.order_line, in.w_id, dora::LocalMode::kS,
      [this, in, st](dora::ActionEnv& env) {
        return RecentItems(env.txn, kDoraCc, in,
                           st->next_o.load(std::memory_order_relaxed),
                           &st->items);
      });
  dtxn->AddPhase().AddAction(schema_.stock, in.w_id, dora::LocalMode::kS,
                             [this, in, st](dora::ActionEnv& env) {
                               int low;
                               return CountLowStock(env.txn, kDoraCc, in,
                                                    st->items, &low);
                             });
  return e->Run(dtxn);
}

}  // namespace tpcc
}  // namespace doradb
