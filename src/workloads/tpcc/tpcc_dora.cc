// DORA execution of TPC-C NewOrder, Payment and OrderStatus: the
// Baseline's steps (tpcc_steps.cc) under kDoraCc, grouped into actions.
//
// Payment follows the paper's Fig. 4 flow graph exactly: phase 1 runs the
// merged retrieve+update actions on Warehouse, District and Customer in
// parallel; an RVP separates the History insert (data dependency) into
// phase 2. A remote customer (15%) is "simply routing the Customer action
// to a different executor" — no distributed-transaction machinery.

#include <array>

#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace tpcc {

void TpccWorkload::SetupDora(dora::DoraEngine* engine) {
  const uint64_t wspace = config_.warehouses + 1;
  const uint32_t n = config_.executors_per_table;
  engine->RegisterTable(schema_.warehouse, wspace, n);
  engine->RegisterTable(schema_.district, wspace, n);
  engine->RegisterTable(schema_.customer, wspace, n);
  engine->RegisterTable(schema_.history, wspace, n);
  engine->RegisterTable(schema_.order, wspace, n);
  engine->RegisterTable(schema_.new_order, wspace, n);
  engine->RegisterTable(schema_.order_line, wspace, n);
  engine->RegisterTable(schema_.stock, wspace, n);
  engine->RegisterTable(schema_.item, config_.items + 1, n);
}

Status TpccWorkload::DoraPayment(dora::DoraEngine* e, Rng& rng) {
  const PaymentInput in = MakePaymentInput(rng);
  // The History row needs the customer id resolved in phase 1.
  auto resolved_c = std::make_shared<std::atomic<uint32_t>>(0);

  auto dtxn = e->BeginTxn();
  dtxn->AddPhase()
      .AddAction(schema_.warehouse, in.w_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) {
                   return PayWarehouse(env.txn, kDoraCc, in);
                 })
      .AddAction(schema_.district, in.w_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) {
                   return PayDistrict(env.txn, kDoraCc, in);
                 })
      .AddAction(schema_.customer, in.c_w_id, dora::LocalMode::kX,
                 [this, in, resolved_c](dora::ActionEnv& env) -> Status {
                   uint32_t c_id;
                   DORADB_RETURN_NOT_OK(
                       PayCustomer(env.txn, kDoraCc, in, &c_id));
                   resolved_c->store(c_id, std::memory_order_relaxed);
                   return Status::OK();
                 });
  // RVP, then the History insert (the only centralized lock: its RID).
  dtxn->AddPhase().AddAction(
      schema_.history, in.w_id, dora::LocalMode::kX,
      [this, in, resolved_c](dora::ActionEnv& env) {
        return InsertHistory(env.txn, kDoraCc, in,
                             resolved_c->load(std::memory_order_relaxed));
      });
  return e->Run(dtxn);
}

Status TpccWorkload::DoraNewOrder(dora::DoraEngine* e, Rng& rng) {
  const NewOrderInput in = MakeNewOrderInput(rng);

  struct State {
    std::atomic<uint32_t> o_id{0};
    std::array<int64_t, 15> price{};
  };
  auto st = std::make_shared<State>();

  auto dtxn = e->BeginTxn();
  dtxn->AddPhase();
  // Phase 1: reads + district order-id allocation, in parallel.
  dtxn->AddAction(schema_.warehouse, in.w_id, dora::LocalMode::kS,
                  [this, in](dora::ActionEnv& env) {
                    return ReadWarehouse(env.txn, kDoraCc, in);
                  });
  dtxn->AddAction(schema_.customer, in.w_id, dora::LocalMode::kS,
                  [this, in](dora::ActionEnv& env) {
                    return ReadCustomer(env.txn, kDoraCc, in);
                  });
  dtxn->AddAction(schema_.district, in.w_id, dora::LocalMode::kX,
                  [this, in, st](dora::ActionEnv& env) -> Status {
                    uint32_t o_id;
                    DORADB_RETURN_NOT_OK(
                        NextOrderId(env.txn, kDoraCc, in, &o_id));
                    st->o_id.store(o_id, std::memory_order_relaxed);
                    return Status::OK();
                  });
  // Item reads, grouped by executor (identifier = first item of the group;
  // Item is read-only so the group lock is only a routing anchor).
  {
    std::unordered_map<uint32_t, std::vector<uint8_t>> groups;
    for (uint8_t i = 0; i < in.ol_cnt; ++i) {
      groups[e->RouteIndex(schema_.item, in.items[i])].push_back(i);
    }
    for (auto& [exec_idx, line_idxs] : groups) {
      const uint64_t anchor = in.items[line_idxs[0]];
      dtxn->AddAction(
          schema_.item, anchor, dora::LocalMode::kS,
          [this, in, st, line_idxs](dora::ActionEnv& env) -> Status {
            for (uint8_t i : line_idxs) {
              DORADB_RETURN_NOT_OK(ReadItemPrice(env.txn, kDoraCc, in.items[i],
                                                 &st->price[i]));
            }
            return Status::OK();
          });
    }
  }

  // Phase 2 (after the RVP): stock updates + all inserts.
  dtxn->AddPhase();
  {
    // One stock action per supplying warehouse (routing field = w).
    std::unordered_map<uint32_t, std::vector<uint8_t>> by_supplier;
    for (uint8_t i = 0; i < in.ol_cnt; ++i) {
      by_supplier[in.supply_w[i]].push_back(i);
    }
    for (auto& [supply_w, line_idxs] : by_supplier) {
      dtxn->AddAction(schema_.stock, supply_w, dora::LocalMode::kX,
                      [this, in, line_idxs](dora::ActionEnv& env) -> Status {
                        for (uint8_t i : line_idxs) {
                          DORADB_RETURN_NOT_OK(
                              UpdateStock(env.txn, kDoraCc, in, i));
                        }
                        return Status::OK();
                      });
    }
  }
  dtxn->AddAction(schema_.order, in.w_id, dora::LocalMode::kX,
                  [this, in, st](dora::ActionEnv& env) {
                    return InsertOrder(
                        env.txn, kDoraCc, in,
                        st->o_id.load(std::memory_order_relaxed));
                  });
  dtxn->AddAction(schema_.new_order, in.w_id, dora::LocalMode::kX,
                  [this, in, st](dora::ActionEnv& env) {
                    return InsertNewOrder(
                        env.txn, kDoraCc, in,
                        st->o_id.load(std::memory_order_relaxed));
                  });
  dtxn->AddAction(schema_.order_line, in.w_id, dora::LocalMode::kX,
                  [this, in, st](dora::ActionEnv& env) -> Status {
                    const uint32_t o_id =
                        st->o_id.load(std::memory_order_relaxed);
                    for (uint8_t i = 0; i < in.ol_cnt; ++i) {
                      DORADB_RETURN_NOT_OK(InsertOrderLine(
                          env.txn, kDoraCc, in, o_id, i, st->price[i]));
                    }
                    return Status::OK();
                  });
  return e->Run(dtxn);
}

Status TpccWorkload::DoraOrderStatus(dora::DoraEngine* e, Rng& rng) {
  const OrderStatusInput in = MakeOrderStatusInput(rng);
  auto c_id = std::make_shared<std::atomic<uint32_t>>(0);

  auto dtxn = e->BeginTxn();
  // Phase 1: resolve + read the customer (by-name probes stay on the
  // customer executor — the index key embeds the routing field).
  dtxn->AddPhase().AddAction(
      schema_.customer, in.w_id, dora::LocalMode::kS,
      [this, in, c_id](dora::ActionEnv& env) -> Status {
        Rid c_rid;
        CustomerRow cu;
        DORADB_RETURN_NOT_OK(ResolveCustomer(env.txn, in.w_id, in.d_id,
                                             in.by_name, in.last, in.c_id,
                                             kDoraCc.read, &c_rid, &cu));
        c_id->store(cu.c_id, std::memory_order_relaxed);
        return Status::OK();
      });
  // Phase 2: the order AND its lines in ONE atomically-enqueued phase.
  // Both actions re-derive the last order id from the or_cust index (probe
  // is latch-safe) instead of passing it through an extra RVP: acquiring
  // {Order, OrderLine} in a single atomic batch keeps the local-lock
  // acquisition order consistent with NewOrder's phase-2 batch — the
  // cross-graph deadlock §4.2.3's ordered enqueue is meant to prevent.
  dtxn->AddPhase()
      .AddAction(schema_.order, in.w_id, dora::LocalMode::kS,
                 [this, in, c_id](dora::ActionEnv& env) -> Status {
                   uint32_t o_id;
                   DORADB_RETURN_NOT_OK(LastOrderOf(
                       in.w_id, in.d_id,
                       c_id->load(std::memory_order_relaxed), &o_id));
                   return ReadOrder(env.txn, kDoraCc, in.w_id, in.d_id, o_id);
                 })
      .AddAction(schema_.order_line, in.w_id, dora::LocalMode::kS,
                 [this, in, c_id](dora::ActionEnv& env) -> Status {
                   uint32_t o_id;
                   DORADB_RETURN_NOT_OK(LastOrderOf(
                       in.w_id, in.d_id,
                       c_id->load(std::memory_order_relaxed), &o_id));
                   return ReadOrderLines(env.txn, kDoraCc, in.w_id, in.d_id,
                                         o_id, nullptr);
                 });
  return e->Run(dtxn);
}

}  // namespace tpcc
}  // namespace doradb
