// DORA implementations of TPC-C NewOrder, Payment, OrderStatus.
//
// Payment follows the paper's Fig. 4 flow graph exactly: phase 1 runs the
// merged retrieve+update actions on Warehouse, District and Customer in
// parallel; an RVP separates the History insert (data dependency) into
// phase 2. A remote customer (15%) is "simply routing the Customer action
// to a different executor" — no distributed-transaction machinery.

#include <array>

#include "workloads/common/driver.h"
#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace tpcc {

namespace {
constexpr AccessOptions kNoCc = AccessOptions{false, false};
constexpr AccessOptions kRid = AccessOptions{false, true};
}  // namespace

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
  dora::FlowGraph g;
  g.AddPhase()
      .AddAction(schema_.warehouse, in.w_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) -> Status {
                   IndexEntry ie;
                   DORADB_RETURN_NOT_OK(
                       env.db->catalog()->Index(schema_.wh_pk)->Probe(
                           Schema::WhKey(in.w_id), &ie));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(
                       env.txn, schema_.warehouse, ie.rid, &bytes, kNoCc));
                   auto wh = FromBytes<WarehouseRow>(bytes);
                   wh.ytd += in.amount;
                   return env.db->Update(env.txn, schema_.warehouse, ie.rid,
                                         AsBytes(wh), kNoCc);
                 })
      .AddAction(schema_.district, in.w_id, dora::LocalMode::kX,
                 [this, in](dora::ActionEnv& env) -> Status {
                   IndexEntry ie;
                   DORADB_RETURN_NOT_OK(
                       env.db->catalog()->Index(schema_.di_pk)->Probe(
                           Schema::DiKey(in.w_id, in.d_id), &ie));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(
                       env.txn, schema_.district, ie.rid, &bytes, kNoCc));
                   auto di = FromBytes<DistrictRow>(bytes);
                   di.ytd += in.amount;
                   if (config_.trace_district_accesses) {
                     AccessTrace::Record(
                         schema_.district,
                         uint64_t(in.w_id - 1) * config_.districts + in.d_id -
                             1);
                   }
                   return env.db->Update(env.txn, schema_.district, ie.rid,
                                         AsBytes(di), kNoCc);
                 })
      .AddAction(schema_.customer, in.c_w_id, dora::LocalMode::kX,
                 [this, in, resolved_c](dora::ActionEnv& env) -> Status {
                   Rid c_rid;
                   CustomerRow cu;
                   DORADB_RETURN_NOT_OK(ResolveCustomer(
                       env.txn, in.c_w_id, in.c_d_id, in.by_name, in.last,
                       in.c_id, kNoCc, &c_rid, &cu));
                   cu.balance -= in.amount;
                   cu.ytd_payment += in.amount;
                   cu.payment_cnt++;
                   resolved_c->store(cu.c_id, std::memory_order_relaxed);
                   return env.db->Update(env.txn, schema_.customer, c_rid,
                                         AsBytes(cu), kNoCc);
                 });
  // RVP, then the History insert (the only centralized lock: its RID).
  g.AddPhase().AddAction(
      schema_.history, in.w_id, dora::LocalMode::kX,
      [this, in, resolved_c](dora::ActionEnv& env) -> Status {
        HistoryRow h{};
        h.w_id = in.w_id;
        h.d_id = in.d_id;
        h.c_id = resolved_c->load(std::memory_order_relaxed);
        h.c_w_id = in.c_w_id;
        h.c_d_id = in.c_d_id;
        h.amount = in.amount;
        Rid rid;
        return env.db->Insert(env.txn, schema_.history, AsBytes(h), &rid,
                              kRid);
      });
  return e->Run(dtxn, std::move(g));
}

Status TpccWorkload::DoraNewOrder(dora::DoraEngine* e, Rng& rng) {
  const NewOrderInput in = MakeNewOrderInput(rng);

  struct State {
    std::atomic<uint32_t> o_id{0};
    std::array<int64_t, 15> price{};
  };
  auto st = std::make_shared<State>();

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  g.AddPhase();
  // Phase 1: reads + district order-id allocation, in parallel.
  g.AddAction(schema_.warehouse, in.w_id, dora::LocalMode::kS,
              [this, in](dora::ActionEnv& env) -> Status {
                IndexEntry ie;
                DORADB_RETURN_NOT_OK(
                    env.db->catalog()->Index(schema_.wh_pk)->Probe(
                        Schema::WhKey(in.w_id), &ie));
                std::string bytes;
                return env.db->Read(env.txn, schema_.warehouse, ie.rid,
                                    &bytes, kNoCc);
              });
  g.AddAction(schema_.customer, in.w_id, dora::LocalMode::kS,
              [this, in](dora::ActionEnv& env) -> Status {
                IndexEntry ie;
                DORADB_RETURN_NOT_OK(
                    env.db->catalog()->Index(schema_.cu_pk)->Probe(
                        Schema::CuKey(in.w_id, in.d_id, in.c_id), &ie));
                std::string bytes;
                return env.db->Read(env.txn, schema_.customer, ie.rid,
                                    &bytes, kNoCc);
              });
  g.AddAction(schema_.district, in.w_id, dora::LocalMode::kX,
              [this, in, st](dora::ActionEnv& env) -> Status {
                IndexEntry ie;
                DORADB_RETURN_NOT_OK(
                    env.db->catalog()->Index(schema_.di_pk)->Probe(
                        Schema::DiKey(in.w_id, in.d_id), &ie));
                std::string bytes;
                DORADB_RETURN_NOT_OK(env.db->Read(
                    env.txn, schema_.district, ie.rid, &bytes, kNoCc));
                auto di = FromBytes<DistrictRow>(bytes);
                st->o_id.store(di.next_o_id, std::memory_order_relaxed);
                di.next_o_id++;
                return env.db->Update(env.txn, schema_.district, ie.rid,
                                      AsBytes(di), kNoCc);
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
      g.AddAction(schema_.item, anchor, dora::LocalMode::kS,
                  [this, in, st, line_idxs](dora::ActionEnv& env) -> Status {
                    for (uint8_t i : line_idxs) {
                      IndexEntry ie;
                      const Status is = env.db->catalog()->Index(schema_.it_pk)
                          ->Probe(Schema::ItKey(in.items[i]), &ie);
                      if (!is.ok()) return Status::Aborted("invalid item");
                      std::string bytes;
                      DORADB_RETURN_NOT_OK(env.db->Read(
                          env.txn, schema_.item, ie.rid, &bytes, kNoCc));
                      st->price[i] = FromBytes<ItemRow>(bytes).price;
                    }
                    return Status::OK();
                  });
    }
  }

  // Phase 2 (after the RVP): stock updates + all inserts.
  g.AddPhase();
  {
    // One stock action per supplying warehouse (routing field = w).
    std::unordered_map<uint32_t, std::vector<uint8_t>> by_supplier;
    for (uint8_t i = 0; i < in.ol_cnt; ++i) {
      by_supplier[in.supply_w[i]].push_back(i);
    }
    for (auto& [supply_w, line_idxs] : by_supplier) {
      const uint32_t sw = supply_w;
      g.AddAction(
          schema_.stock, sw, dora::LocalMode::kX,
          [this, in, sw, line_idxs](dora::ActionEnv& env) -> Status {
            for (uint8_t i : line_idxs) {
              IndexEntry ie;
              DORADB_RETURN_NOT_OK(
                  env.db->catalog()->Index(schema_.st_pk)->Probe(
                      Schema::StKey(sw, in.items[i]), &ie));
              std::string bytes;
              DORADB_RETURN_NOT_OK(env.db->Read(env.txn, schema_.stock,
                                                ie.rid, &bytes, kNoCc));
              auto stk = FromBytes<StockRow>(bytes);
              stk.quantity = stk.quantity >= in.qty[i] + 10
                                 ? stk.quantity - in.qty[i]
                                 : stk.quantity - in.qty[i] + 91;
              stk.ytd += in.qty[i];
              stk.order_cnt++;
              if (sw != in.w_id) stk.remote_cnt++;
              DORADB_RETURN_NOT_OK(env.db->Update(
                  env.txn, schema_.stock, ie.rid, AsBytes(stk), kNoCc));
            }
            return Status::OK();
          });
    }
  }
  g.AddAction(schema_.order, in.w_id, dora::LocalMode::kX,
              [this, in, st](dora::ActionEnv& env) -> Status {
                const uint32_t o_id =
                    st->o_id.load(std::memory_order_relaxed);
                OrderRow ord{};
                ord.w_id = in.w_id;
                ord.d_id = in.d_id;
                ord.o_id = o_id;
                ord.c_id = in.c_id;
                ord.ol_cnt = in.ol_cnt;
                ord.all_local = 1;
                Rid rid;
                DORADB_RETURN_NOT_OK(env.db->Insert(
                    env.txn, schema_.order, AsBytes(ord), &rid, kRid));
                DORADB_RETURN_NOT_OK(env.db->IndexInsert(
                    env.txn, schema_.or_pk,
                    Schema::OrKey(in.w_id, in.d_id, o_id),
                    IndexEntry{rid, in.w_id, false}));
                return env.db->IndexInsert(
                    env.txn, schema_.or_cust,
                    Schema::OrCustKey(in.w_id, in.d_id, in.c_id, o_id),
                    IndexEntry{rid, in.w_id, false});
              });
  g.AddAction(schema_.new_order, in.w_id, dora::LocalMode::kX,
              [this, in, st](dora::ActionEnv& env) -> Status {
                const uint32_t o_id =
                    st->o_id.load(std::memory_order_relaxed);
                NewOrderRow no{};
                no.w_id = in.w_id;
                no.d_id = in.d_id;
                no.o_id = o_id;
                Rid rid;
                DORADB_RETURN_NOT_OK(env.db->Insert(
                    env.txn, schema_.new_order, AsBytes(no), &rid, kRid));
                return env.db->IndexInsert(
                    env.txn, schema_.no_pk,
                    Schema::NoKey(in.w_id, in.d_id, o_id),
                    IndexEntry{rid, in.w_id, false});
              });
  g.AddAction(schema_.order_line, in.w_id, dora::LocalMode::kX,
              [this, in, st](dora::ActionEnv& env) -> Status {
                const uint32_t o_id =
                    st->o_id.load(std::memory_order_relaxed);
                for (uint8_t i = 0; i < in.ol_cnt; ++i) {
                  OrderLineRow line{};
                  line.w_id = in.w_id;
                  line.d_id = in.d_id;
                  line.o_id = o_id;
                  line.ol_number = static_cast<uint8_t>(i + 1);
                  line.i_id = in.items[i];
                  line.supply_w_id = in.supply_w[i];
                  line.quantity = in.qty[i];
                  line.amount = st->price[i] * in.qty[i];
                  Rid rid;
                  DORADB_RETURN_NOT_OK(env.db->Insert(env.txn,
                                                      schema_.order_line,
                                                      AsBytes(line), &rid,
                                                      kRid));
                  DORADB_RETURN_NOT_OK(env.db->IndexInsert(
                      env.txn, schema_.ol_pk,
                      Schema::OlKey(in.w_id, in.d_id, o_id, line.ol_number),
                      IndexEntry{rid, in.w_id, false}));
                }
                return Status::OK();
              });
  return e->Run(dtxn, std::move(g));
}

Status TpccWorkload::DoraOrderStatus(dora::DoraEngine* e, Rng& rng) {
  const OrderStatusInput in = MakeOrderStatusInput(rng);

  struct State {
    std::atomic<uint32_t> c_id{0};
    std::atomic<uint32_t> o_id{0};
    std::atomic<uint32_t> ol_cnt{0};
  };
  auto st = std::make_shared<State>();

  auto dtxn = e->BeginTxn();
  dora::FlowGraph g;
  // Phase 1: resolve + read the customer (by-name probes stay on the
  // customer executor — the index key embeds the routing field).
  g.AddPhase().AddAction(
      schema_.customer, in.w_id, dora::LocalMode::kS,
      [this, in, st](dora::ActionEnv& env) -> Status {
        Rid c_rid;
        CustomerRow cu;
        DORADB_RETURN_NOT_OK(ResolveCustomer(env.txn, in.w_id, in.d_id,
                                             in.by_name, in.last, in.c_id,
                                             kNoCc, &c_rid, &cu));
        st->c_id.store(cu.c_id, std::memory_order_relaxed);
        return Status::OK();
      });
  // Phase 2: the order AND its lines in ONE atomically-enqueued phase.
  // Both actions re-derive the last order id from the or_cust index (probe
  // is latch-safe) instead of passing it through an extra RVP: acquiring
  // {Order, OrderLine} in a single atomic batch keeps the local-lock
  // acquisition order consistent with NewOrder's phase-2 batch — the
  // cross-graph deadlock §4.2.3's ordered enqueue is meant to prevent.
  g.AddPhase()
      .AddAction(schema_.order, in.w_id, dora::LocalMode::kS,
                 [this, in, st](dora::ActionEnv& env) -> Status {
                   uint32_t o_id;
                   DORADB_RETURN_NOT_OK(LastOrderOf(
                       in.w_id, in.d_id,
                       st->c_id.load(std::memory_order_relaxed), &o_id));
                   IndexEntry ie;
                   DORADB_RETURN_NOT_OK(
                       env.db->catalog()->Index(schema_.or_pk)->Probe(
                           Schema::OrKey(in.w_id, in.d_id, o_id), &ie));
                   std::string bytes;
                   DORADB_RETURN_NOT_OK(env.db->Read(
                       env.txn, schema_.order, ie.rid, &bytes, kNoCc));
                   st->o_id.store(o_id, std::memory_order_relaxed);
                   st->ol_cnt.store(FromBytes<OrderRow>(bytes).ol_cnt,
                                    std::memory_order_relaxed);
                   return Status::OK();
                 })
      .AddAction(schema_.order_line, in.w_id, dora::LocalMode::kS,
                 [this, in, st](dora::ActionEnv& env) -> Status {
                   uint32_t o_id;
                   DORADB_RETURN_NOT_OK(LastOrderOf(
                       in.w_id, in.d_id,
                       st->c_id.load(std::memory_order_relaxed), &o_id));
                   std::vector<IndexEntry> lines;
                   DORADB_RETURN_NOT_OK(
                       db_->catalog()
                           ->Index(schema_.ol_pk)
                           ->ScanPrefix(
                               Schema::OlPrefix(in.w_id, in.d_id, o_id),
                               [&](std::string_view, const IndexEntry& le) {
                                 lines.push_back(le);
                                 return true;
                               }));
                   for (const auto& le : lines) {
                     std::string bytes;
                     DORADB_RETURN_NOT_OK(env.db->Read(
                         env.txn, schema_.order_line, le.rid, &bytes,
                         kNoCc));
                   }
                   return Status::OK();
                 });
  return e->Run(dtxn, std::move(g));
}

}  // namespace tpcc
}  // namespace doradb
