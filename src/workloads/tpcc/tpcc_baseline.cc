// Conventional implementations of TPC-C NewOrder, Payment, OrderStatus,
// plus input generation and shared customer/order resolution helpers.

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "workloads/common/driver.h"
#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace tpcc {

namespace {
constexpr AccessOptions kCc = AccessOptions{true, false};
// Read-then-update sites lock X up front (Shore-Kits' *_forupdate probes).
constexpr AccessOptions kForUpdate = AccessOptions{true, false, true};
}

// ------------------------------------------------------------ input makers

TpccWorkload::PaymentInput TpccWorkload::MakePaymentInput(Rng& rng) const {
  PaymentInput in{};
  in.w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  in.d_id =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, config_.districts));
  // 15% remote customer (spec 2.5.1.2) — the case that forces a
  // distributed transaction in shared-nothing designs but is just another
  // routed action in DORA (§4.1.2).
  if (config_.warehouses > 1 && rng.Percent(15)) {
    do {
      in.c_w_id = static_cast<uint32_t>(
          rng.UniformInt(uint64_t{1}, config_.warehouses));
    } while (in.c_w_id == in.w_id);
    in.c_d_id =
        static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, config_.districts));
  } else {
    in.c_w_id = in.w_id;
    in.c_d_id = in.d_id;
  }
  in.by_name = rng.Percent(60);
  const std::string last =
      Rng::LastName(static_cast<uint32_t>(rng.NURand(255, 0, MaxNameNum())));
  std::snprintf(in.last, sizeof(in.last), "%s", last.c_str());
  in.c_id = static_cast<uint32_t>(
      rng.NURand(1023, 1, config_.customers_per_district));
  in.amount = static_cast<int64_t>(rng.UniformInt(uint64_t{100},
                                                  uint64_t{500000}));
  return in;
}

TpccWorkload::NewOrderInput TpccWorkload::MakeNewOrderInput(Rng& rng) const {
  NewOrderInput in{};
  in.w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  in.d_id =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, config_.districts));
  in.c_id = static_cast<uint32_t>(
      rng.NURand(1023, 1, config_.customers_per_district));
  in.ol_cnt = static_cast<uint8_t>(rng.UniformInt(uint64_t{5}, uint64_t{15}));
  in.rollback = rng.Percent(1);  // spec 2.4.1.4: 1% use an invalid item
  for (uint8_t i = 0; i < in.ol_cnt; ++i) {
    in.items[i] =
        static_cast<uint32_t>(rng.NURand(8191, 1, config_.items));
    in.supply_w[i] = in.w_id;
    if (config_.warehouses > 1 && rng.Percent(1)) {
      do {
        in.supply_w[i] = static_cast<uint32_t>(
            rng.UniformInt(uint64_t{1}, config_.warehouses));
      } while (in.supply_w[i] == in.w_id);
    }
    in.qty[i] = static_cast<uint8_t>(rng.UniformInt(uint64_t{1},
                                                    uint64_t{10}));
  }
  if (in.rollback) in.items[in.ol_cnt - 1] = config_.items + 1;  // invalid
  return in;
}

TpccWorkload::OrderStatusInput TpccWorkload::MakeOrderStatusInput(
    Rng& rng) const {
  OrderStatusInput in{};
  in.w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  in.d_id =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, config_.districts));
  in.by_name = rng.Percent(60);
  const std::string last =
      Rng::LastName(static_cast<uint32_t>(rng.NURand(255, 0, MaxNameNum())));
  std::snprintf(in.last, sizeof(in.last), "%s", last.c_str());
  in.c_id = static_cast<uint32_t>(
      rng.NURand(1023, 1, config_.customers_per_district));
  return in;
}

// --------------------------------------------------------- shared helpers

Status TpccWorkload::ResolveCustomer(Transaction* txn, uint32_t w, uint8_t d,
                                     bool by_name, const char* last,
                                     uint32_t c_id, const AccessOptions& opts,
                                     Rid* rid, CustomerRow* row) {
  Catalog* cat = db_->catalog();
  if (by_name) {
    // Spec 2.5.2.2: collect matches sorted by first name, take the middle.
    std::vector<IndexEntry> matches;
    DORADB_RETURN_NOT_OK(cat->Index(schema_.cu_name)
                             ->ProbeAll(Schema::CuNameKey(w, d, last),
                                        &matches));
    if (matches.empty()) return Status::NotFound("no customer by name");
    const IndexEntry& pick = matches[matches.size() / 2];
    *rid = pick.rid;
  } else {
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(
        cat->Index(schema_.cu_pk)->Probe(Schema::CuKey(w, d, c_id), &ie));
    *rid = ie.rid;
  }
  std::string bytes;
  DORADB_RETURN_NOT_OK(db_->Read(txn, schema_.customer, *rid, &bytes, opts));
  *row = FromBytes<CustomerRow>(bytes);
  return Status::OK();
}

Status TpccWorkload::LastOrderOf(uint32_t w, uint8_t d, uint32_t c,
                                 uint32_t* o_id) {
  uint32_t max_o = 0;
  DORADB_RETURN_NOT_OK(
      db_->catalog()
          ->Index(schema_.or_cust)
          ->ScanPrefix(Schema::OrCustPrefix(w, d, c),
                       [&](std::string_view key, const IndexEntry&) {
                         // Last 4 key bytes are the big-endian o_id.
                         uint32_t o = 0;
                         for (int i = 0; i < 4; ++i) {
                           o = (o << 8) |
                               static_cast<uint8_t>(key[key.size() - 4 + i]);
                         }
                         max_o = std::max(max_o, o);
                         return true;
                       }));
  if (max_o == 0) return Status::NotFound("customer has no orders");
  *o_id = max_o;
  return Status::OK();
}

// ------------------------------------------------------------ transactions

Status TpccWorkload::BasePayment(Rng& rng) {
  const PaymentInput in = MakePaymentInput(rng);
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    Catalog* cat = db_->catalog();
    // Warehouse: reflect payment in YTD.
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(
        cat->Index(schema_.wh_pk)->Probe(Schema::WhKey(in.w_id), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.warehouse, ie.rid, &bytes, kForUpdate));
    auto wh = FromBytes<WarehouseRow>(bytes);
    wh.ytd += in.amount;
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.warehouse, ie.rid, AsBytes(wh), kCc));
    // District.
    DORADB_RETURN_NOT_OK(cat->Index(schema_.di_pk)
                             ->Probe(Schema::DiKey(in.w_id, in.d_id), &ie));
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.district, ie.rid, &bytes, kForUpdate));
    auto di = FromBytes<DistrictRow>(bytes);
    di.ytd += in.amount;
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.district, ie.rid, AsBytes(di), kCc));
    if (config_.trace_district_accesses) {
      AccessTrace::Record(schema_.district,
                          uint64_t(in.w_id - 1) * config_.districts +
                              in.d_id - 1);
    }
    // Customer (60% by last name).
    Rid c_rid;
    CustomerRow cu;
    DORADB_RETURN_NOT_OK(ResolveCustomer(txn.get(), in.c_w_id, in.c_d_id,
                                         in.by_name, in.last, in.c_id,
                                         kForUpdate, &c_rid, &cu));
    cu.balance -= in.amount;
    cu.ytd_payment += in.amount;
    cu.payment_cnt++;
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.customer, c_rid, AsBytes(cu), kCc));
    // History.
    HistoryRow h{};
    h.w_id = in.w_id;
    h.d_id = in.d_id;
    h.c_id = cu.c_id;
    h.c_w_id = in.c_w_id;
    h.c_d_id = in.c_d_id;
    h.amount = in.amount;
    Rid h_rid;
    return db_->Insert(txn.get(), schema_.history, AsBytes(h), &h_rid, kCc);
  }();
  if (s.ok()) return db_->Commit(txn.get());
  (void)db_->Abort(txn.get());
  return s;
}

Status TpccWorkload::BaseNewOrder(Rng& rng) {
  const NewOrderInput in = MakeNewOrderInput(rng);
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    Catalog* cat = db_->catalog();
    // Warehouse tax (read-only).
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(
        cat->Index(schema_.wh_pk)->Probe(Schema::WhKey(in.w_id), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.warehouse, ie.rid, &bytes, kCc));
    // District: allocate the order id.
    DORADB_RETURN_NOT_OK(cat->Index(schema_.di_pk)
                             ->Probe(Schema::DiKey(in.w_id, in.d_id), &ie));
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.district, ie.rid, &bytes, kForUpdate));
    auto di = FromBytes<DistrictRow>(bytes);
    const uint32_t o_id = di.next_o_id;
    di.next_o_id++;
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.district, ie.rid, AsBytes(di), kCc));
    // Customer discount (read-only), after the district: the Baseline lock
    // order is warehouse, district, customer (src/lock/README.md).
    DORADB_RETURN_NOT_OK(
        cat->Index(schema_.cu_pk)
            ->Probe(Schema::CuKey(in.w_id, in.d_id, in.c_id), &ie));
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.customer, ie.rid, &bytes, kCc));
    // Item prices in line order (1% invalid aborts).
    int64_t prices[15];
    for (uint8_t i = 0; i < in.ol_cnt; ++i) {
      IndexEntry it_ie;
      const Status is =
          cat->Index(schema_.it_pk)->Probe(Schema::ItKey(in.items[i]),
                                           &it_ie);
      if (!is.ok()) return Status::Aborted("invalid item");  // spec rollback
      DORADB_RETURN_NOT_OK(
          db_->Read(txn.get(), schema_.item, it_ie.rid, &bytes, kCc));
      prices[i] = FromBytes<ItemRow>(bytes).price;
    }
    // Stock updates in one predefined order, (supply_w_id, i_id), so that
    // concurrent NewOrders cannot wait on each other's stock in a cycle.
    std::vector<uint8_t> by_stock(in.ol_cnt);
    std::iota(by_stock.begin(), by_stock.end(), uint8_t{0});
    std::sort(by_stock.begin(), by_stock.end(), [&in](uint8_t a, uint8_t b) {
      return std::make_pair(in.supply_w[a], in.items[a]) <
             std::make_pair(in.supply_w[b], in.items[b]);
    });
    for (const uint8_t i : by_stock) {
      IndexEntry st_ie;
      DORADB_RETURN_NOT_OK(
          cat->Index(schema_.st_pk)
              ->Probe(Schema::StKey(in.supply_w[i], in.items[i]), &st_ie));
      DORADB_RETURN_NOT_OK(
          db_->Read(txn.get(), schema_.stock, st_ie.rid, &bytes, kForUpdate));
      auto st = FromBytes<StockRow>(bytes);
      st.quantity = st.quantity >= in.qty[i] + 10
                        ? st.quantity - in.qty[i]
                        : st.quantity - in.qty[i] + 91;
      st.ytd += in.qty[i];
      st.order_cnt++;
      if (in.supply_w[i] != in.w_id) st.remote_cnt++;
      DORADB_RETURN_NOT_OK(db_->Update(txn.get(), schema_.stock, st_ie.rid,
                                       AsBytes(st), kCc));
    }
    // Order + NewOrder + OrderLines.
    OrderRow ord{};
    ord.w_id = in.w_id;
    ord.d_id = in.d_id;
    ord.o_id = o_id;
    ord.c_id = in.c_id;
    ord.ol_cnt = in.ol_cnt;
    ord.all_local = 1;
    Rid rid;
    DORADB_RETURN_NOT_OK(
        db_->Insert(txn.get(), schema_.order, AsBytes(ord), &rid, kCc));
    DORADB_RETURN_NOT_OK(db_->IndexInsert(txn.get(), schema_.or_pk,
                                          Schema::OrKey(in.w_id, in.d_id,
                                                        o_id),
                                          IndexEntry{rid, in.w_id, false}));
    DORADB_RETURN_NOT_OK(
        db_->IndexInsert(txn.get(), schema_.or_cust,
                         Schema::OrCustKey(in.w_id, in.d_id, in.c_id, o_id),
                         IndexEntry{rid, in.w_id, false}));
    NewOrderRow no{};
    no.w_id = in.w_id;
    no.d_id = in.d_id;
    no.o_id = o_id;
    DORADB_RETURN_NOT_OK(
        db_->Insert(txn.get(), schema_.new_order, AsBytes(no), &rid, kCc));
    DORADB_RETURN_NOT_OK(db_->IndexInsert(txn.get(), schema_.no_pk,
                                          Schema::NoKey(in.w_id, in.d_id,
                                                        o_id),
                                          IndexEntry{rid, in.w_id, false}));
    for (uint8_t i = 0; i < in.ol_cnt; ++i) {
      OrderLineRow line{};
      line.w_id = in.w_id;
      line.d_id = in.d_id;
      line.o_id = o_id;
      line.ol_number = static_cast<uint8_t>(i + 1);
      line.i_id = in.items[i];
      line.supply_w_id = in.supply_w[i];
      line.quantity = in.qty[i];
      line.amount = prices[i] * in.qty[i];
      DORADB_RETURN_NOT_OK(db_->Insert(txn.get(), schema_.order_line,
                                       AsBytes(line), &rid, kCc));
      DORADB_RETURN_NOT_OK(db_->IndexInsert(
          txn.get(), schema_.ol_pk,
          Schema::OlKey(in.w_id, in.d_id, o_id, line.ol_number),
          IndexEntry{rid, in.w_id, false}));
    }
    return Status::OK();
  }();
  if (s.ok()) return db_->Commit(txn.get());
  (void)db_->Abort(txn.get());
  return s;
}

Status TpccWorkload::BaseOrderStatus(Rng& rng) {
  const OrderStatusInput in = MakeOrderStatusInput(rng);
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    Rid c_rid;
    CustomerRow cu;
    DORADB_RETURN_NOT_OK(ResolveCustomer(txn.get(), in.w_id, in.d_id,
                                         in.by_name, in.last, in.c_id, kCc,
                                         &c_rid, &cu));
    uint32_t o_id;
    DORADB_RETURN_NOT_OK(LastOrderOf(in.w_id, in.d_id, cu.c_id, &o_id));
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(
        db_->catalog()
            ->Index(schema_.or_pk)
            ->Probe(Schema::OrKey(in.w_id, in.d_id, o_id), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.order, ie.rid, &bytes, kCc));
    const auto ord = FromBytes<OrderRow>(bytes);
    // Read every order line.
    std::vector<IndexEntry> lines;
    DORADB_RETURN_NOT_OK(
        db_->catalog()
            ->Index(schema_.ol_pk)
            ->ScanPrefix(Schema::OlPrefix(in.w_id, in.d_id, o_id),
                         [&](std::string_view, const IndexEntry& e) {
                           lines.push_back(e);
                           return true;
                         }));
    if (lines.size() != ord.ol_cnt) {
      return Status::Corruption("order line count mismatch");
    }
    for (const auto& e : lines) {
      DORADB_RETURN_NOT_OK(
          db_->Read(txn.get(), schema_.order_line, e.rid, &bytes, kCc));
    }
    return Status::OK();
  }();
  if (s.ok()) return db_->Commit(txn.get());
  (void)db_->Abort(txn.get());
  return s;
}

}  // namespace tpcc
}  // namespace doradb
