// TPC-C transaction inputs and the row-level steps both engines' bodies
// call (workload.h): each step is one row's probe + read or read-modify-
// write, one insert with its index entries, or one delete with its index
// entry (or a loop of one of these over an order's lines or a district's
// orders), under the calling engine's CcSet.

#include <algorithm>

#include "workloads/common/driver.h"
#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace tpcc {

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

TpccWorkload::DeliveryInput TpccWorkload::MakeDeliveryInput(Rng& rng) const {
  DeliveryInput in{};
  in.w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  in.carrier =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, uint64_t{10}));
  return in;
}

TpccWorkload::StockLevelInput TpccWorkload::MakeStockLevelInput(
    Rng& rng) const {
  StockLevelInput in{};
  in.w_id =
      static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, config_.warehouses));
  in.d_id =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, config_.districts));
  in.threshold =
      static_cast<int32_t>(rng.UniformInt(uint64_t{10}, uint64_t{20}));
  return in;
}

// ------------------------------------------------------ index-only lookups

namespace {

// The big-endian o_id in the last 4 bytes of an or_cust or no_pk key.
uint32_t TrailingOrderId(std::string_view key) {
  uint32_t o = 0;
  for (size_t i = key.size() - 4; i < key.size(); ++i) {
    o = (o << 8) | static_cast<uint8_t>(key[i]);
  }
  return o;
}

}  // namespace

Status TpccWorkload::LastOrderOf(uint32_t w, uint8_t d, uint32_t c,
                                 uint32_t* o_id) {
  uint32_t max_o = 0;
  DORADB_RETURN_NOT_OK(
      db_->catalog()
          ->Index(schema_.or_cust)
          ->ScanPrefix(Schema::OrCustPrefix(w, d, c),
                       [&](std::string_view key, const IndexEntry&) {
                         max_o = std::max(max_o, TrailingOrderId(key));
                         return true;
                       }));
  if (max_o == 0) return Status::NotFound("customer has no orders");
  *o_id = max_o;
  return Status::OK();
}

Status TpccWorkload::OldestNewOrder(uint32_t w, uint8_t d, uint32_t* o_id) {
  // no_pk keys are (w, d, o) big-endian: the first entry in the prefix
  // range is the minimum order id.
  bool found = false;
  KeyBuilder prefix;
  prefix.Add32(w).Add8(d);
  DORADB_RETURN_NOT_OK(
      db_->catalog()
          ->Index(schema_.no_pk)
          ->ScanPrefix(prefix.View(),
                       [&](std::string_view key, const IndexEntry&) {
                         *o_id = TrailingOrderId(key);
                         found = true;
                         return false;  // first = oldest
                       }));
  return found ? Status::OK() : Status::NotFound("no pending orders");
}

// ------------------------------------------------------------------ steps

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

Status TpccWorkload::PayWarehouse(Transaction* txn, const CcSet& cc,
                                  const PaymentInput& in) {
  return ProbeUpdate<WarehouseRow>(db_, txn, cc.rmw, schema_.warehouse,
                                   schema_.wh_pk, Schema::WhKey(in.w_id),
                                   [&in](WarehouseRow& wh) {
                                     wh.ytd += in.amount;
                                   });
}

Status TpccWorkload::PayDistrict(Transaction* txn, const CcSet& cc,
                                 const PaymentInput& in) {
  DORADB_RETURN_NOT_OK(ProbeUpdate<DistrictRow>(
      db_, txn, cc.rmw, schema_.district, schema_.di_pk,
      Schema::DiKey(in.w_id, in.d_id),
      [&in](DistrictRow& di) { di.ytd += in.amount; }));
  if (config_.trace_district_accesses) {
    AccessTrace::Record(schema_.district,
                        uint64_t(in.w_id - 1) * config_.districts + in.d_id -
                            1);
  }
  return Status::OK();
}

Status TpccWorkload::PayCustomer(Transaction* txn, const CcSet& cc,
                                 const PaymentInput& in, uint32_t* c_id) {
  Rid rid;
  CustomerRow cu;
  DORADB_RETURN_NOT_OK(ResolveCustomer(txn, in.c_w_id, in.c_d_id, in.by_name,
                                       in.last, in.c_id, cc.rmw, &rid, &cu));
  cu.balance -= in.amount;
  cu.ytd_payment += in.amount;
  cu.payment_cnt++;
  *c_id = cu.c_id;
  return db_->Update(txn, schema_.customer, rid, AsBytes(cu), cc.rmw);
}

Status TpccWorkload::InsertHistory(Transaction* txn, const CcSet& cc,
                                   const PaymentInput& in, uint32_t c_id) {
  HistoryRow h{};
  h.w_id = in.w_id;
  h.d_id = in.d_id;
  h.c_id = c_id;
  h.c_w_id = in.c_w_id;
  h.c_d_id = in.c_d_id;
  h.amount = in.amount;
  Rid rid;
  return db_->Insert(txn, schema_.history, AsBytes(h), &rid, cc.insert);
}

Status TpccWorkload::ReadWarehouse(Transaction* txn, const CcSet& cc,
                                   const NewOrderInput& in) {
  WarehouseRow wh;
  return ProbeRead(db_, txn, cc.read, schema_.warehouse, schema_.wh_pk,
                   Schema::WhKey(in.w_id), &wh);
}

Status TpccWorkload::ReadCustomer(Transaction* txn, const CcSet& cc,
                                  const NewOrderInput& in) {
  CustomerRow cu;
  return ProbeRead(db_, txn, cc.read, schema_.customer, schema_.cu_pk,
                   Schema::CuKey(in.w_id, in.d_id, in.c_id), &cu);
}

Status TpccWorkload::NextOrderId(Transaction* txn, const CcSet& cc,
                                 const NewOrderInput& in, uint32_t* o_id) {
  return ProbeUpdate<DistrictRow>(db_, txn, cc.rmw, schema_.district,
                                  schema_.di_pk,
                                  Schema::DiKey(in.w_id, in.d_id),
                                  [o_id](DistrictRow& di) {
                                    *o_id = di.next_o_id++;
                                  });
}

Status TpccWorkload::ReadItemPrice(Transaction* txn, const CcSet& cc,
                                   uint32_t i_id, int64_t* price) {
  IndexEntry ie;
  if (!db_->catalog()->Index(schema_.it_pk)->Probe(Schema::ItKey(i_id), &ie)
           .ok()) {
    return Status::Aborted("invalid item");  // spec rollback
  }
  std::string bytes;
  DORADB_RETURN_NOT_OK(db_->Read(txn, schema_.item, ie.rid, &bytes, cc.read));
  *price = FromBytes<ItemRow>(bytes).price;
  return Status::OK();
}

Status TpccWorkload::UpdateStock(Transaction* txn, const CcSet& cc,
                                 const NewOrderInput& in, uint8_t line) {
  const uint8_t qty = in.qty[line];
  const bool remote = in.supply_w[line] != in.w_id;
  return ProbeUpdate<StockRow>(
      db_, txn, cc.rmw, schema_.stock, schema_.st_pk,
      Schema::StKey(in.supply_w[line], in.items[line]),
      [qty, remote](StockRow& st) {
        st.quantity = st.quantity >= qty + 10 ? st.quantity - qty
                                              : st.quantity - qty + 91;
        st.ytd += qty;
        st.order_cnt++;
        if (remote) st.remote_cnt++;
      });
}

Status TpccWorkload::InsertOrder(Transaction* txn, const CcSet& cc,
                                 const NewOrderInput& in, uint32_t o_id) {
  OrderRow ord{};
  ord.w_id = in.w_id;
  ord.d_id = in.d_id;
  ord.o_id = o_id;
  ord.c_id = in.c_id;
  ord.ol_cnt = in.ol_cnt;
  ord.all_local = 1;
  Rid rid;
  DORADB_RETURN_NOT_OK(
      db_->Insert(txn, schema_.order, AsBytes(ord), &rid, cc.insert));
  DORADB_RETURN_NOT_OK(
      db_->IndexInsert(txn, schema_.or_pk, Schema::OrKey(in.w_id, in.d_id, o_id),
                       IndexEntry{rid, in.w_id, false}));
  return db_->IndexInsert(txn, schema_.or_cust,
                          Schema::OrCustKey(in.w_id, in.d_id, in.c_id, o_id),
                          IndexEntry{rid, in.w_id, false});
}

Status TpccWorkload::InsertNewOrder(Transaction* txn, const CcSet& cc,
                                    const NewOrderInput& in, uint32_t o_id) {
  NewOrderRow no{};
  no.w_id = in.w_id;
  no.d_id = in.d_id;
  no.o_id = o_id;
  Rid rid;
  DORADB_RETURN_NOT_OK(
      db_->Insert(txn, schema_.new_order, AsBytes(no), &rid, cc.insert));
  return db_->IndexInsert(txn, schema_.no_pk,
                          Schema::NoKey(in.w_id, in.d_id, o_id),
                          IndexEntry{rid, in.w_id, false});
}

Status TpccWorkload::InsertOrderLine(Transaction* txn, const CcSet& cc,
                                     const NewOrderInput& in, uint32_t o_id,
                                     uint8_t line, int64_t price) {
  OrderLineRow ol{};
  ol.w_id = in.w_id;
  ol.d_id = in.d_id;
  ol.o_id = o_id;
  ol.ol_number = static_cast<uint8_t>(line + 1);
  ol.i_id = in.items[line];
  ol.supply_w_id = in.supply_w[line];
  ol.quantity = in.qty[line];
  ol.amount = price * in.qty[line];
  Rid rid;
  DORADB_RETURN_NOT_OK(
      db_->Insert(txn, schema_.order_line, AsBytes(ol), &rid, cc.insert));
  return db_->IndexInsert(
      txn, schema_.ol_pk, Schema::OlKey(in.w_id, in.d_id, o_id, ol.ol_number),
      IndexEntry{rid, in.w_id, false});
}

Status TpccWorkload::ReadOrder(Transaction* txn, const CcSet& cc, uint32_t w,
                               uint8_t d, uint32_t o_id) {
  OrderRow ord{};
  DORADB_RETURN_NOT_OK(ProbeRead(db_, txn, cc.read, schema_.order,
                                 schema_.or_pk, Schema::OrKey(w, d, o_id),
                                 &ord));
  std::vector<IndexEntry> lines;
  DORADB_RETURN_NOT_OK(
      PrefixEntries(db_, schema_.ol_pk, Schema::OlPrefix(w, d, o_id), &lines));
  if (lines.size() != ord.ol_cnt) {
    return Status::Corruption("order line count mismatch");
  }
  return Status::OK();
}

Status TpccWorkload::ReadOrderLines(Transaction* txn, const CcSet& cc,
                                    uint32_t w, uint8_t d, uint32_t o_id,
                                    std::vector<uint32_t>* items) {
  std::vector<IndexEntry> lines;
  DORADB_RETURN_NOT_OK(
      PrefixEntries(db_, schema_.ol_pk, Schema::OlPrefix(w, d, o_id), &lines));
  for (const auto& e : lines) {
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn, schema_.order_line, e.rid, &bytes, cc.read));
    if (items != nullptr) {
      items->push_back(FromBytes<OrderLineRow>(bytes).i_id);
    }
  }
  return Status::OK();
}

Status TpccWorkload::ReadNextOrderId(Transaction* txn, const CcSet& cc,
                                     const StockLevelInput& in,
                                     uint32_t* next_o) {
  DistrictRow di{};
  DORADB_RETURN_NOT_OK(ProbeRead(db_, txn, cc.read, schema_.district,
                                 schema_.di_pk,
                                 Schema::DiKey(in.w_id, in.d_id), &di));
  *next_o = di.next_o_id;
  return Status::OK();
}

Status TpccWorkload::RecentItems(Transaction* txn, const CcSet& cc,
                                 const StockLevelInput& in, uint32_t next_o,
                                 std::vector<uint32_t>* items) {
  for (uint32_t o = next_o > 20 ? next_o - 20 : 1; o < next_o; ++o) {
    DORADB_RETURN_NOT_OK(ReadOrderLines(txn, cc, in.w_id, in.d_id, o, items));
  }
  std::sort(items->begin(), items->end());
  items->erase(std::unique(items->begin(), items->end()), items->end());
  return Status::OK();
}

Status TpccWorkload::CountLowStock(Transaction* txn, const CcSet& cc,
                                   const StockLevelInput& in,
                                   const std::vector<uint32_t>& items,
                                   int* low) {
  *low = 0;
  for (const uint32_t i_id : items) {
    StockRow st{};
    DORADB_RETURN_NOT_OK(ProbeRead(db_, txn, cc.read, schema_.stock,
                                   schema_.st_pk,
                                   Schema::StKey(in.w_id, i_id), &st));
    if (st.quantity < in.threshold) ++*low;
  }
  return Status::OK();
}

Status TpccWorkload::DeleteNewOrder(Transaction* txn, const CcSet& cc,
                                    uint32_t w, uint8_t d, uint32_t o_id) {
  const std::string key = Schema::NoKey(w, d, o_id);
  IndexEntry ie;
  DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.no_pk)->Probe(key, &ie));
  DORADB_RETURN_NOT_OK(db_->Delete(txn, schema_.new_order, ie.rid, cc.insert));
  return db_->IndexRemove(txn, schema_.no_pk, key, ie.rid, w);
}

Status TpccWorkload::StampOrder(Transaction* txn, const CcSet& cc, uint32_t w,
                                uint8_t d, uint32_t o_id, uint32_t carrier,
                                uint32_t* c_id) {
  return ProbeUpdate<OrderRow>(db_, txn, cc.rmw, schema_.order, schema_.or_pk,
                               Schema::OrKey(w, d, o_id),
                               [carrier, c_id](OrderRow& ord) {
                                 ord.carrier_id = carrier;
                                 if (c_id != nullptr) *c_id = ord.c_id;
                               });
}

Status TpccWorkload::DeliverOrderLines(Transaction* txn, const CcSet& cc,
                                       uint32_t w, uint8_t d, uint32_t o_id,
                                       int64_t* total) {
  *total = 0;
  std::vector<IndexEntry> lines;
  DORADB_RETURN_NOT_OK(
      PrefixEntries(db_, schema_.ol_pk, Schema::OlPrefix(w, d, o_id), &lines));
  for (const auto& e : lines) {
    DORADB_RETURN_NOT_OK(UpdateRow<OrderLineRow>(
        db_, txn, cc.rmw, schema_.order_line, e.rid,
        [total](OrderLineRow& line) {
          line.delivery_d = 1;
          *total += line.amount;
        }));
  }
  return Status::OK();
}

Status TpccWorkload::CreditCustomer(Transaction* txn, const CcSet& cc,
                                    const Rid& rid, CustomerRow cu,
                                    int64_t total) {
  cu.balance += total;
  cu.delivery_cnt++;
  return db_->Update(txn, schema_.customer, rid, AsBytes(cu), cc.rmw);
}
}  // namespace tpcc
}  // namespace doradb
