// TPC-C (order-entry OLTP) — Warehouse/District/Customer/History/Order/
// NewOrder/OrderLine/Item/Stock, with the three transactions the paper's
// figures use: NewOrder, Payment (the §4.1 running example, Fig. 4),
// and OrderStatus.
//
// Routing field: Warehouse id for every warehouse-partitioned table (the
// paper's choice in §4.1.1); Item is routed by item id. The customer
// last-name index embeds (w, d, last name) so its key contains the routing
// field and probes stay routing-aligned (§4.1.2).

#ifndef DORADB_WORKLOADS_TPCC_TPCC_H_
#define DORADB_WORKLOADS_TPCC_TPCC_H_

#include "workloads/common/workload.h"

namespace doradb {
namespace tpcc {

struct WarehouseRow {
  uint32_t w_id;
  int64_t ytd;        // money in cents
  int32_t tax;        // basis points
  char name[12];
  char data[32];
};

struct DistrictRow {
  uint32_t w_id;
  uint8_t d_id;
  int64_t ytd;
  int32_t tax;
  uint32_t next_o_id;
  char name[12];
  char data[32];
};

struct CustomerRow {
  uint32_t w_id;
  uint8_t d_id;
  uint32_t c_id;
  int64_t balance;
  int64_t ytd_payment;
  uint32_t payment_cnt;
  uint32_t delivery_cnt;
  int32_t discount;  // basis points
  char last[17];
  char first[17];
  char credit[3];
  char data[64];
};

struct HistoryRow {
  uint32_t w_id;
  uint8_t d_id;
  uint32_t c_id;
  uint32_t c_w_id;
  uint8_t c_d_id;
  int64_t amount;
  char data[25];
};

struct OrderRow {
  uint32_t w_id;
  uint8_t d_id;
  uint32_t o_id;
  uint32_t c_id;
  uint32_t carrier_id;  // 0 = not delivered
  uint8_t ol_cnt;
  uint8_t all_local;
  uint64_t entry_d;
};

struct NewOrderRow {
  uint32_t w_id;
  uint8_t d_id;
  uint32_t o_id;
};

struct OrderLineRow {
  uint32_t w_id;
  uint8_t d_id;
  uint32_t o_id;
  uint8_t ol_number;
  uint32_t i_id;
  uint32_t supply_w_id;
  uint8_t quantity;
  int64_t amount;
  uint64_t delivery_d;
  char dist_info[25];
};

struct ItemRow {
  uint32_t i_id;
  uint32_t im_id;
  int64_t price;
  char name[25];
  char data[32];
};

struct StockRow {
  uint32_t w_id;
  uint32_t i_id;
  int32_t quantity;
  int64_t ytd;
  uint32_t order_cnt;
  uint32_t remote_cnt;
  char data[32];
};

struct Schema {
  TableId warehouse, district, customer, history, order, new_order,
      order_line, item, stock;
  IndexId wh_pk, di_pk, cu_pk, cu_name, or_pk, or_cust, no_pk, ol_pk, it_pk,
      st_pk;

  Status Create(Database* db);

  static std::string WhKey(uint32_t w);
  static std::string DiKey(uint32_t w, uint8_t d);
  static std::string CuKey(uint32_t w, uint8_t d, uint32_t c);
  static std::string CuNameKey(uint32_t w, uint8_t d, const char* last);
  static std::string OrKey(uint32_t w, uint8_t d, uint32_t o);
  static std::string OrCustPrefix(uint32_t w, uint8_t d, uint32_t c);
  static std::string OrCustKey(uint32_t w, uint8_t d, uint32_t c, uint32_t o);
  static std::string NoKey(uint32_t w, uint8_t d, uint32_t o);
  static std::string OlKey(uint32_t w, uint8_t d, uint32_t o, uint8_t ol);
  static std::string OlPrefix(uint32_t w, uint8_t d, uint32_t o);
  static std::string ItKey(uint32_t i);
  static std::string StKey(uint32_t w, uint32_t i);
};

enum TxnType : uint32_t {
  kNewOrder = 0,
  kPayment = 1,
  kOrderStatus = 2,
  kDelivery = 3,
  kStockLevel = 4,
  kNumTxnTypes = 5,
};

class TpccWorkload : public Workload {
 public:
  struct Config {
    uint32_t warehouses = 4;
    uint8_t districts = 10;
    uint32_t customers_per_district = 300;
    uint32_t items = 1000;
    uint32_t initial_orders_per_district = 10;
    uint32_t executors_per_table = 1;
    bool trace_district_accesses = false;  // Fig. 10
  };

  TpccWorkload(Database* db, Config config) : db_(db), config_(config) {}

  std::string name() const override { return "TPC-C"; }
  Status Load() override;
  void SetupDora(dora::DoraEngine* engine) override;
  uint32_t NumTxnTypes() const override { return kNumTxnTypes; }
  const char* TxnName(uint32_t type) const override;
  uint32_t PickTxnType(Rng& rng) const override;
  Status RunBaseline(uint32_t type, Rng& rng) override;
  Status RunDora(dora::DoraEngine* engine, uint32_t type, Rng& rng) override;

  const Schema& schema() const { return schema_; }
  const Config& config() const { return config_; }

  // Invariants: W_YTD == sum(D_YTD); D_NEXT_O_ID - 1 == max(O_ID);
  // per-order line counts match O_OL_CNT.
  Status CheckConsistency();

 private:
  struct PaymentInput {
    uint32_t w_id;
    uint8_t d_id;
    uint32_t c_w_id;
    uint8_t c_d_id;
    bool by_name;
    char last[17];
    uint32_t c_id;
    int64_t amount;
  };
  struct NewOrderInput {
    uint32_t w_id;
    uint8_t d_id;
    uint32_t c_id;
    uint8_t ol_cnt;
    bool rollback;  // 1%: last item id invalid
    uint32_t items[15];
    uint32_t supply_w[15];
    uint8_t qty[15];
  };
  struct OrderStatusInput {
    uint32_t w_id;
    uint8_t d_id;
    bool by_name;
    char last[17];
    uint32_t c_id;
  };
  struct DeliveryInput {
    uint32_t w_id;
    uint32_t carrier;
  };
  struct StockLevelInput {
    uint32_t w_id;
    uint8_t d_id;
    int32_t threshold;
  };

  PaymentInput MakePaymentInput(Rng& rng) const;
  NewOrderInput MakeNewOrderInput(Rng& rng) const;
  OrderStatusInput MakeOrderStatusInput(Rng& rng) const;
  DeliveryInput MakeDeliveryInput(Rng& rng) const;
  StockLevelInput MakeStockLevelInput(Rng& rng) const;

  // Index-only lookups (no record access). LastOrderOf: the customer's
  // newest order. OldestNewOrder: the district's oldest undelivered order
  // (kNotFound if it has none).
  Status LastOrderOf(uint32_t w, uint8_t d, uint32_t c, uint32_t* o_id);
  Status OldestNewOrder(uint32_t w, uint8_t d, uint32_t* o_id);

  // Row-level steps, shared by both engines' bodies (workload.h).
  // Customer by id, or by last name (the middle match, spec 2.5.2.2).
  Status ResolveCustomer(Transaction* txn, uint32_t w, uint8_t d,
                         bool by_name, const char* last, uint32_t c_id,
                         const AccessOptions& opts, Rid* rid,
                         CustomerRow* row);
  // Payment.
  Status PayWarehouse(Transaction* txn, const CcSet& cc,
                      const PaymentInput& in);
  Status PayDistrict(Transaction* txn, const CcSet& cc,
                     const PaymentInput& in);
  Status PayCustomer(Transaction* txn, const CcSet& cc,
                     const PaymentInput& in, uint32_t* c_id);
  Status InsertHistory(Transaction* txn, const CcSet& cc,
                       const PaymentInput& in, uint32_t c_id);
  // NewOrder.
  Status ReadWarehouse(Transaction* txn, const CcSet& cc,
                       const NewOrderInput& in);
  Status ReadCustomer(Transaction* txn, const CcSet& cc,
                      const NewOrderInput& in);
  Status NextOrderId(Transaction* txn, const CcSet& cc,
                     const NewOrderInput& in, uint32_t* o_id);
  // kAborted for an invalid item (the spec's 1% rollback).
  Status ReadItemPrice(Transaction* txn, const CcSet& cc, uint32_t i_id,
                       int64_t* price);
  Status UpdateStock(Transaction* txn, const CcSet& cc,
                     const NewOrderInput& in, uint8_t line);
  Status InsertOrder(Transaction* txn, const CcSet& cc,
                     const NewOrderInput& in, uint32_t o_id);
  Status InsertNewOrder(Transaction* txn, const CcSet& cc,
                        const NewOrderInput& in, uint32_t o_id);
  Status InsertOrderLine(Transaction* txn, const CcSet& cc,
                         const NewOrderInput& in, uint32_t o_id,
                         uint8_t line, int64_t price);
  // OrderStatus and StockLevel. ReadOrder fails with kCorruption when the
  // ol_pk index holds other than the order's ol_cnt lines; ReadOrderLines
  // appends each line's i_id to `items` when given.
  Status ReadOrder(Transaction* txn, const CcSet& cc, uint32_t w, uint8_t d,
                   uint32_t o_id);
  Status ReadOrderLines(Transaction* txn, const CcSet& cc, uint32_t w,
                        uint8_t d, uint32_t o_id,
                        std::vector<uint32_t>* items);
  Status ReadNextOrderId(Transaction* txn, const CcSet& cc,
                         const StockLevelInput& in, uint32_t* next_o);
  // The distinct items of the district's last 20 orders, sorted.
  Status RecentItems(Transaction* txn, const CcSet& cc,
                     const StockLevelInput& in, uint32_t next_o,
                     std::vector<uint32_t>* items);
  Status CountLowStock(Transaction* txn, const CcSet& cc,
                       const StockLevelInput& in,
                       const std::vector<uint32_t>& items, int* low);
  // Delivery. StampOrder reports the order's customer when `c_id` is
  // given; CreditCustomer updates a row ResolveCustomer read with cc.rmw.
  Status DeleteNewOrder(Transaction* txn, const CcSet& cc, uint32_t w,
                        uint8_t d, uint32_t o_id);
  Status StampOrder(Transaction* txn, const CcSet& cc, uint32_t w, uint8_t d,
                    uint32_t o_id, uint32_t carrier, uint32_t* c_id);
  Status DeliverOrderLines(Transaction* txn, const CcSet& cc, uint32_t w,
                           uint8_t d, uint32_t o_id, int64_t* total);
  Status CreditCustomer(Transaction* txn, const CcSet& cc, const Rid& rid,
                        CustomerRow cu, int64_t total);

  Status BasePayment(Rng& rng);
  Status BaseNewOrder(Rng& rng);
  Status BaseOrderStatus(Rng& rng);
  Status BaseDelivery(Rng& rng);
  Status BaseStockLevel(Rng& rng);
  Status DoraPayment(dora::DoraEngine* e, Rng& rng);
  Status DoraNewOrder(dora::DoraEngine* e, Rng& rng);
  Status DoraOrderStatus(dora::DoraEngine* e, Rng& rng);
  Status DoraDelivery(dora::DoraEngine* e, Rng& rng);
  Status DoraStockLevel(dora::DoraEngine* e, Rng& rng);

  uint32_t MaxNameNum() const {
    return config_.customers_per_district < 1000
               ? config_.customers_per_district - 1
               : 999;
  }

  Database* const db_;
  const Config config_;
  Schema schema_;
};

}  // namespace tpcc
}  // namespace doradb

#endif  // DORADB_WORKLOADS_TPCC_TPCC_H_
