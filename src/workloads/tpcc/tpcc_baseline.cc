// Conventional execution of TPC-C NewOrder, Payment and OrderStatus: the
// steps (tpcc_steps.cc) in the Baseline's statement order, which is also
// its predefined row-lock order (src/lock/README.md).

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "workloads/tpcc/tpcc.h"

namespace doradb {
namespace tpcc {

Status TpccWorkload::BasePayment(Rng& rng) {
  const PaymentInput in = MakePaymentInput(rng);
  return RunInTxn(db_, [&](Transaction* txn) -> Status {
    const CcSet& cc = kBaselineCc;
    DORADB_RETURN_NOT_OK(PayWarehouse(txn, cc, in));
    DORADB_RETURN_NOT_OK(PayDistrict(txn, cc, in));
    uint32_t c_id;
    DORADB_RETURN_NOT_OK(PayCustomer(txn, cc, in, &c_id));
    return InsertHistory(txn, cc, in, c_id);
  });
}

Status TpccWorkload::BaseNewOrder(Rng& rng) {
  const NewOrderInput in = MakeNewOrderInput(rng);
  return RunInTxn(db_, [&](Transaction* txn) -> Status {
    const CcSet& cc = kBaselineCc;
    DORADB_RETURN_NOT_OK(ReadWarehouse(txn, cc, in));
    uint32_t o_id;
    DORADB_RETURN_NOT_OK(NextOrderId(txn, cc, in, &o_id));
    // The customer after the district: the Baseline lock order is
    // warehouse, district, customer.
    DORADB_RETURN_NOT_OK(ReadCustomer(txn, cc, in));
    int64_t prices[15];
    for (uint8_t i = 0; i < in.ol_cnt; ++i) {
      DORADB_RETURN_NOT_OK(ReadItemPrice(txn, cc, in.items[i], &prices[i]));
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
      DORADB_RETURN_NOT_OK(UpdateStock(txn, cc, in, i));
    }
    DORADB_RETURN_NOT_OK(InsertOrder(txn, cc, in, o_id));
    DORADB_RETURN_NOT_OK(InsertNewOrder(txn, cc, in, o_id));
    for (uint8_t i = 0; i < in.ol_cnt; ++i) {
      DORADB_RETURN_NOT_OK(InsertOrderLine(txn, cc, in, o_id, i, prices[i]));
    }
    return Status::OK();
  });
}

Status TpccWorkload::BaseOrderStatus(Rng& rng) {
  const OrderStatusInput in = MakeOrderStatusInput(rng);
  return RunInTxn(db_, [&](Transaction* txn) -> Status {
    const CcSet& cc = kBaselineCc;
    Rid c_rid;
    CustomerRow cu;
    DORADB_RETURN_NOT_OK(ResolveCustomer(txn, in.w_id, in.d_id, in.by_name,
                                         in.last, in.c_id, cc.read, &c_rid,
                                         &cu));
    uint32_t o_id;
    DORADB_RETURN_NOT_OK(LastOrderOf(in.w_id, in.d_id, cu.c_id, &o_id));
    DORADB_RETURN_NOT_OK(ReadOrder(txn, cc, in.w_id, in.d_id, o_id));
    return ReadOrderLines(txn, cc, in.w_id, in.d_id, o_id, nullptr);
  });
}

}  // namespace tpcc
}  // namespace doradb
