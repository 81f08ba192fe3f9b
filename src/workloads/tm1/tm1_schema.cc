#include "workloads/tm1/tm1.h"

#include <cstddef>

namespace doradb {
namespace tm1 {

// Key specs mirror the Key() builders below field-for-field (and every
// leaf carries the routing field s_id in aux), so a durable catalog can
// rebuild these indexes from the heaps at restart without workload code.
Status Schema::Create(Database* db) {
  Catalog* cat = db->catalog();
  DORADB_RETURN_NOT_OK(cat->CreateTable("tm1_subscriber", &subscriber));
  DORADB_RETURN_NOT_OK(cat->CreateTable("tm1_access_info", &access_info));
  DORADB_RETURN_NOT_OK(
      cat->CreateTable("tm1_special_facility", &special_facility));
  DORADB_RETURN_NOT_OK(
      cat->CreateTable("tm1_call_forwarding", &call_forwarding));
  DORADB_RETURN_NOT_OK(cat->CreateIndex(
      subscriber, "tm1_sub_pk", true, false,
      IndexKeySpec{}.Uint(offsetof(SubscriberRow, s_id), 8)
          .Aux(offsetof(SubscriberRow, s_id)),
      &sub_pk));
  // The sub_nbr index is the benchmark's non-routing-aligned access path:
  // a DORA "secondary action" index whose leaves carry the routing field
  // (s_id) in aux (§4.2.2).
  DORADB_RETURN_NOT_OK(cat->CreateIndex(
      subscriber, "tm1_sub_nbr", true, true,
      IndexKeySpec{}.Bytes(offsetof(SubscriberRow, sub_nbr), 15)
          .Aux(offsetof(SubscriberRow, s_id)),
      &sub_nbr_idx));
  DORADB_RETURN_NOT_OK(cat->CreateIndex(
      access_info, "tm1_ai_pk", true, false,
      IndexKeySpec{}.Uint(offsetof(AccessInfoRow, s_id), 8)
          .Uint(offsetof(AccessInfoRow, ai_type), 1)
          .Aux(offsetof(AccessInfoRow, s_id)),
      &ai_pk));
  DORADB_RETURN_NOT_OK(cat->CreateIndex(
      special_facility, "tm1_sf_pk", true, false,
      IndexKeySpec{}.Uint(offsetof(SpecialFacilityRow, s_id), 8)
          .Uint(offsetof(SpecialFacilityRow, sf_type), 1)
          .Aux(offsetof(SpecialFacilityRow, s_id)),
      &sf_pk));
  DORADB_RETURN_NOT_OK(cat->CreateIndex(
      call_forwarding, "tm1_cf_pk", true, false,
      IndexKeySpec{}.Uint(offsetof(CallForwardingRow, s_id), 8)
          .Uint(offsetof(CallForwardingRow, sf_type), 1)
          .Uint(offsetof(CallForwardingRow, start_time), 1)
          .Aux(offsetof(CallForwardingRow, s_id)),
      &cf_pk));
  return Status::OK();
}

std::string Schema::SubKey(uint64_t s_id) {
  KeyBuilder kb;
  kb.Add64(s_id);
  return kb.Str();
}

std::string Schema::SubNbrKey(const char* sub_nbr) {
  KeyBuilder kb;
  kb.AddString(std::string_view(sub_nbr, 15), 15);
  return kb.Str();
}

std::string Schema::AiKey(uint64_t s_id, uint8_t ai_type) {
  KeyBuilder kb;
  kb.Add64(s_id).Add8(ai_type);
  return kb.Str();
}

std::string Schema::SfKey(uint64_t s_id, uint8_t sf_type) {
  KeyBuilder kb;
  kb.Add64(s_id).Add8(sf_type);
  return kb.Str();
}

std::string Schema::CfKey(uint64_t s_id, uint8_t sf_type,
                          uint8_t start_time) {
  KeyBuilder kb;
  kb.Add64(s_id).Add8(sf_type).Add8(start_time);
  return kb.Str();
}

std::string Schema::CfPrefix(uint64_t s_id, uint8_t sf_type) {
  KeyBuilder kb;
  kb.Add64(s_id).Add8(sf_type);
  return kb.Str();
}

const char* Tm1Workload::TxnName(uint32_t type) const {
  switch (type) {
    case kGetSubscriberData: return "GetSubscriberData";
    case kGetNewDestination: return "GetNewDestination";
    case kGetAccessData: return "GetAccessData";
    case kUpdateSubscriberData: return "UpdateSubscriberData";
    case kUpdateLocation: return "UpdateLocation";
    case kInsertCallForwarding: return "InsertCallForwarding";
    case kDeleteCallForwarding: return "DeleteCallForwarding";
  }
  return "?";
}

uint32_t Tm1Workload::PickTxnType(Rng& rng) const {
  // Standard TATP mix: 35/10/35/2/14/2/2.
  const uint64_t p = rng.UniformInt(uint64_t{1}, uint64_t{100});
  if (p <= 35) return kGetSubscriberData;
  if (p <= 45) return kGetNewDestination;
  if (p <= 80) return kGetAccessData;
  if (p <= 82) return kUpdateSubscriberData;
  if (p <= 96) return kUpdateLocation;
  if (p <= 98) return kInsertCallForwarding;
  return kDeleteCallForwarding;
}

}  // namespace tm1
}  // namespace doradb
