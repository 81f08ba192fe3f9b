// TM1 transaction inputs and the row-level steps both engines' bodies
// call (workload.h): each step is one row's probe + read or read-modify-
// write, one insert with its index entry, or one delete with its index
// entry, under the calling engine's CcSet.

#include "workloads/common/driver.h"
#include "workloads/tm1/tm1.h"

namespace doradb {
namespace tm1 {

Tm1Workload::Input Tm1Workload::MakeInput(uint32_t type, Rng& rng) const {
  Input in{};
  const auto uniform = [&rng](uint64_t lo, uint64_t hi) {
    return static_cast<uint8_t>(rng.UniformInt(lo, hi));
  };
  if (type == kUpdateLocation) {
    uint64_t v = RandomSid(rng);
    for (int i = 14; i >= 0; --i) {
      in.sub_nbr[i] = static_cast<char>('0' + v % 10);
      v /= 10;
    }
    in.vlr = static_cast<uint32_t>(rng.Next());
    return in;
  }
  in.s_id = RandomSid(rng);
  switch (type) {
    case kGetAccessData:
      in.ai_type = uniform(1, 4);
      break;
    case kUpdateSubscriberData:
      in.sf_type = uniform(1, 4);
      in.bit = rng.Percent(50) ? 1 : 0;
      in.data_a = uniform(0, 255);
      break;
    case kGetNewDestination:
    case kInsertCallForwarding:
    case kDeleteCallForwarding:
      in.sf_type = uniform(1, 4);
      in.start_time = static_cast<uint8_t>(uniform(0, 2) * 8);
      if (type == kGetNewDestination) {
        in.end_time = uniform(1, 24);
      } else if (type == kInsertCallForwarding) {
        in.end_time = static_cast<uint8_t>(in.start_time + uniform(1, 8));
      }
      break;
  }
  return in;
}

Status Tm1Workload::ReadSubscriber(Transaction* txn, const CcSet& cc,
                                   uint64_t s_id) {
  SubscriberRow sub;
  DORADB_RETURN_NOT_OK(ProbeRead(db_, txn, cc.read, schema_.subscriber,
                                 schema_.sub_pk, Schema::SubKey(s_id), &sub));
  if (config_.trace_subscriber_accesses) {
    AccessTrace::Record(schema_.subscriber, s_id);
  }
  return Status::OK();
}

Status Tm1Workload::ReadAccessInfo(Transaction* txn, const CcSet& cc,
                                   const Input& in) {
  AccessInfoRow ai;
  return ProbeRead(db_, txn, cc.read, schema_.access_info, schema_.ai_pk,
                   Schema::AiKey(in.s_id, in.ai_type), &ai);
}

Status Tm1Workload::ReadSpecialFacility(Transaction* txn, const CcSet& cc,
                                        const Input& in,
                                        SpecialFacilityRow* sf) {
  return ProbeRead(db_, txn, cc.read, schema_.special_facility,
                   schema_.sf_pk, Schema::SfKey(in.s_id, in.sf_type), sf);
}

Status Tm1Workload::FindDestination(Transaction* txn, const CcSet& cc,
                                    const Input& in) {
  std::vector<IndexEntry> cfs;
  DORADB_RETURN_NOT_OK(PrefixEntries(
      db_, schema_.cf_pk, Schema::CfPrefix(in.s_id, in.sf_type), &cfs));
  for (const auto& e : cfs) {
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn, schema_.call_forwarding, e.rid, &bytes, cc.read));
    const auto cf = FromBytes<CallForwardingRow>(bytes);
    if (cf.start_time <= in.start_time && in.end_time < cf.end_time) {
      return Status::OK();
    }
  }
  return Status::NotFound("no destination");
}

Status Tm1Workload::SetSubscriberBit(Transaction* txn, const CcSet& cc,
                                     const Input& in) {
  DORADB_RETURN_NOT_OK(ProbeUpdate<SubscriberRow>(
      db_, txn, cc.rmw, schema_.subscriber, schema_.sub_pk,
      Schema::SubKey(in.s_id), [&in](SubscriberRow& sub) {
        sub.bits = static_cast<uint16_t>((sub.bits & ~1u) | in.bit);
      }));
  if (config_.trace_subscriber_accesses) {
    AccessTrace::Record(schema_.subscriber, in.s_id);
  }
  return Status::OK();
}

Status Tm1Workload::SetFacilityData(Transaction* txn, const CcSet& cc,
                                    const Input& in) {
  return ProbeUpdate<SpecialFacilityRow>(
      db_, txn, cc.rmw, schema_.special_facility, schema_.sf_pk,
      Schema::SfKey(in.s_id, in.sf_type),
      [&in](SpecialFacilityRow& sf) { sf.data_a = in.data_a; });
}

Status Tm1Workload::SetLocation(Transaction* txn, const CcSet& cc,
                                const IndexEntry& ie, uint32_t vlr) {
  DORADB_RETURN_NOT_OK(
      UpdateRow<SubscriberRow>(db_, txn, cc.rmw, schema_.subscriber, ie.rid,
                               [vlr](SubscriberRow& sub) {
                                 sub.vlr_location = vlr;
                               }));
  if (config_.trace_subscriber_accesses) {
    AccessTrace::Record(schema_.subscriber, ie.aux);
  }
  return Status::OK();
}

Status Tm1Workload::InsertCallForwarding(Transaction* txn, const CcSet& cc,
                                         const Input& in) {
  CallForwardingRow cf{};
  cf.s_id = in.s_id;
  cf.sf_type = in.sf_type;
  cf.start_time = in.start_time;
  cf.end_time = in.end_time;
  std::memcpy(cf.numberx, "000000000000000", 16);
  Rid rid;
  DORADB_RETURN_NOT_OK(db_->Insert(txn, schema_.call_forwarding, AsBytes(cf),
                                   &rid, cc.insert));
  // Duplicate (s, sf, start) fails the transaction (user abort).
  return db_->IndexInsert(txn, schema_.cf_pk,
                          Schema::CfKey(in.s_id, in.sf_type, in.start_time),
                          IndexEntry{rid, in.s_id, false});
}

Status Tm1Workload::DeleteCallForwarding(Transaction* txn, const CcSet& cc,
                                         const Input& in) {
  const std::string key = Schema::CfKey(in.s_id, in.sf_type, in.start_time);
  IndexEntry ie;
  DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.cf_pk)->Probe(key, &ie));
  DORADB_RETURN_NOT_OK(
      db_->Delete(txn, schema_.call_forwarding, ie.rid, cc.insert));
  return db_->IndexRemove(txn, schema_.cf_pk, key, ie.rid, in.s_id);
}

Status Tm1Workload::ProbeSubNbr(const Input& in, IndexEntry* ie) {
  return db_->catalog()->Index(schema_.sub_nbr_idx)
      ->Probe(Schema::SubNbrKey(in.sub_nbr), ie);
}

}  // namespace tm1
}  // namespace doradb
