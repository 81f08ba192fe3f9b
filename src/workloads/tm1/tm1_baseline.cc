// Conventional (thread-to-transaction) implementations of the seven TM1
// transactions: every record access goes through the centralized
// hierarchical lock manager, exactly like the paper's Baseline system.

#include "workloads/common/driver.h"
#include "workloads/tm1/tm1.h"

namespace doradb {
namespace tm1 {

namespace {
constexpr AccessOptions kCc = AccessOptions{true, false};
constexpr AccessOptions kForUpdate = AccessOptions{true, false, true};
}

Status Tm1Workload::FinishBaseline(Transaction* txn, Status s) {
  if (s.ok()) return db_->Commit(txn);
  (void)db_->Abort(txn);
  return s;
}

Status Tm1Workload::BaseGetSubscriberData(Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.sub_pk)
                             ->Probe(Schema::SubKey(s_id), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.subscriber, ie.rid, &bytes, kCc));
    if (config_.trace_subscriber_accesses) {
      AccessTrace::Record(schema_.subscriber, s_id);
    }
    return Status::OK();
  }();
  return FinishBaseline(txn.get(), s);
}

Status Tm1Workload::BaseGetNewDestination(Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t sf_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  const uint8_t start_time =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{0}, uint64_t{2}) * 8);
  const uint8_t end_time =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{24}));
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.sf_pk)
                             ->Probe(Schema::SfKey(s_id, sf_type), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(db_->Read(txn.get(), schema_.special_facility,
                                   ie.rid, &bytes, kCc));
    const auto sf = FromBytes<SpecialFacilityRow>(bytes);
    if (sf.is_active == 0) return Status::NotFound("sf inactive");
    // Range over this (s_id, sf_type)'s call forwardings.
    std::vector<IndexEntry> cfs;
    DORADB_RETURN_NOT_OK(
        db_->catalog()
            ->Index(schema_.cf_pk)
            ->ScanPrefix(Schema::CfPrefix(s_id, sf_type),
                         [&](std::string_view, const IndexEntry& e) {
                           cfs.push_back(e);
                           return true;
                         }));
    for (const auto& e : cfs) {
      std::string cf_bytes;
      DORADB_RETURN_NOT_OK(db_->Read(txn.get(), schema_.call_forwarding,
                                     e.rid, &cf_bytes, kCc));
      const auto cf = FromBytes<CallForwardingRow>(cf_bytes);
      if (cf.start_time <= start_time && end_time < cf.end_time) {
        return Status::OK();  // destination found
      }
    }
    return Status::NotFound("no destination");
  }();
  return FinishBaseline(txn.get(), s);
}

Status Tm1Workload::BaseGetAccessData(Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t ai_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.ai_pk)
                             ->Probe(Schema::AiKey(s_id, ai_type), &ie));
    std::string bytes;
    return db_->Read(txn.get(), schema_.access_info, ie.rid, &bytes, kCc);
  }();
  return FinishBaseline(txn.get(), s);
}

Status Tm1Workload::BaseUpdateSubscriberData(Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t sf_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  const uint8_t bit = rng.Percent(50) ? 1 : 0;
  const uint8_t data_a =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{0}, uint64_t{255}));
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    // Update Subscriber.bit_1 — always succeeds.
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.sub_pk)
                             ->Probe(Schema::SubKey(s_id), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.subscriber, ie.rid, &bytes, kForUpdate));
    auto sub = FromBytes<SubscriberRow>(bytes);
    sub.bits = static_cast<uint16_t>((sub.bits & ~1u) | bit);
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.subscriber, ie.rid, AsBytes(sub), kCc));
    if (config_.trace_subscriber_accesses) {
      AccessTrace::Record(schema_.subscriber, s_id);
    }
    // Update SpecialFacility.data_a — fails ~37.5% (wrong input, §A.4).
    IndexEntry sfe;
    DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.sf_pk)
                             ->Probe(Schema::SfKey(s_id, sf_type), &sfe));
    std::string sf_bytes;
    DORADB_RETURN_NOT_OK(db_->Read(txn.get(), schema_.special_facility,
                                   sfe.rid, &sf_bytes, kForUpdate));
    auto sf = FromBytes<SpecialFacilityRow>(sf_bytes);
    sf.data_a = data_a;
    return db_->Update(txn.get(), schema_.special_facility, sfe.rid,
                       AsBytes(sf), kCc);
  }();
  return FinishBaseline(txn.get(), s);
}

Status Tm1Workload::BaseUpdateLocation(Rng& rng) {
  char sub_nbr[16];
  {
    uint64_t v = RandomSid(rng);
    for (int i = 14; i >= 0; --i) {
      sub_nbr[i] = static_cast<char>('0' + v % 10);
      v /= 10;
    }
    sub_nbr[15] = '\0';
  }
  const uint32_t new_vlr = static_cast<uint32_t>(rng.Next());
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.sub_nbr_idx)
                             ->Probe(Schema::SubNbrKey(sub_nbr), &ie));
    std::string bytes;
    DORADB_RETURN_NOT_OK(
        db_->Read(txn.get(), schema_.subscriber, ie.rid, &bytes, kForUpdate));
    auto sub = FromBytes<SubscriberRow>(bytes);
    sub.vlr_location = new_vlr;
    DORADB_RETURN_NOT_OK(
        db_->Update(txn.get(), schema_.subscriber, ie.rid, AsBytes(sub), kCc));
    if (config_.trace_subscriber_accesses) {
      AccessTrace::Record(schema_.subscriber, sub.s_id);
    }
    return Status::OK();
  }();
  return FinishBaseline(txn.get(), s);
}

Status Tm1Workload::BaseInsertCallForwarding(Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t sf_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  const uint8_t start_time =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{0}, uint64_t{2}) * 8);
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    // The special facility must exist.
    IndexEntry sfe;
    DORADB_RETURN_NOT_OK(db_->catalog()->Index(schema_.sf_pk)
                             ->Probe(Schema::SfKey(s_id, sf_type), &sfe));
    std::string sf_bytes;
    DORADB_RETURN_NOT_OK(db_->Read(txn.get(), schema_.special_facility,
                                   sfe.rid, &sf_bytes, kCc));
    CallForwardingRow cf{};
    cf.s_id = s_id;
    cf.sf_type = sf_type;
    cf.start_time = start_time;
    cf.end_time = static_cast<uint8_t>(
        start_time + rng.UniformInt(uint64_t{1}, uint64_t{8}));
    std::memcpy(cf.numberx, "000000000000000", 16);
    Rid rid;
    DORADB_RETURN_NOT_OK(db_->Insert(txn.get(), schema_.call_forwarding,
                                     AsBytes(cf), &rid, kCc));
    // Duplicate (s, sf, start) fails the transaction (user abort).
    return db_->IndexInsert(txn.get(), schema_.cf_pk,
                            Schema::CfKey(s_id, sf_type, start_time),
                            IndexEntry{rid, s_id, false});
  }();
  return FinishBaseline(txn.get(), s);
}

Status Tm1Workload::BaseDeleteCallForwarding(Rng& rng) {
  const uint64_t s_id = RandomSid(rng);
  const uint8_t sf_type =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{4}));
  const uint8_t start_time =
      static_cast<uint8_t>(rng.UniformInt(uint64_t{0}, uint64_t{2}) * 8);
  auto txn = db_->Begin();
  Status s = [&]() -> Status {
    ScopedTimeClass work(TimeClass::kWork);
    IndexEntry ie;
    DORADB_RETURN_NOT_OK(
        db_->catalog()
            ->Index(schema_.cf_pk)
            ->Probe(Schema::CfKey(s_id, sf_type, start_time), &ie));
    DORADB_RETURN_NOT_OK(
        db_->Delete(txn.get(), schema_.call_forwarding, ie.rid, kCc));
    return db_->IndexRemove(txn.get(), schema_.cf_pk,
                            Schema::CfKey(s_id, sf_type, start_time), ie.rid,
                            s_id);
  }();
  return FinishBaseline(txn.get(), s);
}

}  // namespace tm1
}  // namespace doradb
