// TM1 — Nokia Network Database Benchmark (TATP): 4 tables, 7 transaction
// types, non-uniform subscriber access. "The transactions are extremely
// short, yet exercise all the codepaths in typical transaction processing"
// (paper §5.1). Routing field for every table: the subscriber id.

#ifndef DORADB_WORKLOADS_TM1_TM1_H_
#define DORADB_WORKLOADS_TM1_TM1_H_

#include <atomic>
#include <memory>

#include "workloads/common/workload.h"
#include "workloads/tm1/plan_advisor.h"

namespace doradb {
namespace tm1 {

// ---- rows (fixed-layout records, serialized byte-wise) ----

struct SubscriberRow {
  uint64_t s_id;
  char sub_nbr[16];  // 15-digit string, NUL padded
  uint16_t bits;     // bit_1..bit_10
  uint8_t hex[10];
  uint8_t bytes2[10];
  uint32_t msc_location;
  uint32_t vlr_location;
};

struct AccessInfoRow {
  uint64_t s_id;
  uint8_t ai_type;  // 1..4
  uint8_t data1;
  uint8_t data2;
  char data3[4];
  char data4[6];
};

struct SpecialFacilityRow {
  uint64_t s_id;
  uint8_t sf_type;  // 1..4
  uint8_t is_active;
  uint8_t error_cntrl;
  uint8_t data_a;
  char data_b[6];
};

struct CallForwardingRow {
  uint64_t s_id;
  uint8_t sf_type;
  uint8_t start_time;  // 0, 8, 16
  uint8_t end_time;    // start_time + 1..8
  char numberx[16];
};

// ---- schema handles ----

struct Schema {
  TableId subscriber, access_info, special_facility, call_forwarding;
  IndexId sub_pk, sub_nbr_idx, ai_pk, sf_pk, cf_pk;

  Status Create(Database* db);

  static std::string SubKey(uint64_t s_id);
  static std::string SubNbrKey(const char* sub_nbr);
  static std::string AiKey(uint64_t s_id, uint8_t ai_type);
  static std::string SfKey(uint64_t s_id, uint8_t sf_type);
  static std::string CfKey(uint64_t s_id, uint8_t sf_type,
                           uint8_t start_time);
  static std::string CfPrefix(uint64_t s_id, uint8_t sf_type);
};

// ---- workload ----

enum TxnType : uint32_t {
  kGetSubscriberData = 0,
  kGetNewDestination = 1,
  kGetAccessData = 2,
  kUpdateSubscriberData = 3,
  kUpdateLocation = 4,
  kInsertCallForwarding = 5,
  kDeleteCallForwarding = 6,
  kNumTxnTypes = 7,
};

// Execution plan for intra-parallel transactions with aborts (§A.4).
enum class PlanMode { kParallel, kSerial, kAuto };

class Tm1Workload : public Workload {
 public:
  struct Config {
    uint64_t subscribers = 20000;
    uint32_t executors_per_table = 1;
    bool trace_subscriber_accesses = false;  // Fig. 10-style tracing
    // > 0: subscriber picks are Zipf(theta)-distributed by rank, rank 1 =
    // s_id 1 — the hot set is the contiguous low end of the key space, so
    // one executor of a range-partitioned table soaks up the skew (the
    // workload shape the live-repartitioning path exists for). 0 =
    // classic TATP non-uniform pick. Bench knob: DORADB_SKEW_THETA.
    double skew_theta = 0.0;
  };

  Tm1Workload(Database* db, Config config) : db_(db), config_(config) {
    if (config_.skew_theta > 0.0) {
      zipf_ = std::make_unique<ZipfGenerator>(config_.subscribers,
                                              config_.skew_theta);
    }
  }

  std::string name() const override { return "TM1"; }
  Status Load() override;
  void SetupDora(dora::DoraEngine* engine) override;
  uint32_t NumTxnTypes() const override { return kNumTxnTypes; }
  const char* TxnName(uint32_t type) const override;
  uint32_t PickTxnType(Rng& rng) const override;
  Status RunBaseline(uint32_t type, Rng& rng) override;
  Status RunDora(dora::DoraEngine* engine, uint32_t type, Rng& rng) override;

  // §A.4 plan selection for UpdateSubscriberData (Fig. 11).
  void SetPlanMode(PlanMode mode) { plan_mode_ = mode; }
  PlanAdvisor& plan_advisor() { return advisor_; }

  const Schema& schema() const { return schema_; }
  const Config& config() const { return config_; }

  // Test hook: full referential/integrity check across tables and indexes.
  Status CheckConsistency();

 private:
  // One transaction's inputs; each type fills the fields it uses. Drawn by
  // MakeInput before either engine's body runs, so that both engines
  // consume the same random stream.
  struct Input {
    uint64_t s_id;
    uint8_t ai_type;     // GetAccessData
    uint8_t sf_type;     // SpecialFacility / CallForwarding types
    uint8_t start_time;  // CallForwarding types
    uint8_t end_time;    // GetNewDestination, InsertCallForwarding
    uint8_t bit;         // UpdateSubscriberData: new bit_1
    uint8_t data_a;      // UpdateSubscriberData: new SpecialFacility.data_a
    uint32_t vlr;        // UpdateLocation: new vlr_location
    char sub_nbr[16];    // UpdateLocation: the subscriber's number
  };
  Input MakeInput(uint32_t type, Rng& rng) const;

  // Row-level steps, shared by both engines' bodies (workload.h).
  Status ReadSubscriber(Transaction* txn, const CcSet& cc, uint64_t s_id);
  Status ReadAccessInfo(Transaction* txn, const CcSet& cc, const Input& in);
  Status ReadSpecialFacility(Transaction* txn, const CcSet& cc,
                             const Input& in, SpecialFacilityRow* sf);
  // NotFound unless one of (s_id, sf_type)'s call forwardings covers the
  // input's [start_time, end_time].
  Status FindDestination(Transaction* txn, const CcSet& cc, const Input& in);
  Status SetSubscriberBit(Transaction* txn, const CcSet& cc, const Input& in);
  Status SetFacilityData(Transaction* txn, const CcSet& cc, const Input& in);
  // `ie` is the sub_nbr index entry: the row's rid, and its s_id in aux.
  Status SetLocation(Transaction* txn, const CcSet& cc, const IndexEntry& ie,
                     uint32_t vlr);
  Status InsertCallForwarding(Transaction* txn, const CcSet& cc,
                              const Input& in);
  Status DeleteCallForwarding(Transaction* txn, const CcSet& cc,
                              const Input& in);
  // The secondary sub_nbr index probe (§4.2.2): Baseline runs it inside
  // the transaction, DORA on the dispatcher.
  Status ProbeSubNbr(const Input& in, IndexEntry* ie);

  // DORA flow graphs.
  Status DoraGetNewDestination(dora::DoraEngine* e, const Input& in);
  Status DoraUpdateSubscriberData(dora::DoraEngine* e, const Input& in);
  Status DoraUpdateLocation(dora::DoraEngine* e, const Input& in);
  Status DoraInsertCallForwarding(dora::DoraEngine* e, const Input& in);

  uint64_t RandomSid(Rng& rng) const {
    // ZipfGenerator::Next reads only ctor-computed members, so one shared
    // generator serves every client thread's private Rng.
    if (zipf_ != nullptr) return zipf_->Next(rng);
    return rng.TatpSubscriberId(config_.subscribers);
  }

  Database* const db_;
  const Config config_;
  std::unique_ptr<ZipfGenerator> zipf_;
  Schema schema_;
  PlanMode plan_mode_ = PlanMode::kParallel;
  PlanAdvisor advisor_;
};

}  // namespace tm1
}  // namespace doradb

#endif  // DORADB_WORKLOADS_TM1_TM1_H_
