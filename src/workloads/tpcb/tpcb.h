// TPC-B: the classic bank debit/credit benchmark [Anon et al., Datamation
// 1985]. One transaction type: update an account, its teller, its branch,
// and append a history record. Write-heavy — the workload where the paper
// observes the log manager becoming the next bottleneck once DORA removes
// lock contention (§5.4).
//
// Routing fields: Account by a_id, Teller by t_id, Branch by b_id, History
// by b_id.

#ifndef DORADB_WORKLOADS_TPCB_TPCB_H_
#define DORADB_WORKLOADS_TPCB_TPCB_H_

#include <memory>

#include "workloads/common/workload.h"

namespace doradb {
namespace tpcb {

struct BranchRow {
  uint64_t b_id;
  int64_t balance;
  char filler[40];
};

struct TellerRow {
  uint64_t t_id;
  uint64_t b_id;
  int64_t balance;
  char filler[40];
};

struct AccountRow {
  uint64_t a_id;
  uint64_t b_id;
  int64_t balance;
  char filler[40];
};

struct HistoryRow {
  uint64_t a_id;
  uint64_t t_id;
  uint64_t b_id;
  int64_t delta;
  uint64_t timestamp;
};

struct Schema {
  TableId branch, teller, account, history;
  IndexId branch_pk, teller_pk, account_pk;

  // Fresh database: create tables + indexes (with IndexKeySpecs, so a
  // durable catalog can rebuild the indexes at restart by itself).
  Status Create(Database* db);

  // Reopened database: bind ids from the recovered catalog by name — no
  // DDL. Fails with kNotFound if the directory's catalog is not TPC-B's.
  Status Attach(Database* db);

  static std::string Key(uint64_t id) {
    KeyBuilder kb;
    kb.Add64(id);
    return kb.Str();
  }
};

class TpcbWorkload : public Workload {
 public:
  struct Config {
    uint64_t branches = 8;
    uint64_t tellers_per_branch = 10;
    uint64_t accounts_per_branch = 10000;
    uint32_t account_executors = 2;
    uint32_t other_executors = 1;
    // > 0: account picks are Zipf(theta)-distributed across the whole
    // account space (rank 1 = a_id 1, hot set contiguous at the low end),
    // replacing the uniform 85/15 local/remote pick; teller/branch stay
    // uniform. Bench knob: DORADB_SKEW_THETA.
    double skew_theta = 0.0;
  };

  TpcbWorkload(Database* db, Config config) : db_(db), config_(config) {
    if (config_.skew_theta > 0.0) {
      zipf_ = std::make_unique<ZipfGenerator>(
          config_.branches * config_.accounts_per_branch,
          config_.skew_theta);
    }
  }

  std::string name() const override { return "TPC-B"; }
  Status Load() override;
  // The reopen path: bind schema ids from the catalog the Database
  // recovered out of <data_dir>/catalog.db. No DDL, no loading — the
  // data directory describes itself.
  Status Attach() { return schema_.Attach(db_); }
  void SetupDora(dora::DoraEngine* engine) override;
  uint32_t NumTxnTypes() const override { return 1; }
  const char* TxnName(uint32_t) const override { return "AccountUpdate"; }
  uint32_t PickTxnType(Rng&) const override { return 0; }
  Status RunBaseline(uint32_t type, Rng& rng) override;
  Status RunDora(dora::DoraEngine* engine, uint32_t type, Rng& rng) override;

  const Schema& schema() const { return schema_; }
  const Config& config() const { return config_; }

  // Invariant: sum(branch) == sum(teller) == sum(account) == sum(history
  // deltas).
  Status CheckConsistency();

 private:
  struct Input {
    uint64_t b_id, t_id, a_id;
    int64_t delta;
  };
  Input MakeInput(Rng& rng) const;

  // Row-level steps, shared by both engines' bodies (workload.h).
  Status UpdateAccount(Transaction* txn, const CcSet& cc, const Input& in);
  Status UpdateTeller(Transaction* txn, const CcSet& cc, const Input& in);
  Status UpdateBranch(Transaction* txn, const CcSet& cc, const Input& in);
  Status InsertHistory(Transaction* txn, const CcSet& cc, const Input& in);

  Database* const db_;
  const Config config_;
  Schema schema_;
  std::unique_ptr<ZipfGenerator> zipf_;  // shared across client Rngs
};

}  // namespace tpcb
}  // namespace doradb

#endif  // DORADB_WORKLOADS_TPCB_TPCB_H_
