// Workload interface: a benchmark = schema + loader + transaction mix, with
// two execution paths per transaction — conventional (Baseline, thread-to-
// transaction) and DORA (thread-to-data flow graphs) — exactly the two
// systems the paper compares.
//
// A transaction's record work is written once. Each workload's row-level
// steps (probe + read or read-modify-write of one row, one insert with its
// index entries, one delete with its index entry) are members that take
// the transaction and a CcSet, and both engines' bodies call them. As in
// the paper (§4.3), the two systems' record work differs only in those
// concurrency-control flags. The decomposition is per engine: the
// Baseline body's statement order, which is also its predefined lock
// order (src/lock/README.md), and DORA's phases, action grouping and
// dispatcher-side secondary probes (§4.2.2).

#ifndef DORADB_WORKLOADS_COMMON_WORKLOAD_H_
#define DORADB_WORKLOADS_COMMON_WORKLOAD_H_

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "util/rng.h"
#include "util/sync_stats.h"

namespace doradb {

// POD record <-> byte-string helpers (records are standard-layout structs).
template <typename T>
std::string_view AsBytes(const T& rec) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::string_view(reinterpret_cast<const char*>(&rec), sizeof(T));
}

template <typename T>
T FromBytes(std::string_view bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  T out;
  std::memcpy(&out, bytes.data(), sizeof(T));
  return out;
}

// Concurrency-control flags of one engine's record steps.
struct CcSet {
  AccessOptions read;    // probe-only reads
  AccessOptions rmw;     // read-modify-write: both the read and the update
  AccessOptions insert;  // inserts and deletes
};

// Baseline: every access goes through the centralized hierarchical lock
// manager; read-modify-write reads lock X up front (for_update).
inline constexpr CcSet kBaselineCc{AccessOptions{true, false},
                                   AccessOptions{true, false, true},
                                   AccessOptions{true, false}};
// DORA: the owning executor's local locks isolate probes and updates;
// inserts and deletes take only the centralized RID lock (§4.2.1).
inline constexpr CcSet kDoraCc{AccessOptions{false, false},
                               AccessOptions{false, false},
                               AccessOptions{false, true}};

// Probe `index` for `key` and read the row it names.
template <typename Row>
Status ProbeRead(Database* db, Transaction* txn, const AccessOptions& opts,
                 TableId table, IndexId index, std::string_view key,
                 Row* row) {
  IndexEntry ie;
  DORADB_RETURN_NOT_OK(db->catalog()->Index(index)->Probe(key, &ie));
  std::string bytes;
  DORADB_RETURN_NOT_OK(db->Read(txn, table, ie.rid, &bytes, opts));
  *row = FromBytes<Row>(bytes);
  return Status::OK();
}

// Read-modify-write of the row at `rid`: `modify(Row&)` runs between the
// read and the update, which both use `opts`.
template <typename Row, typename Modify>
Status UpdateRow(Database* db, Transaction* txn, const AccessOptions& opts,
                 TableId table, const Rid& rid, Modify&& modify) {
  std::string bytes;
  DORADB_RETURN_NOT_OK(db->Read(txn, table, rid, &bytes, opts));
  auto row = FromBytes<Row>(bytes);
  modify(row);
  return db->Update(txn, table, rid, AsBytes(row), opts);
}

// Probe `index` for `key`, then UpdateRow the row it names.
template <typename Row, typename Modify>
Status ProbeUpdate(Database* db, Transaction* txn, const AccessOptions& opts,
                   TableId table, IndexId index, std::string_view key,
                   Modify&& modify) {
  IndexEntry ie;
  DORADB_RETURN_NOT_OK(db->catalog()->Index(index)->Probe(key, &ie));
  return UpdateRow<Row>(db, txn, opts, table, ie.rid,
                        std::forward<Modify>(modify));
}

// The entries under `prefix`, collected before any of their rows is read.
inline Status PrefixEntries(Database* db, IndexId index,
                            std::string_view prefix,
                            std::vector<IndexEntry>* out) {
  return db->catalog()->Index(index)->ScanPrefix(
      prefix, [out](std::string_view, const IndexEntry& e) {
        out->push_back(e);
        return true;
      });
}

// Run `body(txn)` as one Baseline transaction: commit on OK; on failure
// abort (rolling back) and return the body's status.
template <typename Body>
Status RunInTxn(Database* db, Body&& body) {
  auto txn = db->Begin();
  Status s;
  {
    ScopedTimeClass work(TimeClass::kWork);
    s = body(txn.get());
  }
  if (s.ok()) return db->Commit(txn.get());
  (void)db->Abort(txn.get());
  return s;
}

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  // Populate tables and indexes (called once, outside any benchmark).
  virtual Status Load() = 0;

  // Register tables + routing rules with a DORA engine (before Start()).
  virtual void SetupDora(dora::DoraEngine* engine) = 0;

  virtual uint32_t NumTxnTypes() const = 0;
  virtual const char* TxnName(uint32_t type) const = 0;

  // Draw a transaction type according to the benchmark's standard mix.
  virtual uint32_t PickTxnType(Rng& rng) const = 0;

  // Execute one transaction conventionally (begin/ops/commit inside).
  // Status semantics: OK = committed; kAborted/kNotFound-driven aborts with
  // code kAborted = user abort (counted as executed, per the benchmarks);
  // kDeadlock / kTimeout = system abort.
  virtual Status RunBaseline(uint32_t type, Rng& rng) = 0;

  // Execute one transaction through DORA flow graphs (closed loop).
  virtual Status RunDora(dora::DoraEngine* engine, uint32_t type,
                         Rng& rng) = 0;
};

}  // namespace doradb

#endif  // DORADB_WORKLOADS_COMMON_WORKLOAD_H_
