// ARIES-style physiological log records.
//
// Heap operations are logged with full before/after images chained per
// transaction through prev_lsn; compensation records (CLRs) carry undo_next.
// Index operations are not logged: indexes are treated as derived state and
// rebuilt from the heaps at restart (see DESIGN.md, "Fidelity notes").

#ifndef DORADB_LOG_LOG_RECORD_H_
#define DORADB_LOG_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace doradb {

enum class LogType : uint8_t {
  kBegin = 1,   // no longer written; decoded and accepted from older logs
  kInsert = 2,
  kUpdate = 3,
  kDelete = 4,
  kCommit = 5,
  kAbort = 6,   // abort decided; CLRs follow
  kEnd = 7,     // transaction fully finished (after commit or rollback)
  kClr = 8,     // compensation: redo-only
  kCheckpoint = 9,      // legacy global fuzzy checkpoint (whole pool flushed)
  kCheckpointPart = 10,  // partition-local fuzzy checkpoint (src/ckpt/)
};

// ckpt_partition value for a checkpoint record covering every partition
// (the global Checkpoint() path).
constexpr uint32_t kGlobalCheckpointPartition = 0xFFFFFFFFu;

struct LogRecord {
  LogType type = LogType::kBegin;
  TxnId txn = kInvalidTxnId;
  Lsn lsn = kInvalidLsn;        // assigned by the log manager
  Lsn prev_lsn = kInvalidLsn;   // previous record of the same transaction
  TableId table = 0;
  Rid rid{};
  std::string before;           // old image (kUpdate, kDelete)
  std::string after;            // new image (kInsert, kUpdate, kClr redo)
  Lsn undo_next = kInvalidLsn;  // kClr: next record to undo
  // kClr: the operation this CLR compensates, to make its redo applicable.
  LogType clr_action = LogType::kBegin;
  // kCheckpoint / kCheckpointPart: transactions active at checkpoint time.
  std::vector<TxnId> active_txns;
  // kCheckpointPart: which log partition this checkpoint belongs to
  // (kGlobalCheckpointPartition for the manual global round), and
  // the redo horizon it vouches for — every record with lsn < redo_horizon
  // was reflected in the disk image when the checkpoint was taken, so
  // recovery may start redo there and the log may reclaim below it.
  uint32_t ckpt_partition = 0;
  Lsn redo_horizon = kInvalidLsn;

  // Wire encoding (appended to `out`); returns encoded size. Every record
  // carries a CRC32 of its payload so recovery detects a corrupted middle,
  // not just a structurally torn tail.
  size_t SerializeTo(std::vector<uint8_t>* out) const;
  // Decodes one record at `data + offset`; advances offset. False if the
  // buffer is exhausted, the record is torn (partial tail write), or the
  // checksum does not match (corruption).
  static bool DeserializeFrom(const std::vector<uint8_t>& data,
                              size_t* offset, LogRecord* out);

  std::string ToString() const;
};

// Decode a whole serialized record stream, appending records to *out in
// stream order. Stops at the first undecodable record and returns its byte
// offset (== data.size() when the stream is clean). If `tail` is non-null
// it is left OK for a clean stream and otherwise set to a Corruption
// status naming `medium` (segment file path or "<memory>"), the offset,
// and whether the record was torn (ran past the end of the medium) or
// failed its checksum — so a restart error points at the exact bad spot.
size_t DecodeRecordStream(const std::vector<uint8_t>& data,
                          const std::string& medium,
                          std::vector<LogRecord>* out, Status* tail);

// Drop the byte prefix of an LSN-ordered serialized record stream holding
// every whole record with lsn < point (survivors are a byte suffix).
// Returns the number of bytes removed. The in-memory medium's checkpoint
// truncation; callers hold their own stable-region lock.
size_t ReclaimLogPrefixBelow(std::vector<uint8_t>* stable, Lsn point);

}  // namespace doradb

#endif  // DORADB_LOG_LOG_RECORD_H_
