// LogStorage: the durability medium under a WAL stable region.
//
// Each WAL partition (plog::LogPartition) keeps a volatile append buffer
// and a "stable" stream of whole records. This interface is the stable
// stream's medium: an in-memory byte vector (the seed behaviour —
// Database::Options::data_dir empty) or a directory of segment files
// (src/log/segment_file.h) whose appends survive process death.
//
// Contract shared by both implementations:
//  * AppendBatch bytes are whole records in LSN order; a batch never needs
//    to be split across segments, so records never straddle a segment
//    boundary.
//  * Sync(w) makes every appended byte durable and persists `w` as the
//    stream's durability claim ("every record this stream's owner hosts
//    with LSN <= w is here"). Callers advance their in-memory watermark —
//    the value commit acknowledgements gate on — only after Sync returns,
//    which is what makes an acked commit durable across process lifetimes.
//  * Decode tolerates a torn tail (partial last write) and a corrupted
//    middle (per-record CRC), reporting the exact medium location of the
//    first bad record through its Status.
//  * ReclaimBelow(point) may keep records below the point: the file
//    implementation drops whole sealed segments only. Survivors below a
//    checkpoint horizon are redo-skipped by recovery, never harmful.
//
// Thread safety: none, with one exception. The owning partition serializes
// every call under its stable-region mutex, except RemoveDetached, which
// it calls after releasing the mutex (see ReclaimBelow).

#ifndef DORADB_LOG_LOG_STORAGE_H_
#define DORADB_LOG_LOG_STORAGE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "log/log_record.h"
#include "util/status.h"

namespace doradb {

class LogStorage {
 public:
  virtual ~LogStorage() = default;

  // Append `n` bytes of whole records whose highest LSN is `last_lsn`
  // (pass kInvalidLsn when unknown — e.g. a deliberately torn test write —
  // which pins the receiving segment against unlinking).
  // Returns non-OK when the medium failed persistently (see poisoned()):
  // the bytes must be treated as not durable and never acked.
  virtual Status AppendBatch(const uint8_t* data, size_t n, Lsn last_lsn) = 0;

  // Durability point: fsync appended bytes and persist `watermark` as the
  // stream's claim. No-op for memory. A non-OK return means the claim did
  // NOT become durable; per the fsyncgate rule a failed sync poisons the
  // stream permanently — the owner must never advance its in-memory
  // watermark past this point, however later calls fare.
  virtual Status Sync(Lsn watermark) = 0;

  // True once a persistent media failure latched the stream read-only.
  // Poison is one-way for the stream's lifetime: a failed fsync may leave
  // the kernel's dirty pages marked clean, so a retry that "succeeds"
  // proves nothing about what reached the platter.
  virtual bool poisoned() const { return false; }
  // Latch the stream poisoned with `s` (one-way); returns the parked
  // error. For failures the owner observes outside the mutex
  // (RemoveDetached); the owner records them under the mutex.
  virtual Status Poison(Status s) { return s; }

  // True when Sync actually pays for durability (file-backed media): the
  // owner may then rate-limit watermark-only syncs for idle streams. The
  // memory medium's Sync is free, so there is nothing to skip.
  virtual bool durable() const { return false; }

  // The claim persisted by the last Sync of a previous lifetime (0 when
  // the medium is fresh or volatile).
  virtual Lsn recovered_watermark() const { return 0; }
  // Cold-start scan result, so callers need not re-Decode the stream:
  // the last decodable record's LSN.
  virtual Lsn recovered_last_lsn() const { return 0; }
  // Highest page id any recovered record references (kInvalidPageId when
  // none): a reopened Database raises the page allocator past it BEFORE
  // application code can allocate, or a pre-recovery allocation (e.g. an
  // eager B+Tree root) would reuse a logged page id and redo would then
  // clobber the new page.
  virtual PageId recovered_max_page_id() const { return kInvalidPageId; }

  // Decode the whole stream in order; see DecodeRecordStream for `tail`.
  virtual std::vector<LogRecord> Decode(Status* tail) const = 0;

  // Checkpoint truncation runs in two phases, so that no file-system
  // metadata work happens under the owner's mutex, which commit
  // acknowledgements wait on:
  //  1. ReclaimBelow (under the mutex) drops records with lsn < point
  //     from the stream and returns what it detached;
  //  2. RemoveDetached (after the mutex is released) deletes the detached
  //     files and makes the deletion durable. It reads no mutable state
  //     of the stream, so appends and flushes may run alongside it. A
  //     non-OK result must be recorded through Poison under the mutex.
  struct Reclaimed {
    uint64_t bytes = 0;               // record bytes dropped
    std::vector<std::string> files;   // detached files, for RemoveDetached
  };
  virtual Reclaimed ReclaimBelow(Lsn point) = 0;
  virtual Status RemoveDetached(const std::vector<std::string>& files) const {
    (void)files;
    return Status::OK();
  }

  // Drop every record with lsn > horizon, plus any torn tail bytes.
  virtual void TruncateTo(Lsn horizon) = 0;

  virtual size_t size() const = 0;
  virtual size_t segment_count() const { return 1; }

  // Crash/corruption simulation hooks (tests).
  virtual void TearTail(size_t bytes) = 0;
  virtual void FlipByte(size_t index) = 0;
};

// The seed medium: one in-memory byte vector. Dies with the process.
class MemoryLogStorage final : public LogStorage {
 public:
  Status AppendBatch(const uint8_t* data, size_t n, Lsn last_lsn) override {
    (void)last_lsn;
    stable_.insert(stable_.end(), data, data + n);
    return Status::OK();
  }

  Status Sync(Lsn watermark) override {
    (void)watermark;
    return Status::OK();
  }

  std::vector<LogRecord> Decode(Status* tail) const override {
    std::vector<LogRecord> out;
    DecodeRecordStream(stable_, "<memory>", &out, tail);
    return out;
  }

  Reclaimed ReclaimBelow(Lsn point) override {
    return Reclaimed{ReclaimLogPrefixBelow(&stable_, point), {}};
  }

  void TruncateTo(Lsn horizon) override {
    size_t keep = 0, off = 0;
    LogRecord rec;
    // The stream is LSN-ordered, so the survivors are a byte prefix.
    while (LogRecord::DeserializeFrom(stable_, &off, &rec)) {
      if (rec.lsn > horizon) break;
      keep = off;
    }
    stable_.resize(keep);
  }

  size_t size() const override { return stable_.size(); }

  void TearTail(size_t bytes) override {
    stable_.resize(stable_.size() - std::min(bytes, stable_.size()));
  }

  void FlipByte(size_t index) override {
    if (index < stable_.size()) stable_[index] ^= 0xFF;
  }

 private:
  std::vector<uint8_t> stable_;
};

}  // namespace doradb

#endif  // DORADB_LOG_LOG_STORAGE_H_
