// SegmentFileStorage: a WAL stable region as a directory of segment files.
//
// Layout (one directory per log stream — "plog-<i>" per partition, under
// Database data_dir):
//
//   seg-00000001.log
//   seg-00000002.log      <- sealed (full): never written again
//   seg-00000003.log      <- active: appends + watermark header updates
//
// Each file starts with a 32-byte header
//
//   [magic u64 'DORASEG1'][watermark u64][covered_len u64][crc u32][pad]
//
// followed by whole serialized LogRecords. The watermark is the stream's
// durability claim (see log_storage.h); it is rewritten in place on every
// Sync of the active segment, so one fdatasync per group-commit flush
// covers both the appended records and the claim. `covered_len` records
// the segment's data length at claim time: the open scan trusts a
// header's watermark only when that many bytes decode cleanly, so a real
// crash that persists the header block but tears the data blocks of the
// same fdatasync cannot overstate durability. A torn or stale header
// falls back to the decoded-records claim — always safe, conservative.
//
// Seal/unlink protocol: when the active segment reaches the target size,
// it is fsynced, closed, and a new active segment is created (the new
// file and the directory entry are fsynced before any append). Checkpoint
// truncation (ReclaimBelow) detaches sealed segments whose max record LSN
// sits below the redo horizon — whole files, no rewriting; if even the
// active segment is wholly below the horizon it is sealed and detached
// too, leaving a fresh empty active segment. RemoveDetached then unlinks
// the detached files and fsyncs the directory, outside the owner's mutex.
//
// Open scan (cold start): segment files are discovered by name, decoded
// oldest-first, and the stream is physically truncated at the first
// undecodable record (torn tail or CRC failure) so later appends resume at
// a record boundary — exactly the truncation an in-process crash performs
// on the memory medium.

#ifndef DORADB_LOG_SEGMENT_FILE_H_
#define DORADB_LOG_SEGMENT_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "log/log_storage.h"
#include "util/sync_stats.h"

namespace doradb {

class SegmentFileStorage final : public LogStorage {
 public:
  struct Options {
    // Roll to a new segment once the active one's record bytes reach this.
    size_t target_segment_bytes = 1 << 20;
  };

  // Creates `dir` (and parents) if needed and scans it for segments.
  // `stream_id` labels this stream in DurabilityStats (partition index).
  SegmentFileStorage(std::string dir, uint32_t stream_id, Options options);
  ~SegmentFileStorage() override;
  SegmentFileStorage(const SegmentFileStorage&) = delete;
  SegmentFileStorage& operator=(const SegmentFileStorage&) = delete;

  Status AppendBatch(const uint8_t* data, size_t n, Lsn last_lsn) override;
  Status Sync(Lsn watermark) override;
  bool durable() const override { return true; }
  bool poisoned() const override { return poisoned_; }
  // Latch the stream failed (one-way); records + degrades engine health.
  Status Poison(Status s) override;
  Lsn recovered_watermark() const override { return recovered_watermark_; }
  Lsn recovered_last_lsn() const override { return recovered_last_lsn_; }
  PageId recovered_max_page_id() const override {
    return recovered_max_page_id_;
  }
  std::vector<LogRecord> Decode(Status* tail) const override;
  Reclaimed ReclaimBelow(Lsn point) override;
  Status RemoveDetached(const std::vector<std::string>& files) const override;
  void TruncateTo(Lsn horizon) override;
  size_t size() const override;
  size_t segment_count() const override { return segments_.size(); }
  void TearTail(size_t bytes) override;
  void FlipByte(size_t index) override;

  const std::string& dir() const { return dir_; }

 private:
  struct Segment {
    uint64_t seq = 0;
    size_t data_bytes = 0;  // record bytes (header excluded)
    // Highest LSN a record in this segment may carry (~0 when a batch of
    // unknown LSN landed here — pins the segment against unlinking).
    Lsn max_lsn = 0;
  };

  std::string PathOf(uint64_t seq) const;
  // Scan the directory, adopt decodable prefixes, truncate the rest.
  void OpenDir();
  // Create segment `seq` with a header carrying `watermark`; becomes the
  // active segment (fd open, file + directory entry fsynced).
  Status CreateActive(uint64_t seq, Lsn watermark);
  // fsync + close the active segment.
  Status SealActive();
  // fsync the directory, so entry creations and removals survive a crash.
  // Touches no mutable state (RemoveDetached runs it unlocked); the
  // callers under the owner's mutex use SyncDirectory, which poisons.
  Status FsyncDirectory() const;
  Status SyncDirectory();
  // Read one segment's record bytes (header stripped).
  bool ReadSegment(const Segment& seg, std::vector<uint8_t>* out) const;
  Status WriteHeaderWatermark(int fd, Lsn watermark, uint64_t covered_len);

  const std::string dir_;
  const DurabilityStats::Stream durability_;
  const Options options_;

  std::vector<Segment> segments_;  // oldest..newest; back() is active
  int active_fd_ = -1;
  bool dirty_ = false;  // active segment has un-fsynced appends
  bool poisoned_ = false;  // persistent media failure; one-way latch
  Status io_status_;       // the failure that poisoned the stream
  Lsn durable_watermark_ = 0;  // last claim written to the active header
  Lsn recovered_watermark_ = 0;
  Lsn recovered_last_lsn_ = 0;  // last decodable LSN found by the scan
  PageId recovered_max_page_id_ = kInvalidPageId;
  uint64_t next_seq_ = 1;
};

}  // namespace doradb

#endif  // DORADB_LOG_SEGMENT_FILE_H_
