#include "log/segment_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "obs/health.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/sync_stats.h"

namespace doradb {

namespace {

constexpr uint64_t kSegmentMagic = 0x3147455341524F44ull;  // "DORASEG1"
constexpr size_t kHeaderBytes = 32;
// A batch whose max LSN is unknown pins its segment against unlinking.
constexpr Lsn kPinnedLsn = ~Lsn{0};

// Tier-(a) of the I/O error policy: transient write errors get a bounded
// number of retries with exponential backoff before the stream is declared
// failed. EINTR is retried unconditionally (it is not a media error).
// Sync failures are tier-(b): NEVER retried — see Sync().
constexpr int kIoRetries = 3;
constexpr uint64_t kRetryBackoffUs = 200;

// Fallback for failures with no graceful path upstream: syscalls outside
// the fault-injectable durability set (rename, unlink, ftruncate, pread,
// read-side opens). The commit-path syscalls — pwrite, fdatasync/fsync,
// write-side open — never come here; they flow through the retry/poison
// policy below instead.
void OrDie(bool ok, const char* what, const std::string& path) {
  if (ok) return;
  std::fprintf(stderr, "segment_file: %s failed for %s: %s\n", what,
               path.c_str(), std::strerror(errno));
  std::abort();
}

// Write all `n` bytes, looping on partial writes, retrying EINTR freely
// and transient errors (EIO/ENOSPC/...) kIoRetries times with backoff.
// Exhaustion returns IOError; the caller decides whether that poisons the
// stream. On failure a prefix may have landed (a torn record): recovery's
// decode-and-truncate scan owns cleaning that up.
Status PwriteAll(int fd, const uint8_t* data, size_t n, size_t offset,
                 const std::string& path) {
  auto& health = obs::EngineHealth::Default();
  int attempts = 0;
  while (n > 0) {
    const ssize_t w = FaultInjector::Default().Pwrite(
        fd, data, n, static_cast<off_t>(offset), path.c_str());
    if (w < 0) {
      if (errno == EINTR) continue;
      if (attempts >= kIoRetries) {
        return Status::IOError("pwrite " + path + ": " +
                               std::strerror(errno));
      }
      health.CountRetry();
      NapMicros(kRetryBackoffUs << attempts);
      ++attempts;
      continue;
    }
    data += w;
    n -= static_cast<size_t>(w);
    offset += static_cast<size_t>(w);
  }
  return Status::OK();
}

// Header: [magic u64][watermark u64][covered_len u64][crc u32][pad u32].
// `covered_len` is the segment's record-byte length at the instant the
// watermark claim was written. The claim and the records it covers ride
// ONE fdatasync, which the kernel may complete out of order at a real
// crash — a header block can land while its data blocks tear. The open
// scan therefore trusts a header's watermark only when the segment's
// cleanly-decodable prefix reaches covered_len: a claim whose covered
// bytes are torn is discarded in favour of the decoded-records claim.
void EncodeHeader(uint8_t out[kHeaderBytes], Lsn watermark,
                  uint64_t covered_len) {
  std::memset(out, 0, kHeaderBytes);
  std::memcpy(out, &kSegmentMagic, sizeof(kSegmentMagic));
  std::memcpy(out + 8, &watermark, sizeof(watermark));
  std::memcpy(out + 16, &covered_len, sizeof(covered_len));
  const uint32_t crc = Crc32(out + 8, 16);
  std::memcpy(out + 24, &crc, sizeof(crc));
}

// Returns false on bad magic or a torn/corrupt claim field.
bool DecodeHeader(const uint8_t in[kHeaderBytes], Lsn* watermark,
                  uint64_t* covered_len) {
  uint64_t magic;
  std::memcpy(&magic, in, sizeof(magic));
  if (magic != kSegmentMagic) return false;
  uint32_t crc;
  std::memcpy(&crc, in + 24, sizeof(crc));
  if (crc != Crc32(in + 8, 16)) return false;
  std::memcpy(watermark, in + 8, sizeof(*watermark));
  std::memcpy(covered_len, in + 16, sizeof(*covered_len));
  return true;
}

}  // namespace

SegmentFileStorage::SegmentFileStorage(std::string dir, uint32_t stream_id,
                                       Options options)
    : dir_(std::move(dir)), durability_(stream_id), options_(options) {
  OpenDir();
}

SegmentFileStorage::~SegmentFileStorage() {
  if (active_fd_ >= 0) {
    // Clean shutdown: leave the active segment durable but do not count it
    // as sealed — it reopens for appends next lifetime. A failed sync here
    // cannot be acked over (the stream is ending), but it must not pass
    // silently either: anything still dirty may not have reached the
    // platter, so record the hard error for the blackbox/metrics trail.
    if (FaultInjector::Default().Fdatasync(
            active_fd_, PathOf(segments_.back().seq).c_str()) != 0 &&
        dirty_) {
      obs::EngineHealth::Default().CountIOError();
      std::fprintf(stderr,
                   "segment_file: shutdown fdatasync failed for %s: %s\n",
                   PathOf(segments_.back().seq).c_str(),
                   std::strerror(errno));
    }
    ::close(active_fd_);
    active_fd_ = -1;
  }
}

Status SegmentFileStorage::Poison(Status s) {
  if (!poisoned_) {
    poisoned_ = true;
    io_status_ = std::move(s);
    obs::EngineHealth::Default().CountIOError();
    obs::EngineHealth::Default().Degrade("log: " + io_status_.ToString());
    std::fprintf(stderr, "segment_file: stream %s poisoned: %s\n",
                 dir_.c_str(), io_status_.ToString().c_str());
  }
  return io_status_;
}

std::string SegmentFileStorage::PathOf(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08llu.log",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

Status SegmentFileStorage::FsyncDirectory() const {
  const int fd =
      FaultInjector::Default().Open(dir_.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (fd < 0) {
    return Status::IOError("open(dir) " + dir_ + ": " + std::strerror(errno));
  }
  if (FaultInjector::Default().Fsync(fd, dir_.c_str()) != 0) {
    ::close(fd);
    return Status::IOError("fsync(dir) " + dir_ + ": " + std::strerror(errno));
  }
  ::close(fd);
  durability_.Count(DurabilityCounter::kFsyncCalls);
  return Status::OK();
}

Status SegmentFileStorage::SyncDirectory() {
  Status s = FsyncDirectory();
  return s.ok() ? s : Poison(std::move(s));
}

void SegmentFileStorage::OpenDir() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  OrDie(!ec, "create_directories", dir_);

  // Discover segments by name.
  std::vector<uint64_t> seqs;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) != 0 || name.size() < 9) continue;
    if (name.substr(name.size() - 4) != ".log") continue;
    seqs.push_back(std::strtoull(name.c_str() + 4, nullptr, 10));
  }
  std::sort(seqs.begin(), seqs.end());

  // Adopt the decodable prefix of the stream; physically truncate at the
  // first bad record so appends resume at a record boundary (the on-disk
  // equivalent of the crash-time truncation the memory medium gets via
  // DiscardVolatileTail).
  // A break in the stream (torn tail, corrupt middle, unreadable header)
  // makes everything after it unreachable for replay. The expected case —
  // the break sits in the LAST segment (a crash tears the final write) —
  // is repaired by truncating the tail so appends resume at a record
  // boundary. Anything else is media corruption: the unreachable later
  // segments are quarantined (renamed aside), never silently deleted, and
  // the damage is reported on stderr. Neither path counts into
  // kSegmentsUnlinked — that counter reports checkpoint-truncation
  // deletions, and mixing recovery drops in would fake reclamation.
  bool stream_broken = false;
  auto quarantine = [this](const std::string& path, const char* why) {
    const std::string aside = path + ".quarantine";
    std::fprintf(stderr,
                 "segment_file: %s — quarantining unreachable %s as %s\n",
                 why, path.c_str(), aside.c_str());
    OrDie(::rename(path.c_str(), aside.c_str()) == 0, "rename", path);
  };
  for (uint64_t seq : seqs) {
    const std::string path = PathOf(seq);
    if (stream_broken) {
      quarantine(path, "stream broken in an earlier segment");
      continue;
    }
    std::vector<uint8_t> bytes;
    Segment seg;
    seg.seq = seq;
    const uintmax_t fsize = std::filesystem::file_size(path, ec);
    seg.data_bytes = !ec && fsize > kHeaderBytes ? fsize - kHeaderBytes : 0;
    if (ec || fsize < kHeaderBytes || !ReadSegment(seg, &bytes)) {
      quarantine(path, "unreadable or headerless segment");
      stream_broken = true;
      continue;
    }
    std::vector<uint8_t> header(kHeaderBytes);
    {
      const int fd = ::open(path.c_str(), O_RDONLY);
      OrDie(fd >= 0, "open", path);
      const ssize_t r = ::pread(fd, header.data(), kHeaderBytes, 0);
      ::close(fd);
      if (r != static_cast<ssize_t>(kHeaderBytes)) {
        quarantine(path, "short header read");
        stream_broken = true;
        continue;
      }
    }
    Lsn header_watermark = 0;
    uint64_t covered_len = 0;
    if (!DecodeHeader(header.data(), &header_watermark, &covered_len)) {
      quarantine(path, "bad segment magic or header checksum");
      stream_broken = true;
      continue;
    }
    std::vector<LogRecord> recs;
    Status tail;
    const size_t clean = DecodeRecordStream(bytes, path, &recs, &tail);
    if (clean != bytes.size()) {
      // Keep the clean prefix; truncate so appends resume at a record
      // boundary. A tear in the last segment is the normal crash shape;
      // anywhere else this is corruption, and `tail` says exactly where.
      if (seq != seqs.back()) {
        std::fprintf(stderr, "segment_file: %s\n", tail.ToString().c_str());
      }
      const int fd = FaultInjector::Default().Open(path.c_str(), O_RDWR, 0);
      if (fd < 0) {
        (void)Poison(Status::IOError("open " + path + ": " +
                                     std::strerror(errno)));
        return;
      }
      OrDie(::ftruncate(fd, static_cast<off_t>(kHeaderBytes + clean)) == 0,
            "ftruncate", path);
      if (FaultInjector::Default().Fdatasync(fd, path.c_str()) != 0) {
        ::close(fd);
        (void)Poison(Status::IOError("fdatasync " + path + ": " +
                                     std::strerror(errno)));
        return;
      }
      ::close(fd);
      durability_.Count(DurabilityCounter::kFsyncCalls);
      stream_broken = true;
    }
    seg.data_bytes = clean;
    seg.max_lsn = recs.empty() ? 0 : recs.back().lsn;
    if (!recs.empty()) recovered_last_lsn_ = recs.back().lsn;
    for (const LogRecord& rec : recs) {
      if (rec.rid.page_id == kInvalidPageId) continue;  // no page reference
      if (recovered_max_page_id_ == kInvalidPageId ||
          rec.rid.page_id > recovered_max_page_id_) {
        recovered_max_page_id_ = rec.rid.page_id;
      }
    }
    // Trust the claim only when every byte it covered decodes: a real
    // crash can persist the header block of the final fdatasync while its
    // data blocks tear, and such a claim would overstate durability.
    if (clean >= covered_len) {
      recovered_watermark_ = std::max(recovered_watermark_, header_watermark);
    }
    segments_.push_back(seg);
  }
  if (!segments_.empty()) {
    next_seq_ = segments_.back().seq + 1;
    durable_watermark_ = recovered_watermark_;
    const std::string path = PathOf(segments_.back().seq);
    active_fd_ = FaultInjector::Default().Open(path.c_str(), O_RDWR, 0);
    if (active_fd_ < 0) {
      // Born poisoned: recovery can still Decode (read-side opens work),
      // but the stream accepts no appends — the owner sees poisoned().
      (void)Poison(Status::IOError("open " + path + ": " +
                                   std::strerror(errno)));
      return;
    }
    if (stream_broken) (void)SyncDirectory();
  } else {
    (void)CreateActive(next_seq_++, 0);
  }
}

Status SegmentFileStorage::CreateActive(uint64_t seq, Lsn watermark) {
  const std::string path = PathOf(seq);
  const int fd = FaultInjector::Default().Open(
      path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Poison(Status::IOError("open(create) " + path + ": " +
                                  std::strerror(errno)));
  }
  uint8_t header[kHeaderBytes];
  // Covered length 0: the carried-forward claim's covering records were
  // sealed (fsynced) into earlier segments before this header exists.
  EncodeHeader(header, watermark, 0);
  Status s = PwriteAll(fd, header, kHeaderBytes, 0, path);
  if (s.ok() && FaultInjector::Default().Fdatasync(fd, path.c_str()) != 0) {
    s = Status::IOError("fdatasync " + path + ": " + std::strerror(errno));
  }
  if (!s.ok()) {
    ::close(fd);
    return Poison(std::move(s));
  }
  DORADB_RETURN_NOT_OK(SyncDirectory());
  durability_.Count(DurabilityCounter::kFsyncCalls);
  Segment seg;
  seg.seq = seq;
  segments_.push_back(seg);
  active_fd_ = fd;
  durable_watermark_ = watermark;
  dirty_ = false;
  return Status::OK();
}

Status SegmentFileStorage::SealActive() {
  // The seal fsync is a durability point like Sync's: a failure here means
  // the segment's tail may never have reached the platter, so it poisons
  // the stream rather than sealing over the doubt.
  if (FaultInjector::Default().Fdatasync(
          active_fd_, PathOf(segments_.back().seq).c_str()) != 0) {
    return Poison(Status::IOError("fdatasync " +
                                  PathOf(segments_.back().seq) + ": " +
                                  std::strerror(errno)));
  }
  ::close(active_fd_);
  active_fd_ = -1;
  dirty_ = false;
  durability_.Count(DurabilityCounter::kFsyncCalls);
  durability_.Count(DurabilityCounter::kSegmentsSealed);
  return Status::OK();
}

Status SegmentFileStorage::AppendBatch(const uint8_t* data, size_t n,
                                       Lsn last_lsn) {
  if (poisoned_) return io_status_;
  if (n == 0) return Status::OK();
  if (segments_.back().data_bytes >= options_.target_segment_bytes) {
    DORADB_RETURN_NOT_OK(SealActive());
    DORADB_RETURN_NOT_OK(CreateActive(next_seq_++, durable_watermark_));
  }
  Segment& seg = segments_.back();
  const Status s = PwriteAll(active_fd_, data, n, kHeaderBytes + seg.data_bytes,
                             PathOf(seg.seq));
  if (!s.ok()) return Poison(s);
  seg.data_bytes += n;
  seg.max_lsn = last_lsn == kInvalidLsn ? kPinnedLsn
                                        : std::max(seg.max_lsn, last_lsn);
  dirty_ = true;
  durability_.Count(DurabilityCounter::kBytesFlushed, n);
  return Status::OK();
}

Status SegmentFileStorage::WriteHeaderWatermark(int fd, Lsn watermark,
                                                uint64_t covered_len) {
  uint8_t header[kHeaderBytes];
  EncodeHeader(header, watermark, covered_len);
  // A torn header here is safe: the covered_len CRC makes recovery fall
  // back to the decoded-records claim, never an overstated one.
  return PwriteAll(fd, header, kHeaderBytes, 0, PathOf(segments_.back().seq));
}

Status SegmentFileStorage::Sync(Lsn watermark) {
  if (poisoned_) return io_status_;
  const bool advance = watermark > durable_watermark_;
  if (!dirty_ && !advance) return Status::OK();
  if (advance) {
    const Status s = WriteHeaderWatermark(active_fd_, watermark,
                                          segments_.back().data_bytes);
    if (!s.ok()) return Poison(s);
  }
  // One fdatasync covers the appended records and the claim: group commit
  // — every pipelined commit behind this watermark rides the same call.
  // Tier-(b): a failure is NOT retried. After a failed fsync the kernel
  // may mark the dirty pages clean, so a later fsync can "succeed" without
  // anything having reached the platter (the fsyncgate trap) — one failed
  // durability point permanently poisons the stream, and the in-memory
  // watermark the owner acks against never advances past it.
  if (FaultInjector::Default().Fdatasync(
          active_fd_, PathOf(segments_.back().seq).c_str()) != 0) {
    return Poison(Status::IOError("fdatasync " +
                                  PathOf(segments_.back().seq) + ": " +
                                  std::strerror(errno)));
  }
  if (advance) durable_watermark_ = watermark;
  dirty_ = false;
  durability_.Count(DurabilityCounter::kFsyncCalls);
  return Status::OK();
}

bool SegmentFileStorage::ReadSegment(const Segment& seg,
                                     std::vector<uint8_t>* out) const {
  out->clear();
  out->resize(seg.data_bytes);
  if (seg.data_bytes == 0) return true;
  const std::string path = PathOf(seg.seq);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  size_t got = 0;
  while (got < seg.data_bytes) {
    const ssize_t r = ::pread(fd, out->data() + got, seg.data_bytes - got,
                              static_cast<off_t>(kHeaderBytes + got));
    if (r <= 0) break;
    got += static_cast<size_t>(r);
  }
  ::close(fd);
  if (got != seg.data_bytes) {
    out->resize(got);
    return false;
  }
  return true;
}

std::vector<LogRecord> SegmentFileStorage::Decode(Status* tail) const {
  std::vector<LogRecord> out;
  if (tail != nullptr) *tail = Status::OK();
  for (const Segment& seg : segments_) {
    std::vector<uint8_t> bytes;
    const bool read_ok = ReadSegment(seg, &bytes);
    Status seg_tail;
    const size_t off = DecodeRecordStream(bytes, PathOf(seg.seq), &out,
                                          &seg_tail);
    if (!read_ok) {
      if (tail != nullptr) {
        *tail = Status::IOError("short read in " + PathOf(seg.seq));
      }
      break;
    }
    if (off != bytes.size()) {
      if (tail != nullptr) *tail = seg_tail;
      break;  // everything after the first bad record is unreachable
    }
  }
  return out;
}

LogStorage::Reclaimed SegmentFileStorage::ReclaimBelow(Lsn point) {
  Reclaimed out;
  auto detach = [&](const Segment& seg) {
    out.files.push_back(PathOf(seg.seq));
    out.bytes += seg.data_bytes;
  };
  while (segments_.size() > 1 && segments_.front().max_lsn < point) {
    detach(segments_.front());
    segments_.erase(segments_.begin());
  }
  // The active segment too, when it is wholly below the horizon: seal it
  // and start fresh — the checkpoint vouches nothing in it is needed. The
  // fresh segment is created here, under the owner's mutex, because the
  // next append needs it; the sealed file is detached like the others.
  // A failed seal poisons the stream and keeps the segment on disk; the
  // segments detached above still go.
  if (segments_.size() == 1 && segments_.front().data_bytes > 0 &&
      segments_.front().max_lsn != 0 && segments_.front().max_lsn < point &&
      !poisoned_ && SealActive().ok()) {
    detach(segments_.front());
    segments_.clear();
    (void)CreateActive(next_seq_++, durable_watermark_);
  }
  return out;
}

Status SegmentFileStorage::RemoveDetached(
    const std::vector<std::string>& files) const {
  if (files.empty()) return Status::OK();
  for (const std::string& path : files) {
    OrDie(::unlink(path.c_str()) == 0, "unlink", path);
    durability_.Count(DurabilityCounter::kSegmentsUnlinked);
  }
  return FsyncDirectory();
}

void SegmentFileStorage::TruncateTo(Lsn horizon) {
  for (size_t i = 0; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    std::vector<uint8_t> bytes;
    (void)ReadSegment(seg, &bytes);
    size_t keep = 0, off = 0;
    bool cut = false;
    LogRecord rec;
    while (LogRecord::DeserializeFrom(bytes, &off, &rec)) {
      if (rec.lsn > horizon) {
        cut = true;
        break;
      }
      keep = off;
    }
    if (!cut && keep == bytes.size() && bytes.size() == seg.data_bytes) {
      continue;  // wholly surviving (clean and under the horizon)
    }
    // Cut here: this segment keeps its byte prefix and becomes the active
    // segment; every later segment holds only larger LSNs and is dropped.
    if (active_fd_ >= 0) {
      ::close(active_fd_);
      active_fd_ = -1;
    }
    // Restart truncation, not checkpoint reclamation: the drops stay out
    // of kSegmentsUnlinked, which reports reclaimed history only.
    for (size_t j = i + 1; j < segments_.size(); ++j) {
      const std::string path = PathOf(segments_[j].seq);
      OrDie(::unlink(path.c_str()) == 0, "unlink", path);
    }
    segments_.resize(i + 1);
    const std::string path = PathOf(seg.seq);
    active_fd_ = FaultInjector::Default().Open(path.c_str(), O_RDWR, 0);
    if (active_fd_ < 0) {
      (void)Poison(Status::IOError("open " + path + ": " +
                                   std::strerror(errno)));
      return;
    }
    OrDie(::ftruncate(active_fd_,
                      static_cast<off_t>(kHeaderBytes + keep)) == 0,
          "ftruncate", path);
    seg.data_bytes = keep;
    seg.max_lsn = std::min(seg.max_lsn, horizon);
    // Carry the newest claim into the (possibly older) now-active header;
    // like the memory medium's watermark, it never goes backwards.
    const Status hs = WriteHeaderWatermark(
        active_fd_, std::max(durable_watermark_, horizon), keep);
    if (!hs.ok()) {
      (void)Poison(hs);
      return;
    }
    durable_watermark_ = std::max(durable_watermark_, horizon);
    if (FaultInjector::Default().Fdatasync(active_fd_, path.c_str()) != 0) {
      (void)Poison(Status::IOError("fdatasync " + path + ": " +
                                   std::strerror(errno)));
      return;
    }
    durability_.Count(DurabilityCounter::kFsyncCalls);
    (void)SyncDirectory();
    dirty_ = false;
    return;
  }
}

size_t SegmentFileStorage::size() const {
  size_t n = 0;
  for (const Segment& seg : segments_) n += seg.data_bytes;
  return n;
}

void SegmentFileStorage::TearTail(size_t bytes) {
  while (bytes > 0 && !segments_.empty()) {
    Segment& seg = segments_.back();
    const size_t cut = std::min(bytes, seg.data_bytes);
    if (cut == seg.data_bytes && bytes > seg.data_bytes &&
        segments_.size() > 1) {
      // The whole segment tears away and more remains: unlink it and keep
      // tearing into the previous one.
      ::close(active_fd_);
      const std::string path = PathOf(seg.seq);
      OrDie(::unlink(path.c_str()) == 0, "unlink", path);
      segments_.pop_back();
      const std::string prev = PathOf(segments_.back().seq);
      active_fd_ = ::open(prev.c_str(), O_RDWR);
      OrDie(active_fd_ >= 0, "open", prev);
      bytes -= cut;
      continue;
    }
    const std::string path = PathOf(seg.seq);
    seg.data_bytes -= cut;
    OrDie(::ftruncate(active_fd_,
                      static_cast<off_t>(kHeaderBytes + seg.data_bytes)) == 0,
          "ftruncate", path);
    bytes -= cut;
    break;
  }
}

void SegmentFileStorage::FlipByte(size_t index) {
  size_t acc = 0;
  for (const Segment& seg : segments_) {
    if (index < acc + seg.data_bytes) {
      const size_t rel = index - acc;
      const std::string path = PathOf(seg.seq);
      const int fd = ::open(path.c_str(), O_RDWR);
      OrDie(fd >= 0, "open", path);
      uint8_t b = 0;
      OrDie(::pread(fd, &b, 1, static_cast<off_t>(kHeaderBytes + rel)) == 1,
            "pread", path);
      b ^= 0xFF;
      OrDie(::pwrite(fd, &b, 1, static_cast<off_t>(kHeaderBytes + rel)) == 1,
            "pwrite", path);
      ::close(fd);
      return;
    }
    acc += seg.data_bytes;
  }
}

}  // namespace doradb
