#include "util/sync_stats.h"

#include <map>
#include <sstream>

#include "obs/metrics.h"

namespace doradb {

const char* TimeClassName(TimeClass tc) {
  switch (tc) {
    case TimeClass::kUnaccounted: return "unaccounted";
    case TimeClass::kWork: return "work";
    case TimeClass::kLockAcquire: return "lock_acquire";
    case TimeClass::kLockAcquireContention: return "lock_acquire_cont";
    case TimeClass::kLockWait: return "lock_wait";
    case TimeClass::kLockRelease: return "lock_release";
    case TimeClass::kLockReleaseContention: return "lock_release_cont";
    case TimeClass::kLockOther: return "lock_other";
    case TimeClass::kDoraLocalLock: return "dora_local_lock";
    case TimeClass::kDoraQueue: return "dora_queue";
    case TimeClass::kDoraRvp: return "dora_rvp";
    case TimeClass::kLogWork: return "log_work";
    case TimeClass::kLogContention: return "log_cont";
    case TimeClass::kBufferContention: return "buffer_cont";
    case TimeClass::kOtherContention: return "other_cont";
    case TimeClass::kClassCount: break;
  }
  return "?";
}

StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot& rhs) const {
  StatsSnapshot out;
  for (size_t i = 0; i < kNumTimeClasses; ++i) {
    out.cycles[i] = cycles[i] - rhs.cycles[i];
  }
  for (size_t i = 0; i < kNumLockCounters; ++i) {
    out.lock_counts[i] = lock_counts[i] - rhs.lock_counts[i];
  }
  return out;
}

uint64_t StatsSnapshot::TotalCycles() const {
  uint64_t total = 0;
  // Exclude kUnaccounted: breakdowns are over accounted (in-engine) time.
  for (size_t i = 1; i < kNumTimeClasses; ++i) total += cycles[i];
  return total;
}

double StatsSnapshot::Fraction(TimeClass tc) const {
  const uint64_t total = TotalCycles();
  if (total == 0) return 0.0;
  return static_cast<double>(cycles[static_cast<size_t>(tc)]) /
         static_cast<double>(total);
}

std::string StatsSnapshot::ToString() const {
  std::ostringstream os;
  for (size_t i = 1; i < kNumTimeClasses; ++i) {
    if (cycles[i] == 0) continue;
    os << TimeClassName(static_cast<TimeClass>(i)) << "="
       << static_cast<uint64_t>(Cycles::ToNanos(cycles[i]) / 1000) << "us ";
  }
  os << "| row_locks=" << lock_counts[0] << " higher_locks=" << lock_counts[1]
     << " dora_locks=" << lock_counts[2];
  return os.str();
}

namespace {

struct Registry {
  std::mutex mu;
  // shared_ptr keeps accumulators alive after their thread exits so that a
  // post-run AggregateSnapshot still sees their contribution.
  std::vector<std::shared_ptr<ThreadStats>> all;

  static Registry& Get() {
    static Registry* r = new Registry();  // leaked: outlives all threads
    return *r;
  }
};

std::shared_ptr<ThreadStats> MakeRegistered() {
  auto stats = std::make_shared<ThreadStats>();
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> g(reg.mu);
  reg.all.push_back(stats);
  return stats;
}

}  // namespace

const char* DurabilityCounterName(DurabilityCounter dc) {
  switch (dc) {
    case DurabilityCounter::kFsyncCalls: return "fsyncs";
    case DurabilityCounter::kBytesFlushed: return "bytes";
    case DurabilityCounter::kSegmentsSealed: return "sealed";
    case DurabilityCounter::kSegmentsUnlinked: return "unlinked";
    case DurabilityCounter::kDurabilityCount: break;
  }
  return "?";
}

namespace {

constexpr char kDurabilityPrefix[] = "durability.";

std::string DurabilityStreamName(uint32_t stream) {
  if (stream == kPageStoreStream) return "pages";
  return "log-" + std::to_string(stream);
}

// Inverse of DurabilityStreamName + DurabilityCounterName over a registry
// metric name; false if `name` is not a durability counter.
bool ParseDurabilityName(const std::string& name, uint32_t* stream,
                         size_t* counter) {
  const size_t prefix = sizeof(kDurabilityPrefix) - 1;
  if (name.compare(0, prefix, kDurabilityPrefix) != 0) return false;
  const size_t dot = name.find('.', prefix);
  if (dot == std::string::npos) return false;
  const std::string stream_name = name.substr(prefix, dot - prefix);
  if (stream_name == "pages") {
    *stream = kPageStoreStream;
  } else if (stream_name.compare(0, 4, "log-") == 0) {
    *stream = static_cast<uint32_t>(std::stoul(stream_name.substr(4)));
  } else {
    return false;
  }
  for (size_t i = 0; i < kNumDurabilityCounters; ++i) {
    if (name.compare(dot + 1, std::string::npos,
                     DurabilityCounterName(static_cast<DurabilityCounter>(
                         i))) == 0) {
      *counter = i;
      return true;
    }
  }
  return false;
}

}  // namespace

DurabilityStats::Stream::Stream(uint32_t stream) {
  for (size_t i = 0; i < kNumDurabilityCounters; ++i) {
    const auto dc = static_cast<DurabilityCounter>(i);
    counters_[i] = obs::MetricsRegistry::Default().GetCounter(
        kDurabilityPrefix + DurabilityStreamName(stream) + "." +
            DurabilityCounterName(dc),
        dc == DurabilityCounter::kBytesFlushed ? "bytes" : "calls");
  }
}

void DurabilityStats::Stream::Count(DurabilityCounter dc, uint64_t n) const {
  counters_[static_cast<size_t>(dc)]->Add(n);
}

std::vector<DurabilityStats::Row> DurabilityStats::Snapshot() {
  std::map<uint32_t, Row> rows;  // ordered: kPageStoreStream sorts last
  for (const obs::MetricValue& m :
       obs::MetricsRegistry::Default().Snapshot().metrics) {
    uint32_t stream;
    size_t counter;
    if (m.value == 0 || !ParseDurabilityName(m.name, &stream, &counter)) {
      continue;
    }
    Row& row = rows[stream];
    row.stream = stream;
    row.counts[counter] = static_cast<uint64_t>(m.value);
  }
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const auto& [stream, row] : rows) out.push_back(row);
  return out;
}

void DurabilityStats::Reset() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  for (const obs::MetricValue& m : registry.Snapshot().metrics) {
    if (m.name.rfind(kDurabilityPrefix, 0) == 0) {
      registry.GetCounter(m.name)->Reset();
    }
  }
}

std::string DurabilityStats::ToString() {
  std::ostringstream os;
  for (const Row& row : Snapshot()) {
    if (row.stream == kPageStoreStream) {
      os << "pages:";
    } else {
      os << "log-" << row.stream << ":";
    }
    for (size_t i = 0; i < kNumDurabilityCounters; ++i) {
      os << " " << DurabilityCounterName(static_cast<DurabilityCounter>(i))
         << "=" << row.counts[i];
    }
    os << "\n";
  }
  return os.str();
}

ThreadStats::ThreadStats() : mark_(Cycles::Now()) {}

StatsSnapshot ThreadStats::Snapshot() const {
  StatsSnapshot out;
  for (size_t i = 0; i < kNumTimeClasses; ++i) {
    out.cycles[i] = cycles_[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kNumLockCounters; ++i) {
    out.lock_counts[i] = lock_counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void ThreadStats::Reset() {
  for (auto& c : cycles_) c.store(0, std::memory_order_relaxed);
  for (auto& c : lock_counts_) c.store(0, std::memory_order_relaxed);
  mark_ = Cycles::Now();
}

ThreadStats& ThreadStats::Local() {
  thread_local std::shared_ptr<ThreadStats> local = MakeRegistered();
  return *local;
}

StatsSnapshot ThreadStats::AggregateSnapshot() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> g(reg.mu);
  StatsSnapshot out;
  for (const auto& t : reg.all) {
    const StatsSnapshot s = t->Snapshot();
    for (size_t i = 0; i < kNumTimeClasses; ++i) out.cycles[i] += s.cycles[i];
    for (size_t i = 0; i < kNumLockCounters; ++i) {
      out.lock_counts[i] += s.lock_counts[i];
    }
  }
  return out;
}

void ThreadStats::ResetAll() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> g(reg.mu);
  for (const auto& t : reg.all) t->Reset();
}

}  // namespace doradb
