#include "client_loop.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/rng.h"

extern char** environ;

namespace doradb {
namespace perfbench {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool IsUserAbort(const Status& s) {
  return s.IsNotFound() || s.code() == Status::Code::kAborted ||
         s.code() == Status::Code::kDuplicate;
}

bool IsSystemAbort(const Status& s) { return s.IsDeadlock() || s.IsTimeout(); }

}  // namespace

void RefuseEngineEnvironment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DORADB_", 7) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; every engine "
                   "option is pinned in the benchmark's code\n",
                   *e);
      std::exit(2);
    }
  }
}

void WindowRecord::Merge(const WindowRecord& o) {
  attempts += o.attempts;
  commits += o.commits;
  user_aborts += o.user_aborts;
  system_aborts += o.system_aborts;
  errors += o.errors;
  samples.insert(samples.end(), o.samples.begin(), o.samples.end());
}

double WindowRecord::FailRatio() const {
  return attempts == 0
             ? 0.0
             : static_cast<double>(system_aborts + errors) / attempts;
}

std::vector<Slice> WindowRecord::Slices() const {
  constexpr uint64_t kSliceNs = 1000000000ull;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(seconds));
  const double slice_s = n == 1 ? seconds : 1.0;
  std::vector<std::vector<uint64_t>> lat(n);
  std::vector<uint64_t> commits_in(n, 0);
  for (const Sample& x : samples) {
    const size_t i = n == 1 ? 0 : x.end_ns / kSliceNs;
    if (i >= n) continue;
    lat[i].push_back(x.latency_ns);
    if (x.code == static_cast<uint32_t>(Status::Code::kOk)) ++commits_in[i];
  }
  std::vector<Slice> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].commit_tps = static_cast<double>(commits_in[i]) / slice_s;
    out[i].p50_us = PercentileUs(&lat[i], 50);
    out[i].p99_us = PercentileUs(&lat[i], 99);
  }
  return out;
}

std::vector<uint64_t> WindowRecord::LatenciesOf(uint32_t type) const {
  std::vector<uint64_t> out;
  for (const Sample& x : samples) {
    if (x.type == type) out.push_back(x.latency_ns);
  }
  return out;
}

double PercentileUs(std::vector<uint64_t>* v, double pct) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(pct / 100.0 * v->size() + 0.5);
  rank = std::clamp<size_t>(rank, 1, v->size());
  return static_cast<double>((*v)[rank - 1]) / 1000.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Slice GoodQuartile(const std::vector<Slice>& slices) {
  std::vector<double> tps, p50, p99;
  for (const Slice& x : slices) {
    tps.push_back(x.commit_tps);
    p50.push_back(x.p50_us);
    p99.push_back(x.p99_us);
  }
  return Slice{Quantile(tps, 0.75), Quantile(p50, 0.25), Quantile(p99, 0.25)};
}

ClientLoop::ClientLoop(Workload* workload, dora::DoraEngine* engine,
                       uint32_t clients, uint64_t seed)
    : workload_(workload), engine_(engine), seed_(seed) {
  for (uint32_t i = 0; i < clients; ++i) {
    auto c = std::make_unique<Client>();
    c->id = i;
    clients_.push_back(std::move(c));
  }
}

ClientLoop::~ClientLoop() {
  if (!stop_.load()) Stop();
}

void ClientLoop::Start() {
  for (auto& c : clients_) {
    Client* raw = c.get();
    c->thread = std::thread([this, raw] { Run(raw); });
  }
}

void ClientLoop::OpenWindow() {
  start_ns_ = NowNs();
  open_.store(true, std::memory_order_release);
}

void ClientLoop::CloseWindow() {
  if (open_.exchange(false, std::memory_order_acq_rel)) end_ns_ = NowNs();
}

void ClientLoop::Stop() {
  CloseWindow();
  stop_.store(true, std::memory_order_release);
  for (auto& c : clients_) {
    if (c->thread.joinable()) c->thread.join();
  }
  merged_ = WindowRecord{};
  for (auto& c : clients_) merged_.Merge(c->window);
  if (end_ns_ > start_ns_) {
    merged_.seconds = static_cast<double>(end_ns_ - start_ns_) / 1e9;
  }
  lifetime_commits_ = 0;
  first_error_ = Status::OK();
  for (auto& c : clients_) {
    lifetime_commits_ += c->commits;
    if (first_error_.ok() && !c->first_error.ok()) {
      first_error_ = c->first_error;
    }
  }
}

void ClientLoop::Run(Client* c) {
  Rng rng(seed_ * 0x9E3779B97F4A7C15ull + (c->id + 1) * 104729ull);
  while (!stop_.load(std::memory_order_acquire)) {
    const uint32_t type = workload_->PickTxnType(rng);
    const bool open_at_start = open_.load(std::memory_order_acquire);
    const uint64_t t0 = NowNs();
    const Status s = engine_ != nullptr
                         ? workload_->RunDora(engine_, type, rng)
                         : workload_->RunBaseline(type, rng);
    const uint64_t t1 = NowNs();
    if (s.ok()) ++c->commits;
    if (!open_at_start || !open_.load(std::memory_order_acquire)) continue;
    WindowRecord& p = c->window;
    ++p.attempts;
    p.samples.push_back(Sample{t1 - start_ns_, t1 - t0, type,
                               static_cast<uint32_t>(s.code())});
    if (s.ok()) {
      ++p.commits;
    } else if (IsUserAbort(s)) {
      ++p.user_aborts;
    } else if (IsSystemAbort(s)) {
      ++p.system_aborts;
    } else {
      ++p.errors;
      if (c->first_error.ok()) c->first_error = s;
    }
  }
}

}  // namespace perfbench
}  // namespace doradb
