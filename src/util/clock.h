// Cycle-granularity timestamps for time-breakdown accounting.
//
// The paper's evaluation attributes execution time to classes such as
// "lock manager contention" (Figs. 1-3). We bracket instrumented code
// sections with rdtsc reads, which cost ~10 cycles — cheap enough to leave
// enabled in benchmark builds.

#ifndef DORADB_UTIL_CLOCK_H_
#define DORADB_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <ctime>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace doradb {

// Sleep helper shared by the log flushers and group-commit waiters.
inline void NapMicros(uint64_t us) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(us / 1000000);
  ts.tv_nsec = static_cast<long>((us % 1000000) * 1000);
  nanosleep(&ts, nullptr);
}

class Cycles {
 public:
  // Raw timestamp-counter read. Monotonic and constant-rate on any
  // post-2008 x86; falls back to steady_clock elsewhere.
  static inline uint64_t Now() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  // Cycles per nanosecond, calibrated once at first use.
  static double PerNanosecond() {
    static const double rate = Calibrate();
    return rate;
  }

  static double ToNanos(uint64_t cycles) {
    return static_cast<double>(cycles) / PerNanosecond();
  }

 private:
  static double Calibrate() {
#if defined(__x86_64__) || defined(__i386__)
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t c0 = Now();
    // ~10ms busy window is enough for <1% calibration error.
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::milliseconds(10)) {
    }
    const uint64_t c1 = Now();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    return static_cast<double>(c1 - c0) / ns;
#else
    return 1.0;  // steady_clock ticks are nanoseconds on Linux.
#endif
  }
};

}  // namespace doradb

#endif  // DORADB_UTIL_CLOCK_H_
