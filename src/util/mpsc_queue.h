// Intrusive lock-free multi-producer single-consumer queue with batch
// draining and futex-style parking.
//
// This is the executor inbox substrate (paper §4.2.3 / QueCC): producers
// enqueue with a single CAS on one word; the consumer takes the ENTIRE
// list with one exchange and processes it as a batch, so the per-message
// cost is one uncontended atomic on each side and the consumer wakes at
// most once per batch instead of once per message.
//
// Parking protocol: the head word holds either nullptr (empty), a node
// pointer (non-empty), or a sentinel kParked meaning "the consumer is
// asleep". Only the consumer installs the sentinel, and only after a drain
// came up empty; the producer that replaces the sentinel with a node is
// the unique waker, so an enqueue onto a busy consumer never issues a
// syscall. The sleep itself is an eventcount on a separate 32-bit word
// (futex on Linux, std::atomic wait elsewhere) so timed parks are
// possible; every payload hand-off rides the release/acquire pair on the
// head word, never the futex.
//
// Ordering: draining reverses the push (Treiber) order, so the returned
// chain is oldest-first — the full enqueue linearization order, which in
// particular preserves per-producer FIFO.

#ifndef DORADB_UTIL_MPSC_QUEUE_H_
#define DORADB_UTIL_MPSC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>
#else
#include <thread>
#endif

namespace doradb {

// Base class for anything enqueued on an MpscQueue. The queue owns `next`
// between Push and the drain that returns the node; the caller owns the
// node (and may immediately re-push it) afterwards.
struct MpscNode {
  MpscNode* next = nullptr;
};

namespace detail {

#if defined(__linux__)
inline void FutexWait(std::atomic<uint32_t>* word, uint32_t expected,
                      int64_t timeout_us) {
  struct timespec ts;
  struct timespec* tsp = nullptr;
  if (timeout_us >= 0) {
    ts.tv_sec = static_cast<time_t>(timeout_us / 1000000);
    ts.tv_nsec = static_cast<long>((timeout_us % 1000000) * 1000);
    tsp = &ts;
  }
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT_PRIVATE,
            expected, tsp, nullptr, 0);
}

inline void FutexWake(std::atomic<uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE_PRIVATE,
            1, nullptr, nullptr, 0);
}
#else
inline void FutexWait(std::atomic<uint32_t>* word, uint32_t expected,
                      int64_t timeout_us) {
  if (timeout_us < 0) {
    word->wait(expected, std::memory_order_acquire);
  } else if (word->load(std::memory_order_acquire) == expected) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        timeout_us < 500 ? timeout_us : int64_t{500}));
  }
}

inline void FutexWake(std::atomic<uint32_t>* word) { word->notify_one(); }
#endif

inline uint64_t SteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

class MpscQueue {
 public:
  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Enqueue `n` (any thread). Returns true iff the consumer was parked and
  // this push woke it — i.e. true means a syscall was spent.
  bool Push(MpscNode* n) {
    uintptr_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      if (h == kParked) {
        n->next = nullptr;
        if (head_.compare_exchange_weak(h, reinterpret_cast<uintptr_t>(n),
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
          // Unique waker: only one producer can swap out the sentinel.
          seq_.fetch_add(1, std::memory_order_release);
          detail::FutexWake(&seq_);
          wakeups_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      } else {
        n->next = reinterpret_cast<MpscNode*>(h);
        if (head_.compare_exchange_weak(h, reinterpret_cast<uintptr_t>(n),
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
          return false;
        }
      }
    }
  }

  // Consumer only: take everything, oldest-first. Returns nullptr when
  // empty. Never blocks.
  MpscNode* TryDrain() {
    if (head_.load(std::memory_order_relaxed) == kEmpty) return nullptr;
    uintptr_t h = head_.exchange(kEmpty, std::memory_order_acquire);
    if (h == kEmpty || h == kParked) return nullptr;
    // Reverse the Treiber chain into enqueue (FIFO) order.
    MpscNode* node = reinterpret_cast<MpscNode*>(h);
    MpscNode* out = nullptr;
    while (node != nullptr) {
      MpscNode* next = node->next;
      node->next = out;
      out = node;
      node = next;
    }
    return out;
  }

  // Consumer only: sleep until a producer enqueues, then drain. A negative
  // timeout sleeps indefinitely; otherwise returns nullptr after
  // `timeout_us` with nothing arrived.
  MpscNode* Park(int64_t timeout_us) {
    return Await(timeout_us) ? TryDrain() : nullptr;
  }

  // Consumer only: Park without the drain. Returns true once the queue
  // holds a node (left in place), false after `timeout_us` with nothing
  // arrived. A consumer that must acquire something else before it may
  // process its messages sleeps here, so producers' nodes stay visible
  // (Idle() false) until it drains them.
  bool Await(int64_t timeout_us) {
    uintptr_t expected = kEmpty;
    if (!head_.compare_exchange_strong(expected, kParked,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      return true;  // raced with a push: work arrived
    }
    const bool bounded = timeout_us >= 0;
    const uint64_t deadline =
        bounded ? detail::SteadyMicros() + static_cast<uint64_t>(timeout_us)
                : 0;
    for (;;) {
      // Eventcount order matters: read seq BEFORE re-checking the head, so
      // a producer's post-swap increment always differs from `s` and the
      // futex wait falls through instead of missing the wake.
      const uint32_t s = seq_.load(std::memory_order_acquire);
      if (head_.load(std::memory_order_acquire) != kParked) break;
      int64_t remain = -1;
      if (bounded) {
        const uint64_t now = detail::SteadyMicros();
        if (now >= deadline) {
          uintptr_t parked = kParked;
          if (head_.compare_exchange_strong(parked, kEmpty,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
            return false;  // retracted the sentinel: clean timeout
          }
          break;  // a producer just swapped a node in
        }
        remain = static_cast<int64_t>(deadline - now);
      }
      detail::FutexWait(&seq_, s, remain);
    }
    return true;
  }

  // Any thread: true when no node is queued (the head is empty or the
  // parked sentinel). A snapshot — a push may land right after.
  bool Idle() const {
    const uintptr_t h = head_.load(std::memory_order_acquire);
    return h == kEmpty || h == kParked;
  }

  // Producer-side syscall count (pushes that found the consumer parked).
  uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uintptr_t kEmpty = 0;
  static constexpr uintptr_t kParked = 1;  // never a valid node address

  std::atomic<uintptr_t> head_{kEmpty};
  std::atomic<uint32_t> seq_{0};  // eventcount word the consumer sleeps on
  std::atomic<uint64_t> wakeups_{0};
};

}  // namespace doradb

#endif  // DORADB_UTIL_MPSC_QUEUE_H_
