#include "util/thread_pool.h"

#include <pthread.h>
#include <sched.h>

namespace doradb {

void BindToCore(unsigned core) {
  const unsigned n = HardwareContexts();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % n, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

unsigned HardwareContexts() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadGroup::Spawn(size_t count, std::function<void(size_t)> body) {
  for (size_t i = 0; i < count; ++i) {
    threads_.emplace_back([body, i] { body(i); });
  }
}

void ThreadGroup::Join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

}  // namespace doradb
