// Worker-thread helpers: named thread groups and core binding.

#ifndef DORADB_UTIL_THREAD_POOL_H_
#define DORADB_UTIL_THREAD_POOL_H_

#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace doradb {

// Pin the calling thread to the given core, modulo the machine's core count.
// Used to emulate the paper's fixed executor-to-context binding.
void BindToCore(unsigned core);

// Number of hardware contexts visible to the process (the paper's "64
// OS-visible CPUs" axis; offered load is expressed relative to this).
unsigned HardwareContexts();

// A group of threads all running `body(worker_index)`. Join() waits for all.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ~ThreadGroup() { Join(); }
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  void Spawn(size_t count, std::function<void(size_t)> body);
  void Join();
  size_t Size() const { return threads_.size(); }

 private:
  std::vector<std::thread> threads_;
};

}  // namespace doradb

#endif  // DORADB_UTIL_THREAD_POOL_H_
