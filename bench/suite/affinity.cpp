#include "affinity.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace middlefl::bench::suite {

namespace {

void set_this_thread_cpus(std::size_t first, std::size_t count) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t c = first; c < first + count; ++c) {
    CPU_SET(static_cast<int>(c), &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  static_cast<void>(first);
  static_cast<void>(count);
#endif
}

}  // namespace

void pin_threads(parallel::ThreadPool& pool, std::size_t cpus) {
  // Each worker takes exactly one pinning task: every task waits until all
  // of them have started.
  const std::size_t n = pool.size();
  std::atomic<std::size_t> started{0};
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < n; ++i) {
    done.push_back(pool.submit([&started, n, cpus] {
      const std::size_t me = started.fetch_add(1);
      while (started.load() < n) std::this_thread::yield();
      set_this_thread_cpus(me % cpus, 1);
    }));
  }
  for (auto& d : done) d.get();
  set_this_thread_cpus(0, 1);
}

void unpin_this_thread() {
  set_this_thread_cpus(0, std::max<std::size_t>(
                              1, std::thread::hardware_concurrency()));
}

}  // namespace middlefl::bench::suite
