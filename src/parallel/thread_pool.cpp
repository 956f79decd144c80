#include "parallel/thread_pool.hpp"

#include <atomic>
#include <cstdlib>

namespace middlefl::parallel {
namespace {

thread_local bool tls_in_worker = false;
thread_local std::size_t tls_worker_index = 0;
thread_local bool tls_worker_named = false;  // timeline named, lazily

std::atomic<std::size_t> g_default_size{0};

std::size_t env_thread_override() {
  const char* raw = std::getenv("MIDDLEFL_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return 0;  // not a number: ignore
  return static_cast<std::size_t>(parsed);
}

}  // namespace

bool ThreadPool::in_worker() noexcept { return tls_in_worker; }

std::size_t ThreadPool::default_size() {
  std::size_t n = g_default_size.load(std::memory_order_relaxed);
  if (n == 0) n = env_thread_override();
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return n;
}

void ThreadPool::set_default_size(std::size_t num_threads) noexcept {
  g_default_size.store(num_threads, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t num_threads)
    : start_(obs::TraceRecorder::Clock::now()) {
  if (num_threads == 0) {
    num_threads = default_size();
  }
  cells_ = std::make_unique<WorkerCell[]>(num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_in_worker = true;
  tls_worker_index = index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::optional<obs::TraceRecorder::Clock::time_point> ThreadPool::task_begin()
    const noexcept {
  if (trace_.load(std::memory_order_relaxed) == nullptr &&
      !accounting_.load(std::memory_order_relaxed)) {
    return std::nullopt;
  }
  return obs::TraceRecorder::Clock::now();
}

void ThreadPool::task_end(
    std::optional<obs::TraceRecorder::Clock::time_point> begin) {
  if (!begin) return;
  const auto end = obs::TraceRecorder::Clock::now();
  WorkerCell& cell = cells_[tls_worker_index];
  // Single-writer cells: only this worker mutates them, so a relaxed
  // load+store pair is a race-free increment.
  cell.tasks.store(cell.tasks.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  cell.busy_us.store(
      cell.busy_us.load(std::memory_order_relaxed) +
          std::chrono::duration<double, std::micro>(end - *begin).count(),
      std::memory_order_relaxed);
  if (obs::TraceRecorder* trace = trace_.load(std::memory_order_relaxed)) {
    if (!tls_worker_named) {
      trace->name_this_thread("worker-" + std::to_string(tls_worker_index));
      tls_worker_named = true;
    }
    trace->complete("task", "pool", *begin, end);
  }
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> stats(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    stats[i].tasks = cells_[i].tasks.load(std::memory_order_relaxed);
    stats[i].busy_us = cells_[i].busy_us.load(std::memory_order_relaxed);
  }
  return stats;
}

double ThreadPool::uptime_us() const {
  return std::chrono::duration<double, std::micro>(
             obs::TraceRecorder::Clock::now() - start_)
      .count();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace middlefl::parallel
