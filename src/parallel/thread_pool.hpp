// Fixed-size thread pool with a shared task queue.
//
// The simulator's unit of parallelism is coarse (one task = one device's
// local training for a time step, or one tile of a GEMM), so a single
// mutex-protected queue is sufficient; there is no work stealing. Tasks must
// not throw — exceptions escaping a task terminate, matching the simulator's
// fail-fast policy (a corrupted training step cannot be recovered mid-round).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/trace_recorder.hpp"

namespace middlefl::parallel {

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  std::size_t size() const noexcept { return workers_.size(); }

  /// Per-worker busy/idle accounting, exact at serial points (pool idle).
  /// Idle time is uptime_us() minus a worker's busy_us.
  struct WorkerStats {
    std::uint64_t tasks = 0;
    double busy_us = 0.0;
  };

  /// Attaches a span recorder: every executed task becomes a "pool" span
  /// on its worker's timeline and feeds the busy counters. nullptr detaches
  /// the recorder; accounting stays on if enabled separately.
  void set_trace(obs::TraceRecorder* trace) noexcept {
    trace_.store(trace, std::memory_order_relaxed);
  }
  /// Busy/idle accounting without span recording (two clock reads per
  /// task). Off by default: the disabled hot path is one relaxed load.
  void set_accounting(bool enabled) noexcept {
    accounting_.store(enabled, std::memory_order_relaxed);
  }

  /// Snapshot of per-worker counters (index = worker). Totals are exact
  /// when no task is in flight.
  std::vector<WorkerStats> worker_stats() const;
  /// Wall microseconds since the pool was constructed.
  double uptime_us() const;

  /// Enqueue a task; returns a future for completion/exception propagation.
  /// The task's accounting runs inside the packaged task, so once the
  /// future is ready the worker is done with the span recorder too: a
  /// caller may detach and destroy the recorder right after waiting.
  template <typename F>
  std::future<void> submit(F&& task) {
    auto packaged = std::make_shared<std::packaged_task<void()>>(
        [this, task = std::forward<F>(task)]() mutable {
          const auto begin = task_begin();
          try {
            task();
          } catch (...) {
            task_end(begin);
            throw;
          }
          task_end(begin);
        });
    std::future<void> future = packaged->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool: submit after shutdown");
      }
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Process-wide default pool, sized to default_size(); created on first
  /// use. Bench binaries and the simulator share it so thread counts stay
  /// bounded.
  static ThreadPool& global();

  /// Worker count global() will use: set_default_size() when called with a
  /// nonzero value, else the MIDDLEFL_THREADS environment variable, else
  /// hardware concurrency (always at least 1).
  static std::size_t default_size();

  /// Overrides default_size() (0 restores the env/hardware default). Must
  /// be called before the first global() use to affect the shared pool —
  /// CLI front ends apply their --threads flag here at startup.
  static void set_default_size(std::size_t num_threads) noexcept;

  /// True when the calling thread is a pool worker. parallel_for uses this
  /// to run nested loops inline: a worker that blocked on sub-tasks queued
  /// behind other blocked workers would deadlock the pool.
  static bool in_worker() noexcept;

 private:
  // One cache line per worker; each cell has a single writer (its worker),
  // so relaxed load+store increments are race-free.
  struct alignas(64) WorkerCell {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<double> busy_us{0.0};
  };

  // Busy accounting and the "pool" span of one task, run by its worker
  // around the task. task_begin() reads the clock only while a recorder or
  // accounting is attached (nullopt otherwise: two relaxed loads, no clock
  // read); task_end() books the task into the worker's cell and span.
  std::optional<obs::TraceRecorder::Clock::time_point> task_begin()
      const noexcept;
  void task_end(std::optional<obs::TraceRecorder::Clock::time_point> begin);

  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerCell[]> cells_;
  std::atomic<obs::TraceRecorder*> trace_{nullptr};
  std::atomic<bool> accounting_{false};
  obs::TraceRecorder::Clock::time_point start_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace middlefl::parallel
