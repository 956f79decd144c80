#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using middlefl::parallel::parallel_for;
using middlefl::parallel::ThreadPool;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(&pool, 0, kN,
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(&pool, 5, 5, [&calls](std::size_t) { ++calls; });
  parallel_for(&pool, 7, 3, [&calls](std::size_t) { ++calls; });
  parallel_for(nullptr, 7, 3, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(2);
  std::vector<int> hits(10, 0);
  parallel_for(&pool, 3, 8, [&hits](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(hits[i], (i >= 3 && i < 8) ? 1 : 0);
  }
}

TEST(ParallelFor, MatchesSerialSum) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<long long> out(kN);
  parallel_for(&pool, 0, kN, [&out](std::size_t i) {
    out[i] = static_cast<long long>(i) * i;
  });
  long long sum = std::accumulate(out.begin(), out.end(), 0LL);
  long long expected = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    expected += static_cast<long long>(i) * i;
  }
  EXPECT_EQ(sum, expected);
}

TEST(ParallelFor, RethrowsBodyException) {
  for (const std::size_t threads : {1u, 2u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(parallel_for(&pool, 0, 100,
                              [](std::size_t i) {
                                if (i == 57) throw std::runtime_error("body");
                              }),
                 std::runtime_error)
        << threads << " threads";
  }
}

TEST(ParallelFor, SerialFallbackRunsInIndexOrder) {
  // A null pool runs the body inline on the calling thread, in index order.
  std::vector<std::size_t> order;
  parallel_for(nullptr, 2, 9, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 7u);
  for (std::size_t k = 0; k < order.size(); ++k) EXPECT_EQ(order[k], k + 2);

  // So does a call from inside a worker: blocking the worker on sub-tasks
  // queued behind it would deadlock a small pool.
  ThreadPool pool(2);
  std::vector<std::size_t> nested;
  std::thread::id outer_thread;
  bool same_thread = true;
  pool.submit([&] {
        outer_thread = std::this_thread::get_id();
        parallel_for(&pool, 0, 64, [&](std::size_t i) {
          nested.push_back(i);
          same_thread =
              same_thread && std::this_thread::get_id() == outer_thread;
        });
      })
      .get();
  EXPECT_TRUE(same_thread);
  ASSERT_EQ(nested.size(), 64u);
  for (std::size_t k = 0; k < nested.size(); ++k) EXPECT_EQ(nested[k], k);
}

TEST(ParallelFor, SlowIndexDoesNotHoldBackOthers) {
  // Index 0 blocks until indices 1..9 have all run. With one index claimed
  // at a time, the second worker drains 1..9 while the first waits; a
  // split into fixed multi-index chunks would queue index 1 behind index 0
  // and time out.
  ThreadPool pool(2);
  constexpr std::size_t kN = 10;
  std::mutex mutex;
  std::condition_variable others_done;
  std::size_t done = 0;
  bool timed_out = false;
  parallel_for(&pool, 0, kN, [&](std::size_t i) {
    std::unique_lock lock(mutex);
    if (i != 0) {
      if (++done == kN - 1) others_done.notify_all();
      return;
    }
    timed_out = !others_done.wait_for(lock, std::chrono::seconds(5),
                                      [&] { return done == kN - 1; });
  });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(done, kN - 1);
}

TEST(ParallelFor, PoolSpansAreRecordedBeforeItReturns) {
  // A pool task records its busy time and span inside the task, before
  // its future is ready: once parallel_for returns, every span is in the
  // recorder and the recorder may be destroyed at once (observability
  // teardown does exactly that).
  ThreadPool pool(2);
  pool.set_accounting(true);
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    auto trace = std::make_unique<middlefl::obs::TraceRecorder>();
    pool.set_trace(trace.get());
    parallel_for(&pool, 0, 2, [](std::size_t) {});
    pool.set_trace(nullptr);
    EXPECT_EQ(trace->event_count(), 2u) << "round " << round;
  }
  std::uint64_t tasks = 0;
  for (const auto& worker : pool.worker_stats()) tasks += worker.tasks;
  EXPECT_EQ(tasks, 2u * kRounds);
}

TEST(ParallelFor, GlobalPoolOverloadWorks) {
  // The process-wide pool is passed like any other.
  std::atomic<int> counter{0};
  parallel_for(&ThreadPool::global(), 0, 100,
               [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
