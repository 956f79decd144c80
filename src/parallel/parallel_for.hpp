// The one blocking fork-join of the library: parallel_for over an index
// range.
//
// A null pool, a pool of one worker, or a call from inside a pool worker
// runs the body inline in index order (a worker that blocked on sub-tasks
// queued behind other blocked workers would deadlock the pool). Otherwise
// at most pool->size() tasks are submitted; each claims the next index
// from a shared atomic cursor until the range is exhausted, and the caller
// only waits. Claiming one index at a time keeps a slow index from holding
// back the ones after it, which matters when the indices are a handful of
// coarse units (the per-edge chains of a step).
//
// Determinism rule: the body must write only to disjoint per-index state;
// which worker runs an index is never observable. The first exception
// thrown by a task is rethrown on the calling thread after every task has
// finished; a task that throws claims no further indices.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace middlefl::parallel {

template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  Body&& body) {
  if (begin >= end) return;
  if (pool == nullptr || pool->size() <= 1 || ThreadPool::in_worker()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> cursor{begin};
  const auto drain = [&cursor, end, &body] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < end; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  const std::size_t tasks = std::min(pool->size(), end - begin);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t k = 0; k < tasks; ++k) {
    futures.push_back(pool->submit(drain));
  }

  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace middlefl::parallel
