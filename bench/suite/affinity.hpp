// CPU pinning for the benchmark's threads (Linux; no-ops elsewhere).
//
// Left to the scheduler, the placement of the main thread and the pool
// workers on a two-vCPU guest settles per process into a fast or a slow
// pattern (Fig-6 steps/s of about 530 or 300 for the same seed), so
// unpinned runs measure the placement more than the code. The benchmark
// pins pool worker i to CPU i and the main thread to CPU 0, where it
// alternates with worker 0: the main thread runs the serial parts of a
// step while the workers wait, and waits while they run the edge chains.
#pragma once

#include <cstddef>

#include "parallel/thread_pool.hpp"

namespace middlefl::bench::suite {

/// Pins pool worker i to CPU i mod `cpus` and the calling thread to CPU 0.
void pin_threads(parallel::ThreadPool& pool, std::size_t cpus);

/// Lets the calling thread run on every CPU again (threads inherit their
/// creator's mask; the load generator must not queue behind CPU 0).
void unpin_this_thread();

}  // namespace middlefl::bench::suite
