// The benchmark's four workloads (see README.md for why each exists).
//
// Every workload builds its inputs from the seed, times its set-up several
// times, then runs an untraced pass that yields the end-to-end metrics.
// With `trace` set it also runs a shorter traced pass on a fresh
// simulation wrapped in the probes.hpp decorators, which yields the
// per-layer metrics and must reproduce the untraced cloud-model hash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "report.hpp"

namespace middlefl::bench::suite {

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget of the untraced pass.
  double seconds = 15.0;
  bool trace = false;
  /// Tiny sizes for the ctest smoke run.
  bool smoke = false;
  /// Where the traced pass writes its Chrome trace (empty = not written).
  std::string trace_out;
  parallel::ThreadPool* pool = nullptr;
};

const std::vector<std::string>& workload_names();

/// Runs `ctx.workload` into `report`. Throws std::invalid_argument for an
/// unknown workload name.
void run_workload(const Context& ctx, Report& report);

}  // namespace middlefl::bench::suite
