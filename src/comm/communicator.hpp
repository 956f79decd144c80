// The collectives seam of the simulator (ROADMAP: collective-communication
// backend). Every aggregation in the pipeline — each edge over its device
// uploads (EdgeAggregate) and the cloud over edge contributions
// (CloudSync) — flows through one Communicator, so the reduction schedule,
// its counters and the future multi-process transport all live behind a
// single interface instead of bespoke loops per call site.
//
// The in-process backend runs comm::Reducer's deterministic element-block
// tree on the shared pool: bitwise identical to the historical serial
// fixed-order loops at any thread count (see reducer.hpp for why the tree
// is built over element blocks, not participants). A socket/shared-memory
// backend slots in behind the same virtual interface; such a backend would
// reduce participant-space for real and therefore NOT be bitwise
// comparable to in-process runs — the determinism contract is per backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

#include "comm/reducer.hpp"

namespace middlefl::obs {
class TraceRecorder;
}

namespace middlefl::comm {

/// SimulationConfig::comm — the collectives/async knobs of one run.
struct CommConfig {
  /// Semi-async cloud sync: the cloud applies bounded-stale edge
  /// contributions on arrival, every step. False = the synchronous
  /// CloudSync every T_c steps, each arrival at full weight (bitwise
  /// unchanged). Both modes share the mailbox hand-off and apply point.
  bool async_cloud = false;
  /// Staleness bound in cloud rounds: a contribution sent in round r is
  /// applied while round_now - r <= max_staleness (discounted by
  /// 1/(1 + staleness)) and counted + folded into the edge's next
  /// contribution past the bound. 0 = only same-round contributions apply,
  /// which with zero-latency links degenerates to synchronous FedAvg.
  std::size_t max_staleness = 1;
};

/// Monotonic reduction counters; exact at serial points (in-chain reduces
/// bump them through relaxed atomics, which commute).
struct CommCounters {
  std::uint64_t reduces = 0;       // reduce/all_reduce calls completed
  std::uint64_t reduce_tasks = 0;  // tree tasks scheduled (leaves + joins)
  std::uint64_t max_depth = 0;     // deepest reduction tree executed
  std::uint64_t broadcasts = 0;    // broadcast() calls
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  /// Backend identifier ("in_process" today).
  virtual std::string_view backend() const noexcept = 0;

  /// out = weighted average of `contribs` in canonical contribution order
  /// (double accumulation per element). Throws std::invalid_argument on
  /// empty/mismatched/negative/all-zero inputs.
  virtual void reduce(std::span<const Contribution> contribs,
                      std::span<float> out) = 0;

  /// reduce + make the result visible to every rank. In process, every
  /// rank shares `out` already, so this is reduce(); a multi-process
  /// backend adds the redistribution round.
  virtual void all_reduce(std::span<const Contribution> contribs,
                          std::span<float> out) = 0;

  /// Copies `root` into `dst` (no-op when they alias). The wire-level
  /// broadcast to edges/devices stays on transport::Link — this collective
  /// exists for rank-local fan-out in future multi-process backends.
  virtual void broadcast(std::span<const float> root,
                         std::span<float> dst) = 0;

  virtual CommCounters counters() const noexcept = 0;
};

/// Single-process backend over the shared thread pool.
class InProcessCommunicator final : public Communicator {
 public:
  /// `pool` may be null (fully serial). Non-owning; must outlive this.
  explicit InProcessCommunicator(parallel::ThreadPool* pool) : pool_(pool) {}

  std::string_view backend() const noexcept override { return "in_process"; }
  void reduce(std::span<const Contribution> contribs,
              std::span<float> out) override;
  void all_reduce(std::span<const Contribution> contribs,
                  std::span<float> out) override;
  void broadcast(std::span<const float> root, std::span<float> dst) override;
  CommCounters counters() const noexcept override;

  /// Attaches a span recorder: serial-point reduces become "comm.reduce"
  /// spans (tree depth as argument) and the tree's tasks get "sched"
  /// spans. In-chain reduces skip the clock reads, so observed runs stay
  /// bit-identical to bare ones. nullptr detaches.
  void set_trace(obs::TraceRecorder* trace) noexcept {
    trace_ = trace;
    reducer_.set_trace(trace);
  }

 private:
  parallel::ThreadPool* pool_;
  Reducer reducer_;  // tree graph; only touched at serial points
  obs::TraceRecorder* trace_ = nullptr;
  std::atomic<std::uint64_t> reduces_{0};
  std::atomic<std::uint64_t> reduce_tasks_{0};
  std::atomic<std::uint64_t> max_depth_{0};
  std::atomic<std::uint64_t> broadcasts_{0};
};

}  // namespace middlefl::comm
