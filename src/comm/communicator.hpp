// The simulator's one collective: a weighted average of flat parameter
// vectors. The paper's two aggregations are both this average — each edge
// over its device uploads (Eq. 6, EdgeAggregate) and the cloud over edge
// contributions (Eq. 7, CloudSync) — and both call all_reduce().
//
// Arithmetic: weights are normalized once (w_k / sum w), then every
// element is accumulated in double in canonical contribution order
// (k = 0 .. P-1) and rounded to float. Outputs larger than one 8192-element
// block are split into blocks over parallel_for; each block runs the full
// contribution-order sum for its own elements, so the split changes only
// which thread computes an element, never its sum order, and the result is
// bitwise identical to the serial loop at any pool size (pinned by
// CommReducer and CommPipeline in tests/comm_test.cpp). A multi-process
// backend would need its own interface; it is not part of this one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

namespace middlefl::obs {
class TraceRecorder;
}

namespace middlefl::parallel {
class ThreadPool;
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

/// One contribution to a weighted average: a flat parameter vector and its
/// aggregation weight (data-sample count d_m at the edge,
/// participating-sample count d_hat_n at the cloud).
struct Contribution {
  std::span<const float> params;
  double weight = 0.0;
};

/// Elements per parallel block. Per-element sums are independent and each
/// runs in contribution order, so the block size only affects scheduling,
/// never the result.
inline constexpr std::size_t kReduceBlock = std::size_t{1} << 13;

/// Reduction count; exact at serial points (in-chain reduces bump it
/// through a relaxed atomic, which commutes).
struct CommCounters {
  std::uint64_t reduces = 0;  // all_reduce calls completed
};

class InProcessCommunicator {
 public:
  /// `pool` may be null (fully serial). Non-owning; must outlive this.
  explicit InProcessCommunicator(parallel::ThreadPool* pool) : pool_(pool) {}

  /// out = sum_k weight_k * params_k / sum_k weight_k, accumulated in
  /// double per element in contribution order. Throws
  /// std::invalid_argument on empty input, a size mismatch, a negative
  /// weight or all-zero weights. The double accumulator comes from the
  /// thread-local Workspace, so steady-state calls allocate nothing.
  void all_reduce(std::span<const Contribution> contribs,
                  std::span<float> out);

  CommCounters counters() const noexcept {
    return CommCounters{reduces_.load(std::memory_order_relaxed)};
  }

  /// Attaches a span recorder: reduces called at serial points (not from
  /// inside a pool worker) become "comm.reduce" spans. In-chain reduces
  /// skip the clock reads, so observed runs stay bit-identical to bare
  /// ones. nullptr detaches.
  void set_trace(obs::TraceRecorder* trace) noexcept { trace_ = trace; }

 private:
  parallel::ThreadPool* pool_;
  obs::TraceRecorder* trace_ = nullptr;
  std::atomic<std::uint64_t> reduces_{0};
};

}  // namespace middlefl::comm
