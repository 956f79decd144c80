// Step timing from outside the simulator, the traced pass's per-layer
// collection, and isolated calls into the compute layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_recorder.hpp"
#include "parallel/thread_pool.hpp"
#include "probes.hpp"
#include "report.hpp"

namespace middlefl::bench::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// FNV-1a over the bytes of a parameter vector: the bitwise fingerprint
/// the determinism checks compare.
std::uint64_t params_hash(std::span<const float> params);

/// Times Simulation::step() from outside, split by its return value: a
/// step that returned true ran a cloud synchronization.
class StepLog {
 public:
  virtual ~StepLog() = default;
  StepLog() = default;
  StepLog(const StepLog&) = delete;
  StepLog& operator=(const StepLog&) = delete;

  virtual bool step(core::Simulation& sim);

  std::size_t steps() const noexcept {
    return plain_ms_.size() + sync_ms_.size();
  }
  double busy_s() const noexcept { return busy_s_; }
  const std::vector<double>& plain_ms() const noexcept { return plain_ms_; }
  const std::vector<double>& sync_ms() const noexcept { return sync_ms_; }

 protected:
  /// Runs and times one step; returns {synced, wall microseconds}.
  std::pair<bool, double> timed_step(core::Simulation& sim);

 private:
  std::vector<double> plain_ms_;
  std::vector<double> sync_ms_;
  double busy_s_ = 0.0;
};

/// Lower/upper limits of obs.coverage, the share of step wall time the
/// simulator's own phase timers account for (chain phases divided by the
/// pool size). Measured on the four workloads with a two-worker pool;
/// outside the band the phase breakdown no longer explains the step.
inline constexpr double kCoverageLow = 0.6;
inline constexpr double kCoverageHigh = 1.2;

/// The traced pass: span recorder, metrics registry and decorator tallies,
/// attached to one simulation and the shared pool for the pass, plus the
/// per-step phase breakdown Simulation::last_step_phase_us() reports while
/// observed. Spans stay in memory until write_trace().
class TracedPass final : public StepLog {
 public:
  explicit TracedPass(parallel::ThreadPool& pool);
  ~TracedPass() override;

  Probes& probes() noexcept { return probes_; }
  obs::TraceRecorder& trace() noexcept { return trace_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Attaches recorders to `sim` and the pool and snapshots the counters
  /// the per-step rates are taken from.
  void begin(core::Simulation& sim);
  bool step(core::Simulation& sim) override;
  /// Snapshots the closing counters and detaches the pool recorders.
  void end(core::Simulation& sim);

  /// Per-layer metrics of the pass. `untraced_step_ms` (mean wall per step
  /// of the untraced pass) gives obs.trace_overhead.
  void emit(Report& report, double untraced_step_ms) const;

  void write_trace(const std::string& path) const;

 private:
  struct Counters {
    std::vector<transport::Transport::LinkReport> links;
    std::uint64_t materializations = 0;
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::vector<parallel::ThreadPool::WorkerStats> workers;
    double uptime_us = 0.0;
    comm::AsyncStats async;
  };
  Counters snapshot(const core::Simulation& sim) const;

  parallel::ThreadPool& pool_;
  obs::TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  Probes probes_;
  Counters first_;
  Counters last_;
  core::Simulation::StepPhaseUs phase_sum_;
  std::vector<double> coverage_;
  std::size_t resident_peak_ = 0;
};

/// Times isolated calls on a workload's own shapes: Sequential::forward and
/// backward on one training batch, tensor::gemm at the first Linear layer's
/// forward (batch x input -> hidden) and weight-gradient shapes,
/// InProcessCommunicator::all_reduce over `contributions` models, and the
/// q8 encode_delta of one model.
void time_compute_layers(const nn::ModelSpec& spec, std::size_t batch,
                         std::size_t contributions,
                         parallel::ThreadPool* pool, std::uint64_t seed,
                         obs::TraceRecorder* trace, Report& report);

}  // namespace middlefl::bench::suite
