// Observer hooks for the staged simulation step pipeline.
//
// Simulation::step() runs six named phases —
//
//   Select -> Distribute -> LocalTrain -> Upload -> EdgeAggregate
//          -> CloudSync
//
// — and emits events to registered StepObservers at the serial boundary
// after each phase. Metrics and tests subscribe here instead of reading
// counters off the Simulation object. The on_transfers deltas sum exactly
// to the transport's per-link counters (the ledger behind
// Simulation::comm_stats()), which pipeline_test pins like for like.
//
// Callbacks run on the simulation thread, outside any parallel region, in
// registration order. Observers must not mutate the simulation; throwing
// from a callback aborts the step. Because events never fire from inside
// parallel loops, an observer needs no synchronization of its own, and
// observing cannot perturb the run (pinned by pipeline_test).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "transport/link.hpp"

namespace middlefl::core {

enum class StepPhase {
  kSelect,         // in-edge device selection (Algorithm 1, line 2)
  kDistribute,     // edge -> device downloads + on-device carry blends
  kLocalTrain,     // I local SGD steps on every participating device
  kUpload,         // device -> edge uploads through the wireless uplink
  kEdgeAggregate,  // per-edge FedAvg over arrived uploads (Eq. 6)
  kCloudSync,      // edge -> cloud -> everyone, every T_c steps (Eq. 7)
};

std::string to_string(StepPhase phase);

class StepObserver {
 public:
  virtual ~StepObserver() = default;

  /// Step t has begun; mobility has already advanced.
  virtual void on_step_begin(std::size_t step) { (void)step; }

  /// `phase` finished for step t. Fires for kCloudSync only on sync steps.
  virtual void on_phase(StepPhase phase, std::size_t step) {
    (void)phase;
    (void)step;
  }

  /// Traffic `delta` moved over `kind` during `phase` (one event per
  /// (phase, link) pair with nonzero attempts).
  virtual void on_transfers(StepPhase phase, transport::LinkKind kind,
                            const transport::LinkStats& delta,
                            std::size_t step) {
    (void)phase;
    (void)kind;
    (void)delta;
    (void)step;
  }

  /// Devices selected this step, grouped by edge (valid for the callback's
  /// duration only).
  virtual void on_selection(
      std::size_t step,
      const std::vector<std::vector<std::size_t>>& selection) {
    (void)step;
    (void)selection;
  }

  /// Selected devices dropped this step: stragglers that missed the round
  /// deadline, and devices whose model download was lost.
  virtual void on_dropouts(std::size_t step, std::size_t stragglers,
                           std::size_t lost_downloads) {
    (void)step;
    (void)stragglers;
    (void)lost_downloads;
  }

  /// On-device aggregations applied this step and the blend weight they
  /// gave the carried model in total.
  virtual void on_blends(std::size_t step, std::size_t count,
                         double weight_sum) {
    (void)step;
    (void)count;
    (void)weight_sum;
  }

  /// A cloud synchronization aggregated `contributing_edges` edge models
  /// (0 = every WAN upload was lost or still in flight: global unchanged).
  virtual void on_cloud_sync(std::size_t step,
                             std::size_t contributing_edges) {
    (void)step;
    (void)contributing_edges;
  }

  /// Step t finished; `synced` mirrors Simulation::step()'s return.
  virtual void on_step_end(std::size_t step, bool synced) {
    (void)step;
    (void)synced;
  }

  /// An evaluation point was just appended to the run history.
  virtual void on_evaluation(const EvalPoint& point) { (void)point; }
};

}  // namespace middlefl::core
