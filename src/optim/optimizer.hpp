// First-order optimizers over flat parameter vectors.
//
// Optimizers operate on the (parameters, gradients) spans exposed by
// nn::Sequential. State (momentum buffers, Adam moments) is keyed to the
// vector length only, so one optimizer instance can be reset and reattached
// when a device downloads a fresh model — which is exactly what a federated
// round does.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace middlefl::optim {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  virtual std::string name() const = 0;

  /// Applies one update: params -= f(grads). Both spans must keep the same
  /// length across calls until reset().
  virtual void step(std::span<float> params, std::span<const float> grads) = 0;

  /// Clears internal state (momentum/moments, step counter). Called when a
  /// device re-initializes local training from a downloaded model.
  virtual void reset() = 0;

  virtual double learning_rate() const noexcept = 0;
  virtual void set_learning_rate(double lr) noexcept = 0;

  /// Fresh instance with the same hyperparameters and empty state.
  virtual std::unique_ptr<Optimizer> clone_config() const = 0;

  /// Only bench/suite's TimedOptimizer forwarding references these two.
  virtual void save_state(std::vector<float>& out) const { out.clear(); }
  virtual void load_state(std::span<const float> state) {
    static_cast<void>(state);
    reset();
  }
};

/// Factory signature used by the FL simulator to equip every device with an
/// identically-configured optimizer.
using OptimizerFactory = std::unique_ptr<Optimizer> (*)();

}  // namespace middlefl::optim
