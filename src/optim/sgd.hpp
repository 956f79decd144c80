// Stochastic gradient descent with classical momentum and optional weight
// decay: v = mu*v + g + wd*w ; w -= lr * v.
#pragma once

#include <vector>

#include "optim/optimizer.hpp"

namespace middlefl::optim {

struct SgdConfig {
  double learning_rate = 0.01;
  double momentum = 0.0;
  double weight_decay = 0.0;
};

class Sgd final : public Optimizer {
 public:
  explicit Sgd(SgdConfig config);

  std::string name() const override { return "SGD"; }
  void step(std::span<float> params, std::span<const float> grads) override;
  void reset() override;
  double learning_rate() const noexcept override { return cfg_.learning_rate; }
  void set_learning_rate(double lr) noexcept override {
    cfg_.learning_rate = lr;
  }
  std::unique_ptr<Optimizer> clone_config() const override;

  const SgdConfig& config() const noexcept { return cfg_; }

 private:
  SgdConfig cfg_;
  std::vector<float> velocity_;
};

}  // namespace middlefl::optim
