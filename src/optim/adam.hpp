// Adam (Kingma & Ba, 2015) with bias correction; used by the paper for the
// SpeechCommands task (lr 1e-3).
#pragma once

#include <vector>

#include "optim/optimizer.hpp"

namespace middlefl::optim {

struct AdamConfig {
  double learning_rate = 0.001;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;
};

class Adam final : public Optimizer {
 public:
  explicit Adam(AdamConfig config);

  std::string name() const override { return "Adam"; }
  void step(std::span<float> params, std::span<const float> grads) override;
  void reset() override;
  double learning_rate() const noexcept override { return cfg_.learning_rate; }
  void set_learning_rate(double lr) noexcept override {
    cfg_.learning_rate = lr;
  }
  std::unique_ptr<Optimizer> clone_config() const override;

  const AdamConfig& config() const noexcept { return cfg_; }
  std::size_t step_count() const noexcept { return t_; }

 private:
  AdamConfig cfg_;
  std::vector<float> m_;
  std::vector<float> v_;
  std::size_t t_ = 0;
};

}  // namespace middlefl::optim
