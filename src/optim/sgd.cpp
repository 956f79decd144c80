#include "optim/sgd.hpp"

#include <stdexcept>

namespace middlefl::optim {

Sgd::Sgd(SgdConfig config) : cfg_(config) {
  if (cfg_.learning_rate <= 0.0) {
    throw std::invalid_argument("Sgd: learning_rate must be positive");
  }
  if (cfg_.momentum < 0.0 || cfg_.momentum >= 1.0) {
    throw std::invalid_argument("Sgd: momentum must be in [0, 1)");
  }
  if (cfg_.weight_decay < 0.0) {
    throw std::invalid_argument("Sgd: weight_decay must be non-negative");
  }
}

void Sgd::step(std::span<float> params, std::span<const float> grads) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Sgd::step: size mismatch");
  }
  const auto lr = static_cast<float>(cfg_.learning_rate);
  const auto mu = static_cast<float>(cfg_.momentum);
  const auto wd = static_cast<float>(cfg_.weight_decay);

  if (mu == 0.0f) {
    if (wd == 0.0f) {
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i] -= lr * grads[i];
      }
    } else {
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i] -= lr * (grads[i] + wd * params[i]);
      }
    }
    return;
  }

  if (velocity_.size() != params.size()) {
    velocity_.assign(params.size(), 0.0f);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float g = grads[i] + wd * params[i];
    velocity_[i] = mu * velocity_[i] + g;
    params[i] -= lr * velocity_[i];
  }
}

void Sgd::reset() { velocity_.clear(); }

std::unique_ptr<Optimizer> Sgd::clone_config() const {
  return std::make_unique<Sgd>(cfg_);
}

}  // namespace middlefl::optim
