#include "optim/adam.hpp"

#include <cmath>
#include <stdexcept>

namespace middlefl::optim {

Adam::Adam(AdamConfig config) : cfg_(config) {
  if (cfg_.learning_rate <= 0.0) {
    throw std::invalid_argument("Adam: learning_rate must be positive");
  }
  if (cfg_.beta1 < 0.0 || cfg_.beta1 >= 1.0 || cfg_.beta2 < 0.0 ||
      cfg_.beta2 >= 1.0) {
    throw std::invalid_argument("Adam: betas must be in [0, 1)");
  }
  if (cfg_.epsilon <= 0.0) {
    throw std::invalid_argument("Adam: epsilon must be positive");
  }
}

void Adam::step(std::span<float> params, std::span<const float> grads) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Adam::step: size mismatch");
  }
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0f);
    v_.assign(params.size(), 0.0f);
    t_ = 0;
  }
  ++t_;
  const auto b1 = static_cast<float>(cfg_.beta1);
  const auto b2 = static_cast<float>(cfg_.beta2);
  const auto eps = static_cast<float>(cfg_.epsilon);
  const auto wd = static_cast<float>(cfg_.weight_decay);
  const double bias1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  const auto alpha =
      static_cast<float>(cfg_.learning_rate * std::sqrt(bias2) / bias1);

  // This TU builds with -fno-math-errno (src/optim/CMakeLists.txt), so the
  // loop vectorises with the scalar loop's bits.
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float g = grads[i] + wd * params[i];
    m_[i] = b1 * m_[i] + (1.0f - b1) * g;
    v_[i] = b2 * v_[i] + (1.0f - b2) * g * g;
    params[i] -= alpha * m_[i] / (std::sqrt(v_[i]) + eps);
  }
}

void Adam::reset() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

std::unique_ptr<Optimizer> Adam::clone_config() const {
  return std::make_unique<Adam>(cfg_);
}

}  // namespace middlefl::optim
