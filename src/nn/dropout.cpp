#include "nn/dropout.hpp"

#include <stdexcept>

namespace middlefl::nn {

Dropout::Dropout(float p) : p_(p) {
  if (p < 0.0f || p >= 1.0f) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

std::string Dropout::name() const {
  return "Dropout(p=" + std::to_string(p_) + ")";
}

void Dropout::forward(const Tensor& input, Tensor& output, bool training) {
  output = input;
  if (!training || p_ == 0.0f) {
    cached_numel_ = 0;
    return;
  }
  if (rng_ == nullptr) {
    throw std::logic_error("Dropout: no RNG wired (layer used outside a Sequential?)");
  }
  const float keep_scale = 1.0f / (1.0f - p_);
  scale_mask_.resize(input.numel());
  cached_numel_ = input.numel();
  auto out = output.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool keep = rng_->uniform_float() >= p_;
    scale_mask_[i] = keep ? keep_scale : 0.0f;
    out[i] *= scale_mask_[i];
  }
}

void Dropout::backward(const Tensor& input, const Tensor& grad_output,
                       Tensor* grad_input) {
  if (grad_input == nullptr) return;
  *grad_input = grad_output;
  if (cached_numel_ == 0) return;  // forward ran in eval mode or p == 0
  if (cached_numel_ != input.numel()) {
    throw std::logic_error("Dropout::backward: no cached forward state");
  }
  auto dx = grad_input->data();
  for (std::size_t i = 0; i < dx.size(); ++i) {
    dx[i] *= scale_mask_[i];
  }
}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(p_);
}

}  // namespace middlefl::nn
