#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

namespace middlefl::nn {

void ReLU::forward(const Tensor& input, Tensor& output, bool training) {
  output.reset_for_overwrite(input.shape());
  const auto in = input.data();
  auto out = output.data();
  if (training) {
    if (mask_.size() < in.size()) mask_.resize(in.size());
    cached_numel_ = in.size();
    for (std::size_t i = 0; i < in.size(); ++i) {
      const bool positive = in[i] > 0.0f;
      mask_[i] = positive ? 1 : 0;
      out[i] = positive ? in[i] : 0.0f;
    }
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    }
  }
}

void ReLU::backward(const Tensor& input, const Tensor& grad_output,
                    Tensor* grad_input) {
  // Validate and shape against grad_output, not `input`: under epilogue
  // fusion the preceding layer wrote this ReLU's output (and mask)
  // directly, so the activation slot holding our nominal input was never
  // filled this step. grad_output always has the activation's shape.
  static_cast<void>(input);
  if (grad_input == nullptr) return;
  if (cached_numel_ != grad_output.numel()) {
    throw std::logic_error("ReLU::backward: no cached forward state");
  }
  grad_input->reset_for_overwrite(grad_output.shape());
  const auto dy = grad_output.data();
  auto dx = grad_input->data();
  for (std::size_t i = 0; i < dx.size(); ++i) {
    dx[i] = mask_[i] != 0 ? dy[i] : 0.0f;
  }
}

void Tanh::forward(const Tensor& input, Tensor& output, bool training) {
  output.reset_for_overwrite(input.shape());
  const auto in = input.data();
  auto out = output.data();
  if (training) {
    // Cache tanh(x) for backward while writing the output — one pass,
    // into a high-water buffer (assign() reallocated every forward).
    if (output_.size() < in.size()) output_.resize(in.size());
    cached_numel_ = in.size();
    for (std::size_t i = 0; i < in.size(); ++i) {
      const float t = std::tanh(in[i]);
      out[i] = t;
      output_[i] = t;
    }
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = std::tanh(in[i]);
    }
  }
}

void Tanh::backward(const Tensor& input, const Tensor& grad_output,
                    Tensor* grad_input) {
  if (grad_input == nullptr) return;
  if (cached_numel_ != input.numel()) {
    throw std::logic_error("Tanh::backward: no cached forward state");
  }
  grad_input->reset_for_overwrite(input.shape());
  const auto dy = grad_output.data();
  auto dx = grad_input->data();
  for (std::size_t i = 0; i < dx.size(); ++i) {
    dx[i] = dy[i] * (1.0f - output_[i] * output_[i]);
  }
}

}  // namespace middlefl::nn
