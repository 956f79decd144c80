// Pointwise activation layers.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"

namespace middlefl::nn {

class ReLU final : public Layer {
 public:
  std::string name() const override { return "ReLU"; }
  Shape build(const Shape& input_shape) override { return input_shape; }
  void forward(const Tensor& input, Tensor& output, bool training) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>();
  }

  /// Fused-forward hook: when Sequential fuses this ReLU into the
  /// preceding Linear/Conv2d GEMM epilogue, the producing layer writes the
  /// activation mask straight into this buffer (1 where the pre-activation
  /// was positive) instead of ReLU::forward running at all. backward()
  /// then works exactly as if forward had filled the mask itself. When a
  /// MaxPool2d follows, Sequential runs neither: the pool folds this
  /// backward into its own (MaxPool2d::backward_relu).
  std::uint8_t* fused_mask(std::size_t numel) {
    if (mask_.size() < numel) mask_.resize(numel);
    cached_numel_ = numel;
    return mask_.data();
  }

 private:
  // One byte per element of the last training batch: was the input
  // positive. Bytes, not vector<bool> — bit addressing serializes the
  // forward/backward loops that otherwise vectorize.
  std::vector<std::uint8_t> mask_;
  std::size_t cached_numel_ = 0;
};

class Tanh final : public Layer {
 public:
  std::string name() const override { return "Tanh"; }
  Shape build(const Shape& input_shape) override { return input_shape; }
  void forward(const Tensor& input, Tensor& output, bool training) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Tanh>();
  }

 private:
  // tanh(x) of the last training batch; dtanh = 1 - tanh^2. Grows to a
  // high-water mark like ReLU's mask (no per-forward reallocation).
  std::vector<float> output_;
  std::size_t cached_numel_ = 0;
};

}  // namespace middlefl::nn
