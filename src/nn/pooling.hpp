// 2-D max and average pooling over NCHW batches. MaxPool2d lowers a group
// of planes like im2col (every window's tap t in row t of a workspace
// buffer) and takes the running max down the taps with selects rather than
// branches: random activations make a compare branch mispredict about half
// the time, and the select loop runs contiguous over the group's windows.
// A strict `>` in (ky, kx) window order keeps the first maximum on ties and
// leaves NaN behaviour as a compare-and-branch loop has it.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"

namespace middlefl::nn {

class MaxPool2d final : public Layer {
 public:
  /// Square window; `stride == 0` means stride = kernel (non-overlapping).
  explicit MaxPool2d(std::size_t kernel, std::size_t stride = 0);

  std::string name() const override;
  Shape build(const Shape& input_shape) override;
  void forward(const Tensor& input, Tensor& output, bool training) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t channels_ = 0, in_h_ = 0, in_w_ = 0, out_h_ = 0, out_w_ = 0;
  // Windows pooled per loop: planes are taken group_ at a time, about
  // kGroupOutputs windows per group.
  static constexpr std::size_t kGroupOutputs = 1024;
  std::size_t group_ = 1;
  // Index within its group of input planes of each group window's first
  // tap, for one group.
  std::vector<std::uint32_t> window_origin_;
  // Index within its group of input planes of each output's max, for the
  // whole last training batch; routes gradients in backward. build()
  // rejects planes too large for 32 bits and caps group_ to fit.
  std::vector<std::uint32_t> argmax_;
  std::size_t cached_batch_ = 0;
};

/// 2-D average pooling (non-overlapping by default); no argmax state —
/// backward distributes the gradient uniformly over each window.
class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::size_t kernel, std::size_t stride = 0);

  std::string name() const override;
  Shape build(const Shape& input_shape) override;
  void forward(const Tensor& input, Tensor& output, bool training) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t channels_ = 0, in_h_ = 0, in_w_ = 0, out_h_ = 0, out_w_ = 0;
};

}  // namespace middlefl::nn
