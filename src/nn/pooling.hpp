// 2 x 2, stride-2 max pooling over NCHW batches: the pool CNN-2 and CNN-3
// build. Forward and backward run in the per-ISA kernel table
// (tensor/kernels/gemm_kernel.hpp, max_pool2x2*), which splits a window
// row pair into even and odd columns with permutes and takes the running
// max down the taps in (ky, kx) order with strict `>` selects: the first
// maximum wins ties, and NaN behaves as in a compare-and-branch loop. A
// training forward keeps one tap code per output for the backward.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"

namespace middlefl::nn {

class MaxPool2d final : public Layer {
 public:
  std::string name() const override { return "MaxPool2d(k=2, s=2)"; }
  /// Output planes are (H / 2) x (W / 2); an odd last row or column is
  /// never read and gets a zero gradient.
  Shape build(const Shape& input_shape) override;
  void forward(const Tensor& input, Tensor& output, bool training) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>();
  }

  /// backward() with the backward of a ReLU right before this pool folded
  /// in: writes the ReLU input's gradient, (pooled > 0) ? 0.0f + dy : +0.0
  /// at each window's max and +0.0 elsewhere. `input` and `output` are
  /// this pool's input (the ReLU's output) and output of the last training
  /// forward. Bitwise equal to backward() then ReLU::backward: the ReLU's
  /// mask is `x > 0` of its input, and the pooled value is the ReLU's
  /// output there. Sequential runs it in place of the pair.
  void backward_relu(const Tensor& input, const Tensor& output,
                     const Tensor& grad_output, Tensor* grad_input);

 private:
  void check_cached(std::size_t batch, const char* where) const;

  std::size_t channels_ = 0, in_h_ = 0, in_w_ = 0, out_h_ = 0, out_w_ = 0;
  // Tap code 2 * ky + kx of each output's max, for the whole last training
  // batch, plus the kernels' slack; routes gradients in backward.
  std::vector<std::uint8_t> taps_;
  std::size_t cached_batch_ = 0;
};

}  // namespace middlefl::nn
