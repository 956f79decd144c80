// Fully connected layer: y = x W^T + b.
#pragma once

#include "nn/module.hpp"

namespace middlefl::nn {

class ReLU;

class Linear final : public Layer {
 public:
  /// `in_features == 0` means "infer from the input shape at build time"
  /// (the product of all per-sample dimensions), which lets model factories
  /// stack Linear directly after Flatten without hand-computing sizes.
  Linear(std::size_t in_features, std::size_t out_features);

  std::string name() const override;
  Shape build(const Shape& input_shape) override;
  std::size_t param_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init_params(parallel::Xoshiro256& rng) override;
  void forward(const Tensor& input, Tensor& output, bool training) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;

  /// Forward with the following ReLU folded into the GEMM epilogue:
  /// `output` receives the post-activation values in the same sweep that
  /// writes the GEMM result, and in training the ReLU's backward mask is
  /// filled through relu.fused_mask(). Bitwise identical to
  /// forward() + relu.forward(); called by Sequential for Linear->ReLU
  /// pairs detected at build time.
  void forward_fused(const Tensor& input, Tensor& output, bool training,
                     ReLU& relu);

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  std::size_t declared_in_;  // 0 = infer at build
  std::size_t in_ = 0;
  std::size_t out_;
  // Views into the owning Sequential's buffers: W is out_ x in_ row-major,
  // followed by the bias of length out_.
  std::span<float> weight_;
  std::span<float> bias_;
  std::span<float> grad_weight_;
  std::span<float> grad_bias_;
};

}  // namespace middlefl::nn
