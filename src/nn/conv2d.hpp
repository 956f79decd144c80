// 2-D convolution over NCHW batches, lowered to im2col + GEMM. The
// lowering goes through a zero-bordered copy of each sample (a workspace
// plane, rebuilt per call), so every column-matrix row is runs copied in
// fixed-width blocks with no bounds test; col2im adds into a zeroed
// bordered plane in the per-element loop order and crops it, so each input
// pixel's gradient is the same sum chain as a bounds-tested loop's. The
// forward and weight-gradient GEMMs run per sample; the input-gradient
// GEMM and the bias gradient run once per batch, in orders whose bits do
// not depend on the batch split (see backward()). Backward skips the input
// gradient when the caller passes none.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace middlefl::nn {

class ReLU;

struct Conv2dConfig {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;
};

class Conv2d final : public Layer {
 public:
  explicit Conv2d(Conv2dConfig config);

  std::string name() const override;
  Shape build(const Shape& input_shape) override;
  std::size_t param_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init_params(parallel::Xoshiro256& rng) override;
  void forward(const Tensor& input, Tensor& output, bool training) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;

  /// Forward with the following ReLU folded into the per-sample GEMM
  /// epilogue (see Linear::forward_fused). The per-channel bias is a
  /// row_bias here: output row oc of each sample's GEMM is one channel
  /// plane. A training forward writes the ReLU's backward mask through
  /// `relu`; pass null when nothing reads it (Sequential does when a
  /// MaxPool2d after the ReLU runs the ReLU's backward).
  void forward_fused(const Tensor& input, Tensor& output, bool training,
                     ReLU* relu);

  const Conv2dConfig& config() const noexcept { return cfg_; }

  /// Expands one sample (C x H x W) into the column matrix
  /// (C*k*k) x (out_h*out_w). Requires build(). Borrows the calling
  /// thread's kConvBorder workspace slot when padding > 0.
  void im2col(const float* sample, float* col) const;
  /// Writes one sample's input gradient (C x H x W) from its column-matrix
  /// gradient, whose rows start `col_pitch` floats apart: each pixel is the
  /// sum of its taps' entries, added in (c, ky, kx, oy, ox) order onto +0.0.
  /// Borrows kConvBorder like im2col.
  void col2im(const float* col, std::size_t col_pitch,
              float* sample_grad) const;

 private:
  /// Shared body of forward()/forward_fused(): im2col + one GEMM per
  /// sample with bias (and optionally ReLU, and its mask when `mask_owner`
  /// is set) applied in the GEMM's final sweep.
  void forward_impl(const Tensor& input, Tensor& output, bool training,
                    bool relu, ReLU* mask_owner);

  Conv2dConfig cfg_;
  std::size_t in_h_ = 0, in_w_ = 0;
  std::size_t out_h_ = 0, out_w_ = 0;
  std::size_t col_rows_ = 0;  // C * k * k
  std::size_t col_cols_ = 0;  // out_h * out_w

  std::span<float> weight_;  // out_channels x (C*k*k), row-major
  std::span<float> bias_;    // out_channels
  std::span<float> grad_weight_;
  std::span<float> grad_bias_;

  // im2col panels for the whole batch of the last training forward, laid
  // out per sample; reused by backward for the weight-gradient GEMM.
  std::vector<float> col_cache_;
  std::size_t cached_batch_ = 0;
};

}  // namespace middlefl::nn
