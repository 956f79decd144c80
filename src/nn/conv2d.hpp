// 2-D stride-1 convolution over NCHW batches, lowered to the indirect
// convolution (tensor::ConvColumns): the forward and weight-gradient GEMMs
// run per sample and read its column matrix in place from its
// zero-bordered C x (H + 2p) x (W + 2p) plane, so no column matrix is
// built. The input gradient runs per sample too: a GEMM into one sample's
// column-gradient panel, and col2im from it while it is in L1. col2im adds
// into a zeroed bordered plane in the per-element loop order and crops it,
// so each input pixel's gradient is the same sum chain as a bounds-tested
// loop's. The bias gradient runs once per batch, in an order whose bits do
// not depend on the batch split (see backward()). Backward skips the input
// gradient when the caller passes none.
#pragma once

#include <vector>

#include "nn/module.hpp"
#include "tensor/blas.hpp"

namespace middlefl::nn {

class ReLU;

/// Kernel comes last so that a constant config never ends in zeros: GCC
/// 12.2 with AVX-512 enabled builds a constant aggregate of four 8-byte
/// fields such as {1, 1, 1, 0} as a broadcast of its first value.
struct Conv2dConfig {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t padding = 0;
  std::size_t kernel = 3;
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

  /// Writes one sample's input gradient (C x H x W) from its column-matrix
  /// gradient, whose rows start `col_pitch` floats apart: each pixel is the
  /// sum of its taps' entries, added in (c, ky, kx, oy, ox) order onto +0.0.
  /// Requires build(). Borrows the calling thread's kConvBorder workspace
  /// slot when padding > 0.
  void col2im(const float* col, std::size_t col_pitch,
              float* sample_grad) const;

 private:
  /// Shared body of forward()/forward_fused(): one indirect-convolution
  /// GEMM per sample with bias (and optionally ReLU, and its mask when
  /// `mask_owner` is set) applied in the GEMM's final sweep.
  void forward_impl(const Tensor& input, Tensor& output, bool training,
                    bool relu, ReLU* mask_owner);
  /// The column-matrix view of one bordered plane.
  tensor::ConvColumns columns(const float* plane) const noexcept;
  /// Copies one sample into the interior of a bordered plane whose border
  /// is already zero.
  void fill_plane(const float* sample, float* plane) const noexcept;

  Conv2dConfig cfg_;
  std::size_t in_h_ = 0, in_w_ = 0;
  std::size_t out_h_ = 0, out_w_ = 0;
  std::size_t col_rows_ = 0;  // C * k * k
  std::size_t col_cols_ = 0;  // out_h * out_w
  std::size_t plane_size_ = 0;  // C * (H + 2p) * (W + 2p)
  std::vector<std::size_t> tap_;  // ConvColumns::tap, col_rows_ entries

  std::span<float> weight_;  // out_channels x (C*k*k), row-major
  std::span<float> bias_;    // out_channels
  std::span<float> grad_weight_;
  std::span<float> grad_bias_;

  // Every sample's bordered plane from the last training forward, for the
  // weight-gradient GEMMs (padding > 0; without padding the planes are the
  // input itself). Only plane interiors are ever written, so the borders
  // stay the zeros the vector was grown with.
  std::vector<float> plane_cache_;
  std::size_t cached_batch_ = 0;
};

}  // namespace middlefl::nn
