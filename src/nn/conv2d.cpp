#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "tensor/blas.hpp"
#include "tensor/workspace.hpp"

namespace middlefl::nn {

Conv2d::Conv2d(Conv2dConfig config) : cfg_(config) {
  if (cfg_.in_channels == 0 || cfg_.out_channels == 0 || cfg_.kernel == 0 ||
      cfg_.stride == 0) {
    throw std::invalid_argument("Conv2d: channels, kernel and stride must be positive");
  }
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(cfg_.in_channels) + "->" +
         std::to_string(cfg_.out_channels) + ", k=" +
         std::to_string(cfg_.kernel) + ", s=" + std::to_string(cfg_.stride) +
         ", p=" + std::to_string(cfg_.padding) + ")";
}

Shape Conv2d::build(const Shape& input_shape) {
  if (input_shape.rank() != 3 || input_shape.dim(0) != cfg_.in_channels) {
    throw std::invalid_argument("Conv2d: expected input [C=" +
                                std::to_string(cfg_.in_channels) +
                                ", H, W], got " + input_shape.to_string());
  }
  in_h_ = input_shape.dim(1);
  in_w_ = input_shape.dim(2);
  const std::size_t padded_h = in_h_ + 2 * cfg_.padding;
  const std::size_t padded_w = in_w_ + 2 * cfg_.padding;
  if (padded_h < cfg_.kernel || padded_w < cfg_.kernel) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
  out_h_ = (padded_h - cfg_.kernel) / cfg_.stride + 1;
  out_w_ = (padded_w - cfg_.kernel) / cfg_.stride + 1;
  col_rows_ = cfg_.in_channels * cfg_.kernel * cfg_.kernel;
  col_cols_ = out_h_ * out_w_;
  return Shape{cfg_.out_channels, out_h_, out_w_};
}

std::size_t Conv2d::param_count() const {
  return cfg_.out_channels * cfg_.in_channels * cfg_.kernel * cfg_.kernel +
         cfg_.out_channels;
}

void Conv2d::bind(std::span<float> params, std::span<float> grads) {
  if (params.size() != param_count() || grads.size() != param_count()) {
    throw std::invalid_argument("Conv2d::bind: slice size mismatch");
  }
  const std::size_t w_count = param_count() - cfg_.out_channels;
  weight_ = params.subspan(0, w_count);
  bias_ = params.subspan(w_count, cfg_.out_channels);
  grad_weight_ = grads.subspan(0, w_count);
  grad_bias_ = grads.subspan(w_count, cfg_.out_channels);
}

void Conv2d::init_params(parallel::Xoshiro256& rng) {
  kaiming_normal(weight_, col_rows_, rng);
  zeros(bias_);
}

namespace {

/// The output positions [lo, hi) along one axis whose input coordinate
/// o * stride + offset lies in [0, in), for a kernel tap at
/// offset = tap - padding. Outside the run the padded input is zero.
struct Run {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

Run valid_run(std::ptrdiff_t offset, std::size_t stride, std::size_t in,
              std::size_t out) noexcept {
  const auto s = static_cast<std::ptrdiff_t>(stride);
  const auto o = static_cast<std::ptrdiff_t>(out);
  const std::ptrdiff_t lo = offset >= 0 ? 0 : (-offset + s - 1) / s;
  const std::ptrdiff_t end = static_cast<std::ptrdiff_t>(in) - offset;
  const std::ptrdiff_t hi = end <= 0 ? 0 : (end + s - 1) / s;
  const std::ptrdiff_t run_lo = std::min(lo, o);
  return {static_cast<std::size_t>(run_lo),
          static_cast<std::size_t>(std::clamp(hi, run_lo, o))};
}

/// Input coordinate of output position `o`; only valid inside the run.
std::size_t input_coord(std::size_t o, std::size_t stride,
                        std::ptrdiff_t offset) noexcept {
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(o * stride) +
                                  offset);
}

}  // namespace

// Both lowering loops walk the (c, ky, kx, oy) rows of the column matrix.
// A tap's valid output rows and columns are one run each, so each output
// row is a zero head, a copy (an add, for col2im) of part of one input
// row, and a zero tail, with no per-element bounds test. im2col writes the
// zeros by clearing a tap's whole row of the column matrix first, and only
// when the tap reaches into the padding: one memset is cheaper than two
// short ones per output row. The loop nest is that of the per-element
// loops, so col2im adds each pixel's contributions in the same order.

void Conv2d::im2col(const float* sample, float* col) const noexcept {
  // col[(c*k*k + ky*k + kx), (oy*out_w + ox)] = padded_input[c, iy, ix]
  const auto pad = static_cast<std::ptrdiff_t>(cfg_.padding);
  const std::size_t stride = cfg_.stride;
  for (std::size_t c = 0; c < cfg_.in_channels; ++c) {
    const float* channel = sample + c * in_h_ * in_w_;
    for (std::size_t ky = 0; ky < cfg_.kernel; ++ky) {
      const std::ptrdiff_t y_off = static_cast<std::ptrdiff_t>(ky) - pad;
      const Run rows = valid_run(y_off, stride, in_h_, out_h_);
      for (std::size_t kx = 0; kx < cfg_.kernel; ++kx) {
        const std::ptrdiff_t x_off = static_cast<std::ptrdiff_t>(kx) - pad;
        const Run cols = valid_run(x_off, stride, in_w_, out_w_);
        const std::size_t len = cols.hi - cols.lo;
        float* row =
            col + ((c * cfg_.kernel + ky) * cfg_.kernel + kx) * col_cols_;
        if (rows.hi - rows.lo < out_h_ || len < out_w_) {
          std::fill(row, row + col_cols_, 0.0f);
        }
        if (len == 0) continue;
        for (std::size_t oy = rows.lo; oy < rows.hi; ++oy) {
          float* dst = row + oy * out_w_ + cols.lo;
          const float* src = channel + input_coord(oy, stride, y_off) * in_w_ +
                             input_coord(cols.lo, stride, x_off);
          if (stride == 1) {
            std::memcpy(dst, src, len * sizeof(float));
          } else {
            for (std::size_t t = 0; t < len; ++t) dst[t] = src[t * stride];
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const float* col, float* sample_grad) const noexcept {
  const auto pad = static_cast<std::ptrdiff_t>(cfg_.padding);
  const std::size_t stride = cfg_.stride;
  for (std::size_t c = 0; c < cfg_.in_channels; ++c) {
    float* channel = sample_grad + c * in_h_ * in_w_;
    for (std::size_t ky = 0; ky < cfg_.kernel; ++ky) {
      const std::ptrdiff_t y_off = static_cast<std::ptrdiff_t>(ky) - pad;
      const Run rows = valid_run(y_off, stride, in_h_, out_h_);
      for (std::size_t kx = 0; kx < cfg_.kernel; ++kx) {
        const std::ptrdiff_t x_off = static_cast<std::ptrdiff_t>(kx) - pad;
        const Run cols = valid_run(x_off, stride, in_w_, out_w_);
        const std::size_t len = cols.hi - cols.lo;
        if (len == 0) continue;
        const float* row =
            col + ((c * cfg_.kernel + ky) * cfg_.kernel + kx) * col_cols_;
        for (std::size_t oy = rows.lo; oy < rows.hi; ++oy) {
          const float* src = row + oy * out_w_ + cols.lo;
          float* dst = channel + input_coord(oy, stride, y_off) * in_w_ +
                       input_coord(cols.lo, stride, x_off);
          if (stride == 1) {
            for (std::size_t t = 0; t < len; ++t) dst[t] += src[t];
          } else {
            for (std::size_t t = 0; t < len; ++t) dst[t * stride] += src[t];
          }
        }
      }
    }
  }
}

void Conv2d::forward(const Tensor& input, Tensor& output, bool training) {
  forward_impl(input, output, training, nullptr);
}

void Conv2d::forward_fused(const Tensor& input, Tensor& output, bool training,
                           ReLU& relu) {
  forward_impl(input, output, training, &relu);
}

void Conv2d::forward_impl(const Tensor& input, Tensor& output, bool training,
                          ReLU* relu) {
  const std::size_t batch = input.dim(0);
  const std::size_t sample_size = cfg_.in_channels * in_h_ * in_w_;
  if (input.numel() != batch * sample_size) {
    throw std::invalid_argument("Conv2d::forward: bad input " +
                                input.shape().to_string());
  }
  const std::size_t out_sample_size = cfg_.out_channels * col_cols_;
  output.reset_for_overwrite({batch, cfg_.out_channels, out_h_, out_w_});
  std::uint8_t* mask = relu != nullptr && training
                           ? relu->fused_mask(batch * out_sample_size)
                           : nullptr;

  const std::size_t col_size = col_rows_ * col_cols_;
  // Inference reuses a single panel; training caches every sample's panel
  // for the backward weight GEMM.
  if (training) {
    col_cache_.resize(batch * col_size);
    cached_batch_ = batch;
  } else if (col_cache_.size() < col_size) {
    col_cache_.resize(col_size);
  }

  for (std::size_t b = 0; b < batch; ++b) {
    float* col = col_cache_.data() + (training ? b * col_size : 0);
    im2col(input.data().data() + b * sample_size, col);
    float* out_sample = output.data().data() + b * out_sample_size;
    // out[oc, pos] = W[oc, :] . col[:, pos] + bias[oc]; the per-channel
    // bias (and the fused ReLU, when present) ride the GEMM's final sweep
    // instead of re-traversing the output planes.
    tensor::GemmEpilogue epi;
    epi.row_bias = bias_.data();
    epi.relu = relu != nullptr;
    if (mask != nullptr) epi.relu_mask = mask + b * out_sample_size;
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, cfg_.out_channels,
                 col_cols_, col_rows_, 1.0f, weight_,
                 std::span<const float>(col, col_size), 0.0f,
                 std::span<float>(out_sample, out_sample_size), nullptr, &epi);
  }
}

void Conv2d::backward(const Tensor& input, const Tensor& grad_output,
                      Tensor* grad_input) {
  const std::size_t batch = input.dim(0);
  if (cached_batch_ != batch) {
    throw std::logic_error(
        "Conv2d::backward: no cached forward state for this batch (forward "
        "must run with training=true)");
  }
  const std::size_t sample_size = cfg_.in_channels * in_h_ * in_w_;
  const std::size_t col_size = col_rows_ * col_cols_;

  // d(col) panel from the workspace: backward runs once per sample per
  // batch, and gemm only borrows the pack slots, so kConvColGrad is free.
  std::span<float> dcol;
  if (grad_input != nullptr) {
    grad_input->reset(input.shape());
    dcol = tensor::Workspace::tls().floats(tensor::WsSlot::kConvColGrad,
                                           col_size);
  }
  for (std::size_t b = 0; b < batch; ++b) {
    const float* col = col_cache_.data() + b * col_size;
    const float* dy =
        grad_output.data().data() + b * cfg_.out_channels * col_cols_;
    const std::span<const float> dy_span(dy, cfg_.out_channels * col_cols_);
    // dW[oc, r] += dY[oc, :] . col[r, :]^T
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, cfg_.out_channels,
                 col_rows_, col_cols_, 1.0f, dy_span,
                 std::span<const float>(col, col_size), 1.0f, grad_weight_);
    // db[oc] += sum_pos dY[oc, pos]
    for (std::size_t oc = 0; oc < cfg_.out_channels; ++oc) {
      double acc = 0.0;
      const float* plane = dy + oc * col_cols_;
      for (std::size_t p = 0; p < col_cols_; ++p) acc += plane[p];
      grad_bias_[oc] += static_cast<float>(acc);
    }
    if (grad_input == nullptr) continue;
    // dcol[r, pos] = W[:, r]^T dY[:, pos]
    tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, col_rows_, col_cols_,
                 cfg_.out_channels, 1.0f, weight_, dy_span, 0.0f, dcol);
    col2im(dcol.data(), grad_input->data().data() + b * sample_size);
  }
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::make_unique<Conv2d>(cfg_);
}

}  // namespace middlefl::nn
