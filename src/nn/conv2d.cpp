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
  if (cfg_.in_channels == 0 || cfg_.out_channels == 0 || cfg_.kernel == 0) {
    throw std::invalid_argument("Conv2d: channels and kernel must be positive");
  }
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(cfg_.in_channels) + "->" +
         std::to_string(cfg_.out_channels) + ", k=" +
         std::to_string(cfg_.kernel) + ", p=" + std::to_string(cfg_.padding) +
         ")";
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
  out_h_ = padded_h - cfg_.kernel + 1;
  out_w_ = padded_w - cfg_.kernel + 1;
  col_rows_ = cfg_.in_channels * cfg_.kernel * cfg_.kernel;
  col_cols_ = out_h_ * out_w_;
  plane_size_ = cfg_.in_channels * padded_h * padded_w;
  tap_.clear();
  for (std::size_t c = 0; c < cfg_.in_channels; ++c) {
    for (std::size_t ky = 0; ky < cfg_.kernel; ++ky) {
      for (std::size_t kx = 0; kx < cfg_.kernel; ++kx) {
        tap_.push_back((c * padded_h + ky) * padded_w + kx);
      }
    }
  }
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

/// db[oc] += sum_pos dY[b, oc, pos] over a whole batch. Each (sample,
/// channel) plane is one double sum ascending in pos, cast to float once;
/// the planes are consecutive in dY, so kLanes of them run side by side
/// wherever they fall, sample boundaries included, and the adds are
/// throughput-bound rather than one latency-bound chain after another. The
/// planes are visited in (sample, channel) order, so every channel's
/// per-sample floats fold into grad_bias in sample order. A partial last
/// group repeats the last plane in its spare lanes, which are never stored.
void add_bias_grad(const float* dy, std::size_t batch, std::size_t channels,
                   std::size_t positions, float* grad_bias) noexcept {
  constexpr std::size_t kLanes = 8;
  const std::size_t planes = batch * channels;
  std::size_t oc = 0;  // channel of the next plane to fold
  for (std::size_t q0 = 0; q0 < planes; q0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, planes - q0);
    const float* plane[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      plane[l] = dy + (q0 + std::min(l, lanes - 1)) * positions;
    }
    double acc[kLanes] = {};
    for (std::size_t p = 0; p < positions; ++p) {
      for (std::size_t l = 0; l < kLanes; ++l) acc[l] += plane[l][p];
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      grad_bias[oc] += static_cast<float>(acc[l]);
      if (++oc == channels) oc = 0;
    }
  }
}

/// Floats per fixed-size block in the lowering runs: a copy or add of a
/// compile-time size is one vector operation.
constexpr std::size_t kBlock = 8;

/// Copies `runs` runs of n floats, run i from src + i * src_pitch to
/// dst + i * dst_pitch: every run's whole kBlock blocks, then every run's
/// n % kBlock tail, so the block loop has no per-run tail test.
void copy_runs(const float* src, std::size_t src_pitch, float* dst,
               std::size_t dst_pitch, std::size_t runs,
               std::size_t n) noexcept {
  const std::size_t whole = n - n % kBlock;
  for (std::size_t x = 0; x < whole; x += kBlock) {
    for (std::size_t i = 0; i < runs; ++i) {
      std::memcpy(dst + i * dst_pitch + x, src + i * src_pitch + x,
                  kBlock * sizeof(float));
    }
  }
  if (whole == n) return;
  for (std::size_t i = 0; i < runs; ++i) {
    for (std::size_t x = whole; x < n; ++x) {
      dst[i * dst_pitch + x] = src[i * src_pitch + x];
    }
  }
}

/// dst runs += src runs, laid out and blocked like copy_runs: each element
/// still takes exactly one add, and the runs of one call never overlap.
void add_runs(const float* src, std::size_t src_pitch, float* dst,
              std::size_t dst_pitch, std::size_t runs,
              std::size_t n) noexcept {
  const std::size_t whole = n - n % kBlock;
  for (std::size_t x = 0; x < whole; x += kBlock) {
    for (std::size_t i = 0; i < runs; ++i) {
      float* to = dst + i * dst_pitch + x;
      float sum[kBlock];
      float term[kBlock];
      std::memcpy(sum, to, sizeof sum);
      std::memcpy(term, src + i * src_pitch + x, sizeof term);
      for (std::size_t j = 0; j < kBlock; ++j) sum[j] += term[j];
      std::memcpy(to, sum, sizeof sum);
    }
  }
  if (whole == n) return;
  for (std::size_t i = 0; i < runs; ++i) {
    for (std::size_t x = whole; x < n; ++x) {
      dst[i * dst_pitch + x] += src[i * src_pitch + x];
    }
  }
}

}  // namespace

// Every GEMM reads a zero-bordered copy of one sample: a C x (H + 2p) x
// (W + 2p) plane in which every tap of every output position lands in
// bounds (with p = 0 the sample itself). Row (c, ky, kx) of the column
// matrix is out_h runs of out_w values, run oy starting at bordered pixel
// (oy + ky, kx), which tensor::ConvColumns names without copying.
//
// col2im adds into a zeroed bordered plane and then crops it into the
// sample's gradient. Its loop nest is the per-element one, (c, ky, kx, oy,
// ox), so each pixel's contributions are added in the same order, onto the
// same +0.0 start, as by a bounds-tested loop over a zeroed gradient; the
// taps that fall in the border are added there and dropped by the crop.

tensor::ConvColumns Conv2d::columns(const float* plane) const noexcept {
  tensor::ConvColumns cols;
  cols.plane = plane;
  cols.tap = tap_.data();
  cols.rows = col_rows_;
  cols.out_h = out_h_;
  cols.out_w = out_w_;
  cols.pitch = in_w_ + 2 * cfg_.padding;
  return cols;
}

void Conv2d::fill_plane(const float* sample, float* plane) const noexcept {
  const std::size_t pad = cfg_.padding;
  const std::size_t bh = in_h_ + 2 * pad;
  const std::size_t bw = in_w_ + 2 * pad;
  for (std::size_t c = 0; c < cfg_.in_channels; ++c) {
    copy_runs(sample + c * in_h_ * in_w_, in_w_,
              plane + (c * bh + pad) * bw + pad, bw, in_h_, in_w_);
  }
}

void Conv2d::col2im(const float* col, std::size_t col_pitch,
                    float* sample_grad) const {
  const std::size_t pad = cfg_.padding;
  const std::size_t bh = in_h_ + 2 * pad;
  const std::size_t bw = in_w_ + 2 * pad;
  float* bordered =
      pad > 0 ? tensor::Workspace::tls()
                    .floats(tensor::WsSlot::kConvBorder, plane_size_)
                    .data()
              : sample_grad;
  std::fill(bordered, bordered + plane_size_, 0.0f);
  const float* row = col;
  for (std::size_t c = 0; c < cfg_.in_channels; ++c) {
    for (std::size_t ky = 0; ky < cfg_.kernel; ++ky) {
      for (std::size_t kx = 0; kx < cfg_.kernel; ++kx, row += col_pitch) {
        add_runs(row, out_w_, bordered + (c * bh + ky) * bw + kx, bw, out_h_,
                 out_w_);
      }
    }
  }
  if (pad == 0) return;
  for (std::size_t c = 0; c < cfg_.in_channels; ++c) {
    copy_runs(bordered + (c * bh + pad) * bw + pad, bw,
              sample_grad + c * in_h_ * in_w_, in_w_, in_h_, in_w_);
  }
}

void Conv2d::forward(const Tensor& input, Tensor& output, bool training) {
  forward_impl(input, output, training, false, nullptr);
}

void Conv2d::forward_fused(const Tensor& input, Tensor& output, bool training,
                           ReLU* relu) {
  forward_impl(input, output, training, true, relu);
}

void Conv2d::forward_impl(const Tensor& input, Tensor& output, bool training,
                          bool relu, ReLU* mask_owner) {
  const std::size_t batch = input.dim(0);
  const std::size_t sample_size = cfg_.in_channels * in_h_ * in_w_;
  if (input.numel() != batch * sample_size) {
    throw std::invalid_argument("Conv2d::forward: bad input " +
                                input.shape().to_string());
  }
  const std::size_t out_sample_size = cfg_.out_channels * col_cols_;
  output.reset_for_overwrite({batch, cfg_.out_channels, out_h_, out_w_});
  std::uint8_t* mask = mask_owner != nullptr && training
                           ? mask_owner->fused_mask(batch * out_sample_size)
                           : nullptr;

  // With padding, a training forward keeps every sample's plane for the
  // weight gradient; an inference forward borders each sample in turn in
  // the thread's kConvBorder slot (its border zeroed once per call), so it
  // leaves the training planes alone.
  const bool pad = cfg_.padding > 0;
  float* planes = nullptr;
  if (pad && training) {
    plane_cache_.resize(batch * plane_size_);
    planes = plane_cache_.data();
  } else if (pad) {
    const std::span<float> plane = tensor::Workspace::tls().floats(
        tensor::WsSlot::kConvBorder, plane_size_);
    std::fill(plane.begin(), plane.end(), 0.0f);
    planes = plane.data();
  }
  if (training) cached_batch_ = batch;

  for (std::size_t b = 0; b < batch; ++b) {
    const float* sample = input.data().data() + b * sample_size;
    const float* plane = sample;
    if (pad) {
      float* dst = planes + (training ? b * plane_size_ : 0);
      fill_plane(sample, dst);
      plane = dst;
    }
    float* out_sample = output.data().data() + b * out_sample_size;
    // out[oc, pos] = W[oc, :] . col[:, pos] + bias[oc]; the per-channel
    // bias (and the fused ReLU, when present) ride the GEMM's final sweep
    // instead of re-traversing the output planes.
    tensor::GemmEpilogue epi;
    epi.row_bias = bias_.data();
    epi.relu = relu;
    if (mask != nullptr) epi.relu_mask = mask + b * out_sample_size;
    tensor::conv_gemm(cfg_.out_channels, weight_, columns(plane),
                      std::span<float>(out_sample, out_sample_size), &epi);
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
  const std::size_t out_sample_size = cfg_.out_channels * col_cols_;
  const float* dy = grad_output.data().data();
  const bool pad = cfg_.padding > 0;
  const float* planes = pad ? plane_cache_.data() : input.data().data();
  const std::size_t plane_pitch = pad ? plane_size_ : sample_size;

  // dW[oc, r] += dY_b[oc, :] . col_b[r, :]^T, one GEMM per sample in sample
  // order.
  for (std::size_t b = 0; b < batch; ++b) {
    tensor::conv_gemm_nt(
        cfg_.out_channels,
        std::span<const float>(dy + b * out_sample_size, out_sample_size),
        columns(planes + b * plane_pitch), grad_weight_);
  }
  add_bias_grad(dy, batch, cfg_.out_channels, col_cols_, grad_bias_.data());
  if (grad_input == nullptr) return;

  // The input gradient, per sample: dcol = W^T . dY_b into a panel that
  // stays in L1 for col2im. Each dcol element is an ascending-oc chain onto
  // +0.
  const std::span<float> dcol = tensor::Workspace::tls().floats(
      tensor::WsSlot::kConvPanel, col_rows_ * col_cols_);
  grad_input->reset_for_overwrite(input.shape());  // col2im writes it
  for (std::size_t b = 0; b < batch; ++b) {
    tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, col_rows_,
                 col_cols_, cfg_.out_channels, 1.0f, weight_,
                 std::span<const float>(dy + b * out_sample_size,
                                        out_sample_size),
                 0.0f, dcol);
    col2im(dcol.data(), col_cols_,
           grad_input->data().data() + b * sample_size);
  }
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::make_unique<Conv2d>(cfg_);
}

}  // namespace middlefl::nn
