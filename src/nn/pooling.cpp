#include "nn/pooling.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "tensor/workspace.hpp"

namespace middlefl::nn {

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel_ == 0) {
    throw std::invalid_argument("MaxPool2d: kernel must be positive");
  }
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(k=" + std::to_string(kernel_) +
         ", s=" + std::to_string(stride_) + ")";
}

Shape MaxPool2d::build(const Shape& input_shape) {
  if (input_shape.rank() != 3) {
    throw std::invalid_argument("MaxPool2d: expected [C, H, W], got " +
                                input_shape.to_string());
  }
  channels_ = input_shape.dim(0);
  in_h_ = input_shape.dim(1);
  in_w_ = input_shape.dim(2);
  if (in_h_ < kernel_ || in_w_ < kernel_) {
    throw std::invalid_argument("MaxPool2d: window larger than input " +
                                input_shape.to_string());
  }
  if (in_h_ * in_w_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("MaxPool2d: plane too large for 32-bit "
                                "argmax indices " + input_shape.to_string());
  }
  out_h_ = (in_h_ - kernel_) / stride_ + 1;
  out_w_ = (in_w_ - kernel_) / stride_ + 1;
  const std::size_t in_plane = in_h_ * in_w_;
  const std::size_t out_plane = out_h_ * out_w_;
  group_ = std::min(std::max<std::size_t>(1, kGroupOutputs / out_plane),
                    std::numeric_limits<std::uint32_t>::max() / in_plane);
  window_origin_.resize(group_ * out_plane);
  for (std::size_t q = 0; q < window_origin_.size(); ++q) {
    const std::size_t oy = q % out_plane / out_w_;
    const std::size_t ox = q % out_w_;
    window_origin_[q] = static_cast<std::uint32_t>(
        q / out_plane * in_plane + (oy * in_w_ + ox) * stride_);
  }
  return Shape{channels_, out_h_, out_w_};
}

// Planes are pooled group_ at a time, as one run of windows: each tap is
// one gather loop and one select loop over the whole group's windows, so
// the loop overheads are paid per group rather than per plane.
void MaxPool2d::forward(const Tensor& input, Tensor& output, bool training) {
  const std::size_t batch = input.dim(0);
  const std::size_t planes = batch * channels_;
  const std::size_t in_plane = in_h_ * in_w_;
  const std::size_t out_plane = out_h_ * out_w_;
  if (input.numel() != planes * in_plane) {
    throw std::invalid_argument("MaxPool2d::forward: bad input " +
                                input.shape().to_string());
  }
  output.reset_for_overwrite({batch, channels_, out_h_, out_w_});
  if (training) {
    argmax_.resize(planes * out_plane);
    cached_batch_ = batch;
  }

  const std::size_t num_taps = kernel_ * kernel_;
  const std::span<float> taps = tensor::Workspace::tls().floats(
      tensor::WsSlot::kPoolTaps, num_taps * group_ * out_plane);
  const std::uint32_t* origin = window_origin_.data();
  for (std::size_t bc = 0; bc < planes; bc += group_) {
    const std::size_t n = std::min(group_, planes - bc) * out_plane;
    const float* in = input.data().data() + bc * in_plane;
    // Row t of `taps` holds tap t = (ky, kx) of every window of the group.
    for (std::size_t t = 0; t < num_taps; ++t) {
      const float* src = in + (t / kernel_) * in_w_ + t % kernel_;
      float* row = taps.data() + t * n;
      for (std::size_t q = 0; q < n; ++q) row[q] = src[origin[q]];
    }
    float* best = output.data().data() + bc * out_plane;
    std::uint32_t* best_idx =
        training ? argmax_.data() + bc * out_plane : nullptr;
    std::copy(taps.data(), taps.data() + n, best);
    if (best_idx != nullptr) std::copy(origin, origin + n, best_idx);
    for (std::size_t t = 1; t < num_taps; ++t) {
      const float* row = taps.data() + t * n;
      const auto shift =
          static_cast<std::uint32_t>((t / kernel_) * in_w_ + t % kernel_);
      for (std::size_t q = 0; q < n; ++q) {
        // Strict > keeps the first maximum on ties and never lets a NaN
        // in (nor out, once it is the window's first value).
        const bool take = row[q] > best[q];
        if (best_idx != nullptr) {
          best_idx[q] = take ? origin[q] + shift : best_idx[q];
        }
        best[q] = take ? row[q] : best[q];
      }
    }
  }
}

// Each group of planes of grad_input is zeroed and then takes its
// windows' gradients at their argmaxes, in window order, while it is in
// cache: the whole tensor is not reset first and revisited by the scatter.
void MaxPool2d::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor* grad_input) {
  if (grad_input == nullptr) return;
  const std::size_t batch = input.dim(0);
  if (cached_batch_ != batch) {
    throw std::logic_error(
        "MaxPool2d::backward: no cached forward state for this batch");
  }
  const std::size_t planes = batch * channels_;
  const std::size_t in_plane = in_h_ * in_w_;
  const std::size_t out_plane = out_h_ * out_w_;
  grad_input->reset_for_overwrite(input.shape());
  for (std::size_t bc = 0; bc < planes; bc += group_) {
    const std::size_t n = std::min(group_, planes - bc);
    float* dx = grad_input->data().data() + bc * in_plane;
    const float* dy = grad_output.data().data() + bc * out_plane;
    const std::uint32_t* arg = argmax_.data() + bc * out_plane;
    std::fill(dx, dx + n * in_plane, 0.0f);
    for (std::size_t q = 0; q < n * out_plane; ++q) dx[arg[q]] += dy[q];
  }
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(kernel_, stride_);
}

AvgPool2d::AvgPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel_ == 0) {
    throw std::invalid_argument("AvgPool2d: kernel must be positive");
  }
}

std::string AvgPool2d::name() const {
  return "AvgPool2d(k=" + std::to_string(kernel_) +
         ", s=" + std::to_string(stride_) + ")";
}

Shape AvgPool2d::build(const Shape& input_shape) {
  if (input_shape.rank() != 3) {
    throw std::invalid_argument("AvgPool2d: expected [C, H, W], got " +
                                input_shape.to_string());
  }
  channels_ = input_shape.dim(0);
  in_h_ = input_shape.dim(1);
  in_w_ = input_shape.dim(2);
  if (in_h_ < kernel_ || in_w_ < kernel_) {
    throw std::invalid_argument("AvgPool2d: window larger than input " +
                                input_shape.to_string());
  }
  out_h_ = (in_h_ - kernel_) / stride_ + 1;
  out_w_ = (in_w_ - kernel_) / stride_ + 1;
  return Shape{channels_, out_h_, out_w_};
}

void AvgPool2d::forward(const Tensor& input, Tensor& output,
                        bool /*training*/) {
  const std::size_t batch = input.dim(0);
  const std::size_t in_plane = in_h_ * in_w_;
  const std::size_t out_plane = out_h_ * out_w_;
  if (input.numel() != batch * channels_ * in_plane) {
    throw std::invalid_argument("AvgPool2d::forward: bad input " +
                                input.shape().to_string());
  }
  output.reset({batch, channels_, out_h_, out_w_});
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  const float* in = input.data().data();
  float* out = output.data().data();
  for (std::size_t bc = 0; bc < batch * channels_; ++bc) {
    const float* plane = in + bc * in_plane;
    float* out_row = out + bc * out_plane;
    for (std::size_t oy = 0; oy < out_h_; ++oy) {
      for (std::size_t ox = 0; ox < out_w_; ++ox) {
        double acc = 0.0;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          const std::size_t row = (oy * stride_ + ky) * in_w_ + ox * stride_;
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            acc += plane[row + kx];
          }
        }
        out_row[oy * out_w_ + ox] = static_cast<float>(acc) * inv;
      }
    }
  }
}

void AvgPool2d::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor* grad_input) {
  if (grad_input == nullptr) return;
  const std::size_t batch = input.dim(0);
  const std::size_t in_plane = in_h_ * in_w_;
  const std::size_t out_plane = out_h_ * out_w_;
  grad_input->reset(input.shape());
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  float* dx = grad_input->data().data();
  const float* dy = grad_output.data().data();
  for (std::size_t bc = 0; bc < batch * channels_; ++bc) {
    float* dx_plane = dx + bc * in_plane;
    const float* dy_row = dy + bc * out_plane;
    for (std::size_t oy = 0; oy < out_h_; ++oy) {
      for (std::size_t ox = 0; ox < out_w_; ++ox) {
        const float g = dy_row[oy * out_w_ + ox] * inv;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          const std::size_t row = (oy * stride_ + ky) * in_w_ + ox * stride_;
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            dx_plane[row + kx] += g;
          }
        }
      }
    }
  }
}

std::unique_ptr<Layer> AvgPool2d::clone() const {
  return std::make_unique<AvgPool2d>(kernel_, stride_);
}

}  // namespace middlefl::nn
