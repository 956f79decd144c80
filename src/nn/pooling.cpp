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
  window_origin_.resize(out_h_ * out_w_);
  for (std::size_t oy = 0; oy < out_h_; ++oy) {
    for (std::size_t ox = 0; ox < out_w_; ++ox) {
      window_origin_[oy * out_w_ + ox] =
          static_cast<std::uint32_t>((oy * in_w_ + ox) * stride_);
    }
  }
  return Shape{channels_, out_h_, out_w_};
}

void MaxPool2d::forward(const Tensor& input, Tensor& output, bool training) {
  const std::size_t batch = input.dim(0);
  const std::size_t in_plane = in_h_ * in_w_;
  const std::size_t out_plane = out_h_ * out_w_;
  if (input.numel() != batch * channels_ * in_plane) {
    throw std::invalid_argument("MaxPool2d::forward: bad input " +
                                input.shape().to_string());
  }
  output.reset_for_overwrite({batch, channels_, out_h_, out_w_});
  if (training) {
    argmax_.resize(batch * channels_ * out_plane);
    cached_batch_ = batch;
  }

  // Each plane is lowered like im2col: row t of `taps` holds tap t =
  // (ky, kx) of every output window, in output order. The running max then
  // walks the taps in (ky, kx) order, each step one contiguous, branch-free
  // select over all of the plane's outputs.
  const std::size_t num_taps = kernel_ * kernel_;
  const std::span<float> taps = tensor::Workspace::tls().floats(
      tensor::WsSlot::kPoolTaps, num_taps * out_plane);
  const std::uint32_t* origin = window_origin_.data();
  const float* in = input.data().data();
  float* out = output.data().data();
  const auto tap_offset = [&](std::size_t t) {
    return static_cast<std::uint32_t>((t / kernel_) * in_w_ + t % kernel_);
  };
  for (std::size_t bc = 0; bc < batch * channels_; ++bc) {
    const float* plane = in + bc * in_plane;
    for (std::size_t t = 0; t < num_taps; ++t) {
      float* row = taps.data() + t * out_plane;
      const std::uint32_t offset = tap_offset(t);
      for (std::size_t p = 0; p < out_plane; ++p) {
        row[p] = plane[origin[p] + offset];
      }
    }
    float* best = out + bc * out_plane;
    std::uint32_t* best_idx =
        training ? argmax_.data() + bc * out_plane : nullptr;
    std::copy(taps.data(), taps.data() + out_plane, best);
    if (best_idx != nullptr) std::copy(origin, origin + out_plane, best_idx);
    for (std::size_t t = 1; t < num_taps; ++t) {
      const float* row = taps.data() + t * out_plane;
      const std::uint32_t offset = tap_offset(t);
      for (std::size_t p = 0; p < out_plane; ++p) {
        // Strict > keeps the first maximum on ties and never lets a NaN
        // in (nor out, once it is the window's first value).
        const bool take = row[p] > best[p];
        if (best_idx != nullptr) {
          best_idx[p] = take ? origin[p] + offset : best_idx[p];
        }
        best[p] = take ? row[p] : best[p];
      }
    }
  }
}

void MaxPool2d::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor* grad_input) {
  if (grad_input == nullptr) return;
  const std::size_t batch = input.dim(0);
  if (cached_batch_ != batch) {
    throw std::logic_error(
        "MaxPool2d::backward: no cached forward state for this batch");
  }
  const std::size_t in_plane = in_h_ * in_w_;
  const std::size_t out_plane = out_h_ * out_w_;
  grad_input->reset(input.shape());
  float* dx = grad_input->data().data();
  const float* dy = grad_output.data().data();
  for (std::size_t bc = 0; bc < batch * channels_; ++bc) {
    float* dx_plane = dx + bc * in_plane;
    const float* dy_row = dy + bc * out_plane;
    const std::uint32_t* arg_row = argmax_.data() + bc * out_plane;
    for (std::size_t p = 0; p < out_plane; ++p) {
      dx_plane[arg_row[p]] += dy_row[p];
    }
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
