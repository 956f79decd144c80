#include "nn/pooling.hpp"

#include <stdexcept>

#include "tensor/cpu_features.hpp"
#include "tensor/kernels/gemm_kernel.hpp"

namespace middlefl::nn {

namespace {

const tensor::detail::GemmKernels& kernels() noexcept {
  return tensor::detail::gemm_kernels(tensor::active_isa());
}

}  // namespace

Shape MaxPool2d::build(const Shape& input_shape) {
  if (input_shape.rank() != 3 || input_shape.dim(1) < 2 ||
      input_shape.dim(2) < 2) {
    throw std::invalid_argument(
        "MaxPool2d: expected [C, H, W] with H, W >= 2, got " +
        input_shape.to_string());
  }
  channels_ = input_shape.dim(0);
  in_h_ = input_shape.dim(1);
  in_w_ = input_shape.dim(2);
  out_h_ = in_h_ / 2;
  out_w_ = in_w_ / 2;
  return Shape{channels_, out_h_, out_w_};
}

void MaxPool2d::forward(const Tensor& input, Tensor& output, bool training) {
  const std::size_t batch = input.dim(0);
  const std::size_t planes = batch * channels_;
  if (input.numel() != planes * in_h_ * in_w_) {
    throw std::invalid_argument("MaxPool2d::forward: bad input " +
                                input.shape().to_string());
  }
  output.reset_for_overwrite({batch, channels_, out_h_, out_w_});
  std::uint8_t* taps = nullptr;
  if (training) {
    taps_.resize(planes * out_h_ * out_w_ + tensor::detail::kPoolTapSlack);
    taps = taps_.data();
    cached_batch_ = batch;
  }
  kernels().max_pool2x2(input.data().data(), planes, in_h_, in_w_,
                        output.data().data(), taps);
}

void MaxPool2d::check_cached(std::size_t batch, const char* where) const {
  if (cached_batch_ != batch) {
    throw std::logic_error(std::string(where) +
                           ": no cached forward state for this batch");
  }
}

void MaxPool2d::backward(const Tensor& input, const Tensor& grad_output,
                         Tensor* grad_input) {
  if (grad_input == nullptr) return;
  check_cached(input.dim(0), "MaxPool2d::backward");
  if (grad_output.numel() != cached_batch_ * channels_ * out_h_ * out_w_) {
    throw std::invalid_argument("MaxPool2d::backward: bad grad_output " +
                                grad_output.shape().to_string());
  }
  grad_input->reset_for_overwrite(input.shape());
  kernels().max_pool2x2_backward(grad_output.data().data(), taps_.data(),
                                 nullptr, cached_batch_ * channels_, in_h_,
                                 in_w_, grad_input->data().data());
}

void MaxPool2d::backward_relu(const Tensor& input, const Tensor& output,
                              const Tensor& grad_output, Tensor* grad_input) {
  if (grad_input == nullptr) return;
  const std::size_t batch = input.dim(0);
  check_cached(batch, "MaxPool2d::backward_relu");
  const std::size_t outputs = batch * channels_ * out_h_ * out_w_;
  if (output.numel() != outputs || grad_output.numel() != outputs) {
    throw std::invalid_argument("MaxPool2d::backward_relu: bad output " +
                                output.shape().to_string());
  }
  grad_input->reset_for_overwrite(input.shape());
  kernels().max_pool2x2_backward(grad_output.data().data(), taps_.data(),
                                 output.data().data(), batch * channels_,
                                 in_h_, in_w_, grad_input->data().data());
}

}  // namespace middlefl::nn
