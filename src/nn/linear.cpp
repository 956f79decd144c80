#include "nn/linear.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "tensor/blas.hpp"

namespace middlefl::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : declared_in_(in_features), in_(in_features), out_(out_features) {
  if (out_features == 0) {
    throw std::invalid_argument("Linear: out_features must be positive");
  }
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

Shape Linear::build(const Shape& input_shape) {
  const std::size_t flat = input_shape.numel();
  if (declared_in_ == 0) {
    in_ = flat;
  } else if (flat != declared_in_) {
    throw std::invalid_argument("Linear: input shape " +
                                input_shape.to_string() + " has " +
                                std::to_string(flat) + " features, expected " +
                                std::to_string(declared_in_));
  }
  return Shape{out_};
}

std::size_t Linear::param_count() const { return out_ * in_ + out_; }

void Linear::bind(std::span<float> params, std::span<float> grads) {
  if (params.size() != param_count() || grads.size() != param_count()) {
    throw std::invalid_argument("Linear::bind: slice size mismatch");
  }
  weight_ = params.subspan(0, out_ * in_);
  bias_ = params.subspan(out_ * in_, out_);
  grad_weight_ = grads.subspan(0, out_ * in_);
  grad_bias_ = grads.subspan(out_ * in_, out_);
}

void Linear::init_params(parallel::Xoshiro256& rng) {
  kaiming_normal(weight_, in_, rng);
  zeros(bias_);
}

void Linear::forward(const Tensor& input, Tensor& output, bool /*training*/) {
  const std::size_t batch = input.dim(0);
  if (input.numel() != batch * in_) {
    throw std::invalid_argument("Linear::forward: bad input " +
                                input.shape().to_string());
  }
  output.reset_for_overwrite({batch, out_});
  // Y[b, o] = sum_i X[b, i] * W[o, i] + bias[o]; the bias rides the GEMM's
  // final sweep over Y instead of a second pass.
  tensor::GemmEpilogue epi;
  epi.col_bias = bias_.data();
  tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, batch, out_, in_, 1.0f,
               input.data(), weight_, 0.0f, output.data(), nullptr, &epi);
}

void Linear::forward_fused(const Tensor& input, Tensor& output, bool training,
                           ReLU& relu) {
  const std::size_t batch = input.dim(0);
  if (input.numel() != batch * in_) {
    throw std::invalid_argument("Linear::forward: bad input " +
                                input.shape().to_string());
  }
  output.reset_for_overwrite({batch, out_});
  tensor::GemmEpilogue epi;
  epi.col_bias = bias_.data();
  epi.relu = true;
  if (training) epi.relu_mask = relu.fused_mask(batch * out_);
  tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, batch, out_, in_, 1.0f,
               input.data(), weight_, 0.0f, output.data(), nullptr, &epi);
}

void Linear::backward(const Tensor& input, const Tensor& grad_output,
                      Tensor* grad_input) {
  const std::size_t batch = input.dim(0);
  if (grad_output.numel() != batch * out_) {
    throw std::invalid_argument("Linear::backward: bad grad_output " +
                                grad_output.shape().to_string());
  }
  // dW[o, i] += sum_b dY[b, o] * X[b, i], with the grad-bias column
  // reduction db[o] += sum_b dY[b, o] folded into the same sweep over dY
  // (row_sums accumulates in ascending b, matching the unfused loop).
  tensor::GemmEpilogue epi;
  epi.row_sums = grad_bias_.data();
  tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, out_, in_, batch, 1.0f,
               grad_output.data(), input.data(), 1.0f, grad_weight_, nullptr,
               &epi);
  if (grad_input == nullptr) return;
  // dX[b, i] = sum_o dY[b, o] * W[o, i]
  grad_input->reset_for_overwrite(input.shape());
  tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, batch, in_, out_, 1.0f,
               grad_output.data(), weight_, 0.0f, grad_input->data());
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(declared_in_, out_);
  copy->in_ = in_;
  return copy;
}

}  // namespace middlefl::nn
