// Flattens per-sample dimensions; a pure reshape (data is contiguous).
#pragma once

#include "nn/module.hpp"

namespace middlefl::nn {

class Flatten final : public Layer {
 public:
  std::string name() const override { return "Flatten"; }

  Shape build(const Shape& input_shape) override {
    flat_ = input_shape.numel();
    return Shape{flat_};
  }

  void forward(const Tensor& input, Tensor& output, bool /*training*/) override {
    output = input;
    output.reshape(Shape{input.dim(0), flat_});
  }

  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override {
    if (grad_input == nullptr) return;
    *grad_input = grad_output;
    grad_input->reshape(input.shape());
  }

  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>();
  }

 private:
  std::size_t flat_ = 0;
};

}  // namespace middlefl::nn
