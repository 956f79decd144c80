// Flattens per-sample dimensions; a pure reshape (data is contiguous).
#pragma once

#include <algorithm>
#include <stdexcept>

#include "nn/module.hpp"

namespace middlefl::nn {

class Flatten final : public Layer {
 public:
  std::string name() const override { return "Flatten"; }

  Shape build(const Shape& input_shape) override {
    flat_ = input_shape.numel();
    return Shape{flat_};
  }

  // Both passes copy into the destination's own storage: after the first
  // step its shape and capacity already fit, so no step allocates.
  void forward(const Tensor& input, Tensor& output, bool /*training*/) override {
    const std::size_t batch = input.dim(0);
    if (input.numel() != batch * flat_) {
      throw std::invalid_argument("Flatten::forward: bad input " +
                                  input.shape().to_string());
    }
    output.reset_for_overwrite({batch, flat_});
    std::copy(input.data().begin(), input.data().end(),
              output.data().begin());
  }

  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override {
    if (grad_input == nullptr) return;
    if (grad_output.numel() != input.numel()) {
      throw std::invalid_argument("Flatten::backward: bad grad_output " +
                                  grad_output.shape().to_string());
    }
    grad_input->reset_for_overwrite(input.shape());
    std::copy(grad_output.data().begin(), grad_output.data().end(),
              grad_input->data().begin());
  }

  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>();
  }

 private:
  std::size_t flat_ = 0;
};

}  // namespace middlefl::nn
