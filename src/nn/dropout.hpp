// Inverted dropout: activations are zeroed with probability p at train time
// and scaled by 1/(1-p) so inference needs no rescaling.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace middlefl::nn {

class Dropout final : public Layer {
 public:
  explicit Dropout(float p);

  std::string name() const override;
  Shape build(const Shape& input_shape) override { return input_shape; }

  /// The mask stream is drawn from this generator; Sequential wires its own
  /// per-model generator in during build so training stays deterministic
  /// per (seed, device, step).
  void set_rng(parallel::Xoshiro256* rng) noexcept { rng_ = rng; }

  void forward(const Tensor& input, Tensor& output, bool training) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  float p_;
  parallel::Xoshiro256* rng_ = nullptr;
  std::vector<float> scale_mask_;  // 0 or 1/(1-p) per element
  std::size_t cached_numel_ = 0;
};

}  // namespace middlefl::nn
