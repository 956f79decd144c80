// Feed-forward model container owning the flat parameter & gradient buffers.
//
// Usage:
//   Sequential model(Shape{1, 16, 16});
//   model.add(std::make_unique<Conv2d>(...)).add(std::make_unique<ReLU>());
//   model.build(seed);
//   const Tensor& logits = model.forward(batch, /*training=*/true);
//   model.zero_grad();
//   model.backward(grad_logits);
//
// After build(), `parameters()` exposes the model as one contiguous float
// vector — the representation every federated-learning operation in
// src/core works on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/module.hpp"

namespace middlefl::nn {

class Sequential {
 public:
  /// `input_shape` is the per-sample shape (no batch dimension).
  explicit Sequential(Shape input_shape);

  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer; only valid before build().
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Finalizes the architecture: infers shapes, allocates the parameter and
  /// gradient buffers, binds layers and initializes weights from `seed`.
  void build(std::uint64_t seed);
  bool built() const noexcept { return built_; }

  const Shape& input_shape() const noexcept { return input_shape_; }
  const Shape& output_shape() const;  // per-sample; requires built()
  std::size_t param_count() const noexcept { return params_.size(); }
  std::size_t layer_count() const noexcept { return layers_.size(); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  std::span<float> parameters() noexcept { return params_; }
  std::span<const float> parameters() const noexcept { return params_; }
  std::span<float> gradients() noexcept { return grads_; }
  std::span<const float> gradients() const noexcept { return grads_; }

  /// Overwrites all parameters; `values.size()` must equal param_count().
  void set_parameters(std::span<const float> values);

  void zero_grad() noexcept;

  /// Runs the batch through all layers and returns the final activation
  /// (valid until the next forward). Batched input: dim 0 is the batch and
  /// the remaining dims must match input_shape().
  const Tensor& forward(const Tensor& batch, bool training);

  /// Backpropagates from d(loss)/d(output); accumulates into gradients().
  /// Layers before the first one with parameters are not visited, and that
  /// layer computes no input gradient (see Layer::backward). Must follow
  /// forward(batch, training=true).
  void backward(const Tensor& grad_output);

  /// Forward-only batched inference: runs `batch` (dim 0 = batch) through
  /// the network in eval mode and writes the argmax class per row into
  /// `out` (`out.size()` must equal the batch rows). Shares forward()'s
  /// fused bias+ReLU epilogues and high-water activation buffers; skips
  /// the training-only input copy and touches no gradient or optimizer
  /// state. The serving drain loop (src/serve) calls this once per
  /// coalesced batch.
  void predict(const Tensor& batch, std::span<std::int32_t> out);

  /// Deep copy: same architecture, same parameter values, fresh buffers.
  std::unique_ptr<Sequential> clone() const;

  /// One-line architecture summary for logs.
  std::string summary() const;

 private:
  Shape input_shape_;
  Shape output_shape_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<float> params_;
  std::vector<float> grads_;
  std::vector<std::size_t> offsets_;  // param offset per layer
  // Where backward() stops; layers_.size() when no layer has parameters.
  std::size_t first_param_layer_ = 0;
  bool built_ = false;

  // Fusion, resolved once at build(). Forward: slot i holds typed pointers
  // when layer i is a Linear/Conv2d immediately followed by a ReLU. The
  // forward loop then lets the producing layer write post-activation values
  // (and the training mask) straight into the ReLU's activation slot and
  // skips the ReLU's own forward — one sweep over the activation instead of
  // three (GEMM out, bias pass, ReLU pass). Backward: slot i holds `pool`
  // when layer i is a MaxPool2d right after a ReLU. The backward loop lets
  // the pool write the ReLU input's gradient from its pooled values
  // (MaxPool2d::backward_relu) and skips ReLU::backward; the producer's
  // slot then has `mask` false and its epilogue writes no mask.
  struct FusionSlot {
    class Linear* linear = nullptr;
    class Conv2d* conv = nullptr;
    class ReLU* relu = nullptr;
    bool mask = true;
    class MaxPool2d* pool = nullptr;
  };
  std::vector<FusionSlot> fusion_;

  // Forward state for backward.
  Tensor input_copy_;
  std::vector<Tensor> activations_;
  bool have_training_forward_ = false;
  // Ping-pong gradient buffers for the backward sweep. Persistent members
  // (instead of locals moved layer-to-layer) keep their high-water
  // allocation, so steady-state backward passes never touch the heap.
  Tensor grad_scratch_[2];
};

}  // namespace middlefl::nn
