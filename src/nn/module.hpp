// Layer abstraction for feed-forward networks.
//
// Parameter ownership is inverted relative to most frameworks: the enclosing
// Sequential owns ONE contiguous parameter buffer and ONE gradient buffer,
// and each layer is bound to a span slice of both. Federated learning then
// treats a model as a flat float vector — aggregation (FedAvg, Eq. 6/7),
// on-device blending (Eq. 9) and cosine similarity (Eq. 8) are plain
// level-1 BLAS on that vector, with no per-layer bookkeeping.
//
// Layers cache whatever forward state their backward pass needs (bordered
// conv input planes, ReLU masks, pool argmaxes), so a layer instance must
// not be shared between concurrently-training models. Each simulated device owns its own
// Sequential; this is the simulator's unit of parallelism.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "parallel/rng.hpp"
#include "tensor/tensor.hpp"

namespace middlefl::nn {

using tensor::Shape;
using tensor::Tensor;

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Called once during model build with the per-sample input shape (no
  /// batch dimension); the layer caches the shapes it needs and returns the
  /// per-sample output shape. Throws std::invalid_argument on incompatible
  /// input.
  virtual Shape build(const Shape& input_shape) = 0;

  /// Number of learnable scalars; 0 for stateless layers.
  virtual std::size_t param_count() const { return 0; }

  /// Binds this layer's parameter/gradient slices. Spans must have
  /// param_count() elements and stay valid for the layer's lifetime.
  virtual void bind(std::span<float> params, std::span<float> grads) {
    (void)params;
    (void)grads;
  }

  /// Writes initial parameter values into the bound parameter span.
  virtual void init_params(parallel::Xoshiro256& rng) { (void)rng; }

  /// Computes `output` from batched `input` (dim 0 is the batch). When
  /// `training` is true the layer caches what its backward needs (inputs,
  /// masks, argmax indices).
  virtual void forward(const Tensor& input, Tensor& output, bool training) = 0;

  /// ACCUMULATES parameter gradients into the bound gradient span and, when
  /// `grad_input` is non-null, writes d(loss)/d(input) into it. Null means
  /// nothing reads the input gradient: a layer with parameters skips that
  /// work, and a layer without parameters returns at once.
  /// Sequential::backward passes null to its first layer with parameters
  /// and calls no layer before it. Must follow a forward call with
  /// training=true on the same input batch.
  virtual void backward(const Tensor& input, const Tensor& grad_output,
                        Tensor* grad_input) = 0;

  /// Deep copy with fresh (unbound) parameter slices.
  virtual std::unique_ptr<Layer> clone() const = 0;
};

}  // namespace middlefl::nn
