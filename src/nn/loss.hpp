// Classification losses and related head math.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace middlefl::nn {

struct LossResult {
  /// Mean cross-entropy over the batch.
  float loss = 0.0f;
  /// d(loss)/d(logits), already divided by the batch size; feed straight to
  /// Sequential::backward.
  tensor::Tensor grad_logits;
};

/// Numerically-stable softmax over the last dimension of a [batch, classes]
/// tensor.
tensor::Tensor softmax(const tensor::Tensor& logits);

/// Mean softmax cross-entropy; `labels` holds one class index per row.
LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::int32_t> labels);

/// softmax_cross_entropy writing d(loss)/d(logits) into `grad_logits`
/// (reshaped to the logits, its allocation reused) and returning the mean
/// loss: the form a training loop calls every step.
float softmax_cross_entropy_into(const tensor::Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 tensor::Tensor& grad_logits);

/// Cross-entropy value only (no gradient) — cheaper for evaluation and the
/// Oort statistical-utility computation.
float cross_entropy_value(const tensor::Tensor& logits,
                          std::span<const std::int32_t> labels);

/// Per-example losses (used by Oort's utility, which aggregates
/// sqrt(mean of squared sample losses)).
void per_example_cross_entropy(const tensor::Tensor& logits,
                               std::span<const std::int32_t> labels,
                               std::span<float> out_losses);

/// Number of rows whose argmax equals the label.
std::size_t count_correct(const tensor::Tensor& logits,
                          std::span<const std::int32_t> labels);

}  // namespace middlefl::nn
