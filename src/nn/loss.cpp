#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace middlefl::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {

void check_logits_labels(const Tensor& logits,
                         std::span<const std::int32_t> labels) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("loss: logits must be [batch, classes], got " +
                                logits.shape().to_string());
  }
  if (labels.size() != logits.dim(0)) {
    throw std::invalid_argument("loss: label count " +
                                std::to_string(labels.size()) +
                                " != batch size " +
                                std::to_string(logits.dim(0)));
  }
  const auto classes = static_cast<std::int32_t>(logits.dim(1));
  for (std::int32_t label : labels) {
    if (label < 0 || label >= classes) {
      throw std::out_of_range("loss: label " + std::to_string(label) +
                              " out of range for " + std::to_string(classes) +
                              " classes");
    }
  }
}

/// Writes softmax of `row` (length n) into `out`; returns log(sum(exp)).
/// Stable: shifts by the row max first.
float softmax_row(const float* row, std::size_t n, float* out) {
  const float max_val = *std::max_element(row, row + n);
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const float e = std::exp(row[j] - max_val);
    out[j] = e;
    sum += e;
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (std::size_t j = 0; j < n; ++j) out[j] *= inv;
  return max_val + static_cast<float>(std::log(sum));
}

}  // namespace

Tensor softmax(const Tensor& logits) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("softmax: expected [batch, classes]");
  }
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  Tensor probs(logits.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    softmax_row(logits.data().data() + b * classes, classes,
                probs.data().data() + b * classes);
  }
  return probs;
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::int32_t> labels) {
  LossResult result;
  result.loss = softmax_cross_entropy_into(logits, labels, result.grad_logits);
  return result;
}

float softmax_cross_entropy_into(const Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 Tensor& grad_logits) {
  check_logits_labels(logits, labels);
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);

  grad_logits.reset_for_overwrite(logits.shape());
  const float inv_batch = 1.0f / static_cast<float>(batch);
  double loss_acc = 0.0;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.data().data() + b * classes;
    float* grad_row = grad_logits.data().data() + b * classes;
    const float log_sum = softmax_row(row, classes, grad_row);
    const auto label = static_cast<std::size_t>(labels[b]);
    loss_acc += static_cast<double>(log_sum - row[label]);
    // d/dlogits of mean CE: (softmax - onehot) / batch.
    for (std::size_t j = 0; j < classes; ++j) grad_row[j] *= inv_batch;
    grad_row[label] -= inv_batch;
  }
  return static_cast<float>(loss_acc / static_cast<double>(batch));
}

float cross_entropy_value(const Tensor& logits,
                          std::span<const std::int32_t> labels) {
  check_logits_labels(logits, labels);
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  std::vector<float> scratch(classes);
  double loss_acc = 0.0;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.data().data() + b * classes;
    const float log_sum = softmax_row(row, classes, scratch.data());
    loss_acc += static_cast<double>(
        log_sum - row[static_cast<std::size_t>(labels[b])]);
  }
  return static_cast<float>(loss_acc / static_cast<double>(batch));
}

void per_example_cross_entropy(const Tensor& logits,
                               std::span<const std::int32_t> labels,
                               std::span<float> out_losses) {
  check_logits_labels(logits, labels);
  if (out_losses.size() != labels.size()) {
    throw std::invalid_argument("per_example_cross_entropy: output size mismatch");
  }
  const std::size_t classes = logits.dim(1);
  std::vector<float> scratch(classes);
  for (std::size_t b = 0; b < labels.size(); ++b) {
    const float* row = logits.data().data() + b * classes;
    const float log_sum = softmax_row(row, classes, scratch.data());
    out_losses[b] = log_sum - row[static_cast<std::size_t>(labels[b])];
  }
}

std::size_t count_correct(const Tensor& logits,
                          std::span<const std::int32_t> labels) {
  check_logits_labels(logits, labels);
  const std::size_t classes = logits.dim(1);
  std::size_t correct = 0;
  for (std::size_t b = 0; b < labels.size(); ++b) {
    const float* row = logits.data().data() + b * classes;
    const std::size_t pred = static_cast<std::size_t>(
        std::max_element(row, row + classes) - row);
    if (pred == static_cast<std::size_t>(labels[b])) ++correct;
  }
  return correct;
}

}  // namespace middlefl::nn
