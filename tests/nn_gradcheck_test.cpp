// Finite-difference gradient checks for every layer type, run through
// Sequential + softmax cross-entropy. These tests anchor the correctness of
// the whole training stack: if they pass, local SGD optimizes the real
// loss.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "parallel/rng.hpp"

namespace {

using middlefl::nn::Conv2d;
using middlefl::nn::Conv2dConfig;
using middlefl::nn::Flatten;
using middlefl::nn::Linear;
using middlefl::nn::MaxPool2d;
using middlefl::nn::ReLU;
using middlefl::nn::Sequential;
using middlefl::nn::Shape;
using middlefl::nn::Tanh;
using middlefl::nn::Tensor;
using middlefl::parallel::Xoshiro256;

float loss_at(Sequential& model, const Tensor& input,
              std::span<const std::int32_t> labels) {
  const Tensor& logits = model.forward(input, false);
  return middlefl::nn::cross_entropy_value(logits, labels);
}

struct GradCheckResult {
  /// Number of parameters whose relative error exceeds the tolerance.
  std::size_t failures = 0;
  std::size_t total = 0;
  /// Worst relative error among the PASSING majority is implied < tol;
  /// `worst` is the overall worst, for diagnostics.
  double worst = 0.0;
};

/// Central-difference check of d(loss)/d(theta_i) for every parameter.
/// ReLU/MaxPool kinks make a handful of coordinates non-differentiable
/// inside the finite-difference window, so the caller asserts a bound on
/// the *count* of failing coordinates instead of the max error (zero for
/// smooth networks).
GradCheckResult gradient_check(Sequential& model, const Tensor& input,
                               std::span<const std::int32_t> labels,
                               double tol = 0.05, float eps = 5e-3f) {
  const Tensor& logits = model.forward(input, true);
  auto result = middlefl::nn::softmax_cross_entropy(logits, labels);
  model.zero_grad();
  model.backward(result.grad_logits);
  std::vector<float> analytic(model.gradients().begin(),
                              model.gradients().end());

  GradCheckResult out;
  auto params = model.parameters();
  out.total = params.size();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float saved = params[i];
    params[i] = saved + eps;
    const double plus = loss_at(model, input, labels);
    params[i] = saved - eps;
    const double minus = loss_at(model, input, labels);
    params[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    const double denom =
        std::max({2e-2, std::abs(numeric),
                  std::abs(static_cast<double>(analytic[i]))});
    const double rel = std::abs(numeric - analytic[i]) / denom;
    out.worst = std::max(out.worst, rel);
    if (rel > tol) ++out.failures;
  }
  return out;
}

Tensor random_batch(const Shape& sample_shape, std::size_t batch,
                    Xoshiro256& rng) {
  std::vector<std::size_t> dims{batch};
  for (std::size_t d : sample_shape.dims()) dims.push_back(d);
  return Tensor::randn(Shape(dims), rng);
}

std::vector<std::int32_t> random_labels(std::size_t batch,
                                        std::size_t classes,
                                        Xoshiro256& rng) {
  std::vector<std::int32_t> labels(batch);
  for (auto& l : labels) l = static_cast<std::int32_t>(rng.bounded(classes));
  return labels;
}

TEST(GradCheck, LinearOnly) {
  Sequential model(Shape{5});
  model.add(std::make_unique<Linear>(5, 4));
  model.build(11);
  Xoshiro256 rng(21);
  const Tensor input = random_batch(Shape{5}, 3, rng);
  const auto labels = random_labels(3, 4, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_EQ(check.failures, 0u) << "worst rel error " << check.worst;
}

TEST(GradCheck, TwoLinearRelu) {
  Sequential model(Shape{6});
  model.add(std::make_unique<Linear>(6, 8));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(8, 3));
  model.build(12);
  Xoshiro256 rng(22);
  const Tensor input = random_batch(Shape{6}, 4, rng);
  const auto labels = random_labels(4, 3, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_LE(check.failures, check.total / 20) << "worst " << check.worst;
}

TEST(GradCheck, TanhMlp) {
  Sequential model(Shape{4});
  model.add(std::make_unique<Linear>(4, 6));
  model.add(std::make_unique<Tanh>());
  model.add(std::make_unique<Linear>(6, 3));
  model.build(13);
  Xoshiro256 rng(23);
  const Tensor input = random_batch(Shape{4}, 2, rng);
  const auto labels = random_labels(2, 3, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_EQ(check.failures, 0u) << "worst rel error " << check.worst;
}

TEST(GradCheck, ConvNoPadding) {
  Sequential model(Shape{1, 5, 5});
  model.add(std::make_unique<Conv2d>(Conv2dConfig{1, 2, 0, 3}));
  model.add(std::make_unique<Flatten>());
  model.add(std::make_unique<Linear>(0, 3));
  model.build(14);
  Xoshiro256 rng(24);
  const Tensor input = random_batch(Shape{1, 5, 5}, 2, rng);
  const auto labels = random_labels(2, 3, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_EQ(check.failures, 0u) << "worst rel error " << check.worst;
}

TEST(GradCheck, ConvWithPadding) {
  Sequential model(Shape{2, 6, 6});
  model.add(std::make_unique<Conv2d>(Conv2dConfig{2, 3, 1, 3}));
  model.add(std::make_unique<Flatten>());
  model.add(std::make_unique<Linear>(0, 4));
  model.build(15);
  Xoshiro256 rng(25);
  const Tensor input = random_batch(Shape{2, 6, 6}, 2, rng);
  const auto labels = random_labels(2, 4, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_EQ(check.failures, 0u) << "worst rel error " << check.worst;
}

TEST(GradCheck, ConvReluPoolStack) {
  Sequential model(Shape{1, 8, 8});
  model.add(std::make_unique<Conv2d>(Conv2dConfig{1, 2, 1, 3}));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>());
  model.add(std::make_unique<Flatten>());
  model.add(std::make_unique<Linear>(0, 3));
  model.build(16);
  Xoshiro256 rng(26);
  const Tensor input = random_batch(Shape{1, 8, 8}, 2, rng);
  const auto labels = random_labels(2, 3, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_LE(check.failures, 1 + check.total / 20) << "worst " << check.worst;
}

TEST(GradCheck, DeepConvStack) {
  Sequential model(Shape{1, 8, 8});
  model.add(std::make_unique<Conv2d>(Conv2dConfig{1, 2, 1, 3}));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>());
  model.add(std::make_unique<Conv2d>(Conv2dConfig{2, 4, 1, 3}));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>());
  model.add(std::make_unique<Flatten>());
  model.add(std::make_unique<Linear>(0, 5));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(5, 3));
  model.build(17);
  Xoshiro256 rng(27);
  const Tensor input = random_batch(Shape{1, 8, 8}, 2, rng);
  const auto labels = random_labels(2, 3, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_LE(check.failures, 1 + check.total / 20) << "worst " << check.worst;
}

TEST(GradCheck, ConvTanhStack) {
  // Tanh is smooth, so this whole stack admits an exact finite-difference
  // check (zero failing coordinates).
  Sequential model(Shape{1, 6, 6});
  model.add(std::make_unique<Conv2d>(Conv2dConfig{1, 2, 1, 3}));
  model.add(std::make_unique<Tanh>());
  model.add(std::make_unique<Flatten>());
  model.add(std::make_unique<Linear>(0, 3));
  model.build(20);
  Xoshiro256 rng(30);
  const Tensor input = random_batch(Shape{1, 6, 6}, 2, rng);
  const auto labels = random_labels(2, 3, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_EQ(check.failures, 0u) << "worst rel error " << check.worst;
}

TEST(GradCheck, BatchSizeOne) {
  Sequential model(Shape{3});
  model.add(std::make_unique<Linear>(3, 4));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(4, 2));
  model.build(18);
  Xoshiro256 rng(28);
  const Tensor input = random_batch(Shape{3}, 1, rng);
  const auto labels = random_labels(1, 2, rng);
  const auto check = gradient_check(model, input, labels);
  EXPECT_LE(check.failures, 1 + check.total / 20) << "worst " << check.worst;
}

// Per-layer INPUT gradient checks: with the scalar probe s(y) = <c, y> the
// exact d(s)/d(input) equals the layer's backward output for grad_output=c.
class InputGradCheck : public ::testing::Test {
 protected:
  /// Checks d<c, layer(x)>/dx against central differences on a built layer.
  static double input_grad_error(middlefl::nn::Layer& layer,
                                 const Shape& sample_shape, std::size_t batch,
                                 std::uint64_t seed) {
    Xoshiro256 rng(seed);
    Tensor input = random_batch(sample_shape, batch, rng);
    Tensor out;
    layer.forward(input, out, true);
    const Tensor probe = Tensor::randn(out.shape(), rng);
    Tensor grad_input;
    layer.backward(input, probe, &grad_input);

    double worst = 0.0;
    const float eps = 1e-2f;
    for (std::size_t i = 0; i < input.numel(); ++i) {
      const float saved = input[i];
      Tensor scratch;
      input[i] = saved + eps;
      layer.forward(input, scratch, false);
      double plus = 0.0;
      for (std::size_t j = 0; j < scratch.numel(); ++j) {
        plus += static_cast<double>(probe[j]) * scratch[j];
      }
      input[i] = saved - eps;
      layer.forward(input, scratch, false);
      double minus = 0.0;
      for (std::size_t j = 0; j < scratch.numel(); ++j) {
        minus += static_cast<double>(probe[j]) * scratch[j];
      }
      input[i] = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      const double denom = std::max(
          {1e-2, std::abs(numeric), std::abs(static_cast<double>(grad_input[i]))});
      worst = std::max(worst, std::abs(numeric - grad_input[i]) / denom);
    }
    return worst;
  }
};

TEST_F(InputGradCheck, Linear) {
  Linear layer(4, 5);
  layer.build(Shape{4});
  std::vector<float> params(layer.param_count());
  std::vector<float> grads(layer.param_count());
  layer.bind(params, grads);
  Xoshiro256 rng(31);
  layer.init_params(rng);
  EXPECT_LT(input_grad_error(layer, Shape{4}, 3, 131), 0.05);
}

TEST_F(InputGradCheck, Conv2d) {
  Conv2d layer(Conv2dConfig{2, 3, 1, 3});
  layer.build(Shape{2, 5, 5});
  std::vector<float> params(layer.param_count());
  std::vector<float> grads(layer.param_count());
  layer.bind(params, grads);
  Xoshiro256 rng(32);
  layer.init_params(rng);
  EXPECT_LT(input_grad_error(layer, Shape{2, 5, 5}, 2, 132), 0.05);
}

TEST_F(InputGradCheck, Tanh) {
  Tanh layer;
  layer.build(Shape{6});
  EXPECT_LT(input_grad_error(layer, Shape{6}, 3, 133), 0.05);
}

}  // namespace
