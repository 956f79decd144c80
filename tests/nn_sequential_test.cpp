#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "isa_guard.hpp"
#include "nn/activations.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_factory.hpp"
#include "nn/sequential.hpp"
#include "parallel/rng.hpp"

namespace {

using middlefl::nn::build_model;
using middlefl::nn::Flatten;
using middlefl::nn::Layer;
using middlefl::nn::Linear;
using middlefl::nn::ModelArch;
using middlefl::nn::ModelSpec;
using middlefl::nn::ReLU;
using middlefl::nn::Sequential;
using middlefl::nn::Shape;
using middlefl::nn::Tensor;
using middlefl::parallel::Xoshiro256;
using middlefl::tensor::IsaLevel;
using middlefl::test_support::IsaGuard;
using middlefl::test_support::supported_isas;

std::unique_ptr<Sequential> small_mlp(std::uint64_t seed) {
  auto model = std::make_unique<Sequential>(Shape{4});
  model->add(std::make_unique<Linear>(4, 8));
  model->add(std::make_unique<ReLU>());
  model->add(std::make_unique<Linear>(8, 3));
  model->build(seed);
  return model;
}

TEST(Sequential, BuildComputesShapesAndParams) {
  auto model = small_mlp(1);
  EXPECT_TRUE(model->built());
  EXPECT_EQ(model->output_shape(), Shape{3});
  EXPECT_EQ(model->param_count(), 4u * 8 + 8 + 8 * 3 + 3);
  EXPECT_EQ(model->layer_count(), 3u);
}

TEST(Sequential, AddAfterBuildThrows) {
  auto model = small_mlp(1);
  EXPECT_THROW(model->add(std::make_unique<ReLU>()), std::logic_error);
}

TEST(Sequential, BuildTwiceThrows) {
  auto model = small_mlp(1);
  EXPECT_THROW(model->build(2), std::logic_error);
}

TEST(Sequential, EmptyModelThrows) {
  Sequential model(Shape{4});
  EXPECT_THROW(model.build(1), std::logic_error);
}

TEST(Sequential, ForwardShape) {
  auto model = small_mlp(3);
  Xoshiro256 rng(5);
  const Tensor batch = Tensor::randn(Shape{7, 4}, rng);
  const Tensor& out = model->forward(batch, false);
  EXPECT_EQ(out.shape(), (Shape{7, 3}));
}

TEST(Sequential, ForwardRejectsWrongShape) {
  auto model = small_mlp(3);
  const Tensor bad(Shape{2, 5});
  EXPECT_THROW(model->forward(bad, false), std::invalid_argument);
}

TEST(Sequential, DeterministicInitialization) {
  auto a = small_mlp(42);
  auto b = small_mlp(42);
  ASSERT_EQ(a->param_count(), b->param_count());
  for (std::size_t i = 0; i < a->param_count(); ++i) {
    EXPECT_EQ(a->parameters()[i], b->parameters()[i]);
  }
  auto c = small_mlp(43);
  bool any_diff = false;
  for (std::size_t i = 0; i < a->param_count(); ++i) {
    any_diff = any_diff || a->parameters()[i] != c->parameters()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(Sequential, SetParametersRoundTrip) {
  auto model = small_mlp(4);
  std::vector<float> values(model->param_count(), 0.5f);
  model->set_parameters(values);
  for (float p : model->parameters()) EXPECT_EQ(p, 0.5f);
  std::vector<float> wrong(model->param_count() + 1);
  EXPECT_THROW(model->set_parameters(wrong), std::invalid_argument);
}

TEST(Sequential, CloneCopiesParametersButNotState) {
  auto model = small_mlp(5);
  auto copy = model->clone();
  ASSERT_EQ(copy->param_count(), model->param_count());
  for (std::size_t i = 0; i < model->param_count(); ++i) {
    EXPECT_EQ(copy->parameters()[i], model->parameters()[i]);
  }
  // Mutating the clone leaves the original untouched.
  copy->parameters()[0] += 1.0f;
  EXPECT_NE(copy->parameters()[0], model->parameters()[0]);
}

TEST(Sequential, BackwardWithoutTrainingForwardThrows) {
  auto model = small_mlp(6);
  Xoshiro256 rng(6);
  const Tensor batch = Tensor::randn(Shape{2, 4}, rng);
  const Tensor& out = model->forward(batch, false);
  EXPECT_THROW(model->backward(out), std::logic_error);
}

TEST(Sequential, ZeroGradClears) {
  auto model = small_mlp(7);
  Xoshiro256 rng(7);
  const Tensor batch = Tensor::randn(Shape{3, 4}, rng);
  const Tensor& logits = model->forward(batch, true);
  auto loss = middlefl::nn::softmax_cross_entropy(
      logits, std::vector<std::int32_t>{0, 1, 2});
  model->backward(loss.grad_logits);
  bool any_nonzero = false;
  for (float g : model->gradients()) any_nonzero = any_nonzero || g != 0.0f;
  EXPECT_TRUE(any_nonzero);
  model->zero_grad();
  for (float g : model->gradients()) EXPECT_EQ(g, 0.0f);
}

TEST(Sequential, SummaryMentionsLayersAndParams) {
  auto model = small_mlp(8);
  const std::string s = model->summary();
  EXPECT_NE(s.find("Linear"), std::string::npos);
  EXPECT_NE(s.find("ReLU"), std::string::npos);
  EXPECT_NE(s.find("params="), std::string::npos);
}

// --- First-layer skip ---

/// Forwards every call to the wrapped layer, except that a null grad_input
/// from Sequential::backward is replaced by a scratch tensor: the wrapped
/// layer then does the input-gradient work the skip avoids.
class FullInputGrad final : public Layer {
 public:
  explicit FullInputGrad(std::unique_ptr<Layer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Shape build(const Shape& input_shape) override {
    return inner_->build(input_shape);
  }
  std::size_t param_count() const override { return inner_->param_count(); }
  void bind(std::span<float> params, std::span<float> grads) override {
    inner_->bind(params, grads);
  }
  void init_params(Xoshiro256& rng) override { inner_->init_params(rng); }
  void forward(const Tensor& input, Tensor& output, bool training) override {
    inner_->forward(input, output, training);
  }
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override {
    saw_null_grad_input = grad_input == nullptr;
    inner_->backward(input, grad_output,
                     grad_input != nullptr ? grad_input : &scratch_);
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<FullInputGrad>(inner_->clone());
  }

  bool saw_null_grad_input = false;

 private:
  std::unique_ptr<Layer> inner_;
  Tensor scratch_;
};

/// Trains one batch through two rebuilds of `source`: as is, and with its
/// first parameterized layer wrapped in FullInputGrad. Skipping the input
/// gradient must not move a bit of the logits or the parameter gradients.
void expect_skip_leaves_grads_unchanged(const Sequential& source,
                                        std::size_t batch,
                                        std::size_t classes) {
  Sequential skipped(source.input_shape());
  Sequential full(source.input_shape());
  FullInputGrad* probe = nullptr;
  for (std::size_t i = 0; i < source.layer_count(); ++i) {
    skipped.add(source.layer(i).clone());
    auto layer = source.layer(i).clone();
    if (probe == nullptr && layer->param_count() > 0) {
      auto wrapped = std::make_unique<FullInputGrad>(std::move(layer));
      probe = wrapped.get();
      full.add(std::move(wrapped));
    } else {
      full.add(std::move(layer));
    }
  }
  ASSERT_NE(probe, nullptr);
  skipped.build(11);
  full.build(11);

  std::vector<std::size_t> dims{batch};
  const auto& sample_dims = source.input_shape().dims();
  dims.insert(dims.end(), sample_dims.begin(), sample_dims.end());
  Xoshiro256 rng(12);
  const Tensor x = Tensor::randn(Shape(dims), rng);
  std::vector<std::int32_t> labels(batch);
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(rng.bounded(classes));
  }

  const Tensor& logits_skipped = skipped.forward(x, true);
  const Tensor& logits_full = full.forward(x, true);
  ASSERT_EQ(0, std::memcmp(logits_skipped.data().data(),
                           logits_full.data().data(),
                           logits_full.numel() * sizeof(float)));
  const auto loss = middlefl::nn::softmax_cross_entropy(logits_skipped, labels);
  skipped.zero_grad();
  full.zero_grad();
  skipped.backward(loss.grad_logits);
  full.backward(loss.grad_logits);

  EXPECT_TRUE(probe->saw_null_grad_input);
  const auto g_skipped = skipped.gradients();
  const auto g_full = full.gradients();
  ASSERT_EQ(g_skipped.size(), g_full.size());
  EXPECT_EQ(0, std::memcmp(g_skipped.data(), g_full.data(),
                           g_full.size() * sizeof(float)))
      << "parameter gradients changed";
}

TEST(SequentialFirstLayerSkip, Cnn2ParamGradsUnchanged) {
  ModelSpec spec;
  spec.arch = ModelArch::kCnn2;
  spec.input_shape = Shape{1, 8, 8};
  spec.num_classes = 4;
  spec.hidden = 16;
  spec.base_channels = 4;
  expect_skip_leaves_grads_unchanged(*build_model(spec, 1), 6, 4);
}

TEST(SequentialFirstLayerSkip, Mlp2FlattenFirstParamGradsUnchanged) {
  ModelSpec spec;
  spec.arch = ModelArch::kMlp2;
  spec.input_shape = Shape{1, 6, 6};
  spec.num_classes = 4;
  spec.hidden = 16;
  expect_skip_leaves_grads_unchanged(*build_model(spec, 1), 6, 4);
}

// --- ReLU -> MaxPool2d backward fusion ---

TEST(PoolReluFusion, Cnn2SequentialMatchesUnfusedLayers) {
  // CNN-2 as Sequential runs it (conv epilogues without the ReLU mask,
  // each pool's backward folding in its ReLU's) against the same layers
  // each wrapped in FullInputGrad, whose type Sequential fuses nothing
  // around, so every layer runs its own forward and backward (conv1's
  // extra input gradient leaves the parameter gradients alone). conv1's
  // channel 0 gets a NaN bias and channel 1 a large negative one, so every
  // pool1 window of theirs has a pre-activation max that is NaN or <= 0.
  // The 7 x 10 input leaves both pools a ragged row and column.
  for (const Shape& input_shape :
       {Shape{1, 16, 16}, Shape{1, 8, 8}, Shape{1, 7, 10}}) {
    ModelSpec spec;
    spec.arch = ModelArch::kCnn2;
    spec.input_shape = input_shape;
    spec.num_classes = 10;
    spec.hidden = 16;
    spec.base_channels = 4;
    const auto source = build_model(spec, 3);
    std::vector<float> params(source->parameters().begin(),
                              source->parameters().end());
    const std::size_t conv1_bias = 4 * 9;  // after conv1's 4 x 1 x 3 x 3
    params[conv1_bias] = std::numeric_limits<float>::quiet_NaN();
    params[conv1_bias + 1] = -100.0f;
    for (const IsaLevel level : supported_isas()) {
      SCOPED_TRACE(::testing::Message()
                   << "isa=" << middlefl::tensor::to_string(level) << " "
                   << input_shape.to_string());
      IsaGuard guard(level);
      Sequential fused(input_shape);
      Sequential unfused(input_shape);
      for (std::size_t i = 0; i < source->layer_count(); ++i) {
        fused.add(source->layer(i).clone());
        unfused.add(
            std::make_unique<FullInputGrad>(source->layer(i).clone()));
      }
      fused.build(1);
      unfused.build(1);
      fused.set_parameters(params);
      unfused.set_parameters(params);

      constexpr std::size_t kBatch = 6;
      std::vector<std::size_t> dims{kBatch};
      dims.insert(dims.end(), input_shape.dims().begin(),
                  input_shape.dims().end());
      Xoshiro256 rng(13);
      const Tensor x = Tensor::randn(Shape(dims), rng);
      std::vector<std::int32_t> labels(kBatch);
      for (auto& label : labels) {
        label = static_cast<std::int32_t>(rng.bounded(10));
      }
      const Tensor& logits = fused.forward(x, true);
      const Tensor& want_logits = unfused.forward(x, true);
      ASSERT_EQ(0, std::memcmp(logits.data().data(), want_logits.data().data(),
                               logits.numel() * sizeof(float)));
      const auto loss = middlefl::nn::softmax_cross_entropy(logits, labels);
      fused.zero_grad();
      unfused.zero_grad();
      fused.backward(loss.grad_logits);
      unfused.backward(loss.grad_logits);
      const auto got = fused.gradients();
      const auto want = unfused.gradients();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               want.size() * sizeof(float)))
          << "parameter gradients";
    }
  }
}

// --- Model factory ---

TEST(ModelFactory, ArchRoundTrip) {
  using middlefl::nn::parse_model_arch;
  using middlefl::nn::to_string;
  for (auto arch : {ModelArch::kLogistic, ModelArch::kMlp, ModelArch::kCnn2,
                    ModelArch::kCnn3}) {
    EXPECT_EQ(parse_model_arch(to_string(arch)), arch);
  }
  EXPECT_THROW(parse_model_arch("resnet"), std::invalid_argument);
}

TEST(ModelFactory, Cnn2MatchesPaperStructure) {
  // 2 conv + 2 fc, as used for MNIST/EMNIST (§6.1.2).
  ModelSpec spec;
  spec.arch = ModelArch::kCnn2;
  spec.input_shape = Shape{1, 16, 16};
  spec.num_classes = 10;
  auto model = build_model(spec, 1);
  EXPECT_EQ(model->output_shape(), Shape{10});
  const std::string s = model->summary();
  // Two Conv2d occurrences.
  std::size_t convs = 0;
  for (std::size_t pos = s.find("Conv2d"); pos != std::string::npos;
       pos = s.find("Conv2d", pos + 1)) {
    ++convs;
  }
  EXPECT_EQ(convs, 2u);
}

TEST(ModelFactory, Cnn3HasThreeConvs) {
  ModelSpec spec;
  spec.arch = ModelArch::kCnn3;
  spec.input_shape = Shape{3, 16, 16};
  spec.num_classes = 10;
  auto model = build_model(spec, 1);
  const std::string s = model->summary();
  std::size_t convs = 0;
  for (std::size_t pos = s.find("Conv2d"); pos != std::string::npos;
       pos = s.find("Conv2d", pos + 1)) {
    ++convs;
  }
  EXPECT_EQ(convs, 3u);
}

TEST(ModelFactory, MlpAndLogisticWork) {
  ModelSpec mlp;
  mlp.arch = ModelArch::kMlp;
  mlp.input_shape = Shape{1, 8, 8};
  mlp.num_classes = 26;
  mlp.hidden = 32;
  auto mlp_model = build_model(mlp, 2);
  EXPECT_EQ(mlp_model->output_shape(), Shape{26});

  ModelSpec logistic;
  logistic.arch = ModelArch::kLogistic;
  logistic.input_shape = Shape{5};
  logistic.num_classes = 3;
  auto log_model = build_model(logistic, 2);
  EXPECT_EQ(log_model->param_count(), 5u * 3 + 3);
}

TEST(ModelFactory, Mlp2HasTwoHiddenLayers) {
  ModelSpec spec;
  spec.arch = ModelArch::kMlp2;
  spec.input_shape = Shape{1, 8, 8};
  spec.num_classes = 10;
  spec.hidden = 48;
  auto model = build_model(spec, 4);
  const std::string s = model->summary();
  std::size_t linears = 0;
  for (std::size_t pos = s.find("Linear"); pos != std::string::npos;
       pos = s.find("Linear", pos + 1)) {
    ++linears;
  }
  EXPECT_EQ(linears, 3u);  // 48 -> 24 -> classes
  EXPECT_NE(s.find("->24)"), std::string::npos);
}

TEST(ModelFactory, ConvArchRejectsFlatInput) {
  ModelSpec spec;
  spec.arch = ModelArch::kCnn2;
  spec.input_shape = Shape{64};
  EXPECT_THROW(build_model(spec, 1), std::invalid_argument);
}

}  // namespace
