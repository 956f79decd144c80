#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "optim/adam.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/sgd.hpp"
#include "parallel/rng.hpp"

namespace {

using middlefl::optim::Adam;
using middlefl::optim::AdamConfig;
using middlefl::optim::Sgd;
using middlefl::optim::SgdConfig;

TEST(Sgd, PlainStep) {
  Sgd sgd({.learning_rate = 0.1});
  std::vector<float> params{1.0f, 2.0f};
  const std::vector<float> grads{10.0f, -10.0f};
  sgd.step(params, grads);
  // Tolerance, not exact: with FMA contraction (-march=native) the update
  // 1 - 0.1*10 is computed with an unrounded product and lands ~1e-8 off 0.
  EXPECT_NEAR(params[0], 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(params[1], 3.0f);
}

TEST(Sgd, MomentumAccumulates) {
  Sgd sgd({.learning_rate = 1.0, .momentum = 0.5});
  std::vector<float> params{0.0f};
  const std::vector<float> grads{1.0f};
  sgd.step(params, grads);  // v=1, p=-1
  EXPECT_FLOAT_EQ(params[0], -1.0f);
  sgd.step(params, grads);  // v=1.5, p=-2.5
  EXPECT_FLOAT_EQ(params[0], -2.5f);
  sgd.reset();
  sgd.step(params, grads);  // momentum cleared: v=1, p=-3.5
  EXPECT_FLOAT_EQ(params[0], -3.5f);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  Sgd sgd({.learning_rate = 0.1, .weight_decay = 1.0});
  std::vector<float> params{1.0f};
  const std::vector<float> grads{0.0f};
  sgd.step(params, grads);
  EXPECT_FLOAT_EQ(params[0], 0.9f);
}

TEST(Sgd, ValidatesConfig) {
  EXPECT_THROW(Sgd({.learning_rate = 0.0}), std::invalid_argument);
  EXPECT_THROW(Sgd({.learning_rate = 0.1, .momentum = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Sgd({.learning_rate = 0.1, .weight_decay = -1.0}),
               std::invalid_argument);
}

TEST(Sgd, SizeMismatchThrows) {
  Sgd sgd({.learning_rate = 0.1});
  std::vector<float> params{1.0f};
  const std::vector<float> grads{1.0f, 2.0f};
  EXPECT_THROW(sgd.step(params, grads), std::invalid_argument);
}

TEST(Sgd, CloneConfigIsFresh) {
  Sgd sgd({.learning_rate = 0.5, .momentum = 0.9});
  std::vector<float> params{0.0f};
  const std::vector<float> grads{1.0f};
  sgd.step(params, grads);
  auto clone = sgd.clone_config();
  EXPECT_EQ(clone->learning_rate(), 0.5);
  // A fresh clone has no momentum state: its first step is a plain step.
  std::vector<float> p2{0.0f};
  clone->step(p2, grads);
  EXPECT_FLOAT_EQ(p2[0], -0.5f);
}

TEST(Adam, FirstStepIsSignedLr) {
  // With bias correction, the very first Adam step is ~ -lr * sign(grad).
  Adam adam({.learning_rate = 0.01});
  std::vector<float> params{0.0f, 0.0f};
  const std::vector<float> grads{3.0f, -0.5f};
  adam.step(params, grads);
  EXPECT_NEAR(params[0], -0.01f, 1e-4);
  EXPECT_NEAR(params[1], 0.01f, 1e-4);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2; gradient 2(x - 3).
  Adam adam({.learning_rate = 0.1});
  std::vector<float> x{0.0f};
  for (int i = 0; i < 500; ++i) {
    const std::vector<float> grad{2.0f * (x[0] - 3.0f)};
    adam.step(x, grad);
  }
  EXPECT_NEAR(x[0], 3.0f, 0.05f);
}

TEST(Adam, ResetClearsStepCount) {
  Adam adam({.learning_rate = 0.01});
  std::vector<float> params{0.0f};
  const std::vector<float> grads{1.0f};
  adam.step(params, grads);
  adam.step(params, grads);
  EXPECT_EQ(adam.step_count(), 2u);
  adam.reset();
  EXPECT_EQ(adam.step_count(), 0u);
}

/// The per-element Adam update, one scalar at a time, as Adam::step
/// computed it before its loop was vectorised.
void adam_oracle_step(const AdamConfig& cfg, std::size_t t,
                      std::span<float> params, std::span<const float> grads,
                      std::vector<float>& m, std::vector<float>& v) {
  const auto b1 = static_cast<float>(cfg.beta1);
  const auto b2 = static_cast<float>(cfg.beta2);
  const auto eps = static_cast<float>(cfg.epsilon);
  const auto wd = static_cast<float>(cfg.weight_decay);
  const double bias1 = 1.0 - std::pow(cfg.beta1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(cfg.beta2, static_cast<double>(t));
  const auto alpha =
      static_cast<float>(cfg.learning_rate * std::sqrt(bias2) / bias1);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float g = grads[i] + wd * params[i];
    m[i] = b1 * m[i] + (1.0f - b1) * g;
    v[i] = b2 * v[i] + (1.0f - b2) * g * g;
    params[i] -= alpha * m[i] / (std::sqrt(v[i]) + eps);
  }
}

TEST(Adam, VectorStepMatchesScalarOracleBitwise) {
  // 40 steps over gradients at four scales, subnormal (1e-40) included, on
  // a length that leaves a vector tail; with and without weight decay.
  constexpr std::size_t kParams = 1031;
  for (const double weight_decay : {0.0, 1e-4}) {
    for (const float scale : {1e-40f, 1e-20f, 1e-3f, 1.0f}) {
      const AdamConfig cfg{.learning_rate = 0.002,
                           .weight_decay = weight_decay};
      Adam adam(cfg);
      middlefl::parallel::Xoshiro256 rng(17);
      std::vector<float> params(kParams);
      for (auto& p : params) p = static_cast<float>(rng.normal()) * 0.1f;
      std::vector<float> expected = params;
      std::vector<float> m(kParams, 0.0f);
      std::vector<float> v(kParams, 0.0f);
      std::vector<float> grads(kParams);
      for (std::size_t t = 1; t <= 40; ++t) {
        for (auto& g : grads) g = static_cast<float>(rng.normal()) * scale;
        adam.step(params, grads);
        adam_oracle_step(cfg, t, expected, grads, m, v);
        ASSERT_EQ(std::memcmp(params.data(), expected.data(),
                              kParams * sizeof(float)),
                  0)
            << "scale " << scale << " weight decay " << weight_decay
            << " step " << t;
      }
    }
  }
}

TEST(Adam, ValidatesConfig) {
  EXPECT_THROW(Adam({.learning_rate = -1.0}), std::invalid_argument);
  EXPECT_THROW(Adam({.learning_rate = 0.1, .beta1 = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Adam({.learning_rate = 0.1, .beta2 = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(Adam({.learning_rate = 0.1, .epsilon = 0.0}),
               std::invalid_argument);
}

TEST(SgdVsAdam, BothMinimizeConvexProblem) {
  const auto run = [](middlefl::optim::Optimizer& opt) {
    std::vector<float> x{5.0f};
    for (int i = 0; i < 300; ++i) {
      const std::vector<float> grad{2.0f * x[0]};
      opt.step(x, grad);
    }
    return std::abs(x[0]);
  };
  Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  Adam adam({.learning_rate = 0.05});
  EXPECT_LT(run(sgd), 0.05f);
  EXPECT_LT(run(adam), 0.05f);
}

// --- LR schedules ---

TEST(LrSchedule, Constant) {
  const auto lr = middlefl::optim::constant_lr(0.02);
  EXPECT_EQ(lr(0), 0.02);
  EXPECT_EQ(lr(1000), 0.02);
}

TEST(LrSchedule, Theorem1Diminishing) {
  // gamma = max(8*beta/mu, I); eta_t = 2 / (mu (gamma + t)).
  const double mu = 0.1, beta = 1.0;
  const std::size_t local_steps = 10;
  const auto lr = middlefl::optim::theorem1_lr(mu, beta, local_steps);
  const double gamma = std::max(8.0 * beta / mu, 10.0);
  EXPECT_NEAR(lr(0), 2.0 / (mu * gamma), 1e-12);
  EXPECT_GT(lr(0), lr(100));
  EXPECT_GT(lr(100), lr(10000));
}

}  // namespace
