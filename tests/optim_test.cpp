#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "optim/adam.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/sgd.hpp"

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
