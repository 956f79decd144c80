// FedAvg (Eq. 6/7) through comm::InProcessCommunicator::all_reduce.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "comm/communicator.hpp"

namespace {

using middlefl::comm::Contribution;

/// all_reduce into a fresh vector sized by the first contribution.
std::vector<float> average(std::span<const Contribution> models) {
  std::vector<float> out(models.empty() ? 0 : models.front().params.size());
  middlefl::comm::InProcessCommunicator(nullptr).all_reduce(models, out);
  return out;
}

TEST(WeightedAverage, UniformWeightsIsMean) {
  const std::vector<float> a{1, 2};
  const std::vector<float> b{3, 6};
  const std::vector<Contribution> models{{a, 1.0}, {b, 1.0}};
  const auto avg = average(models);
  EXPECT_FLOAT_EQ(avg[0], 2.0f);
  EXPECT_FLOAT_EQ(avg[1], 4.0f);
}

TEST(WeightedAverage, DataSizeWeighting) {
  // FedAvg (Eq. 6): weights proportional to d_m.
  const std::vector<float> a{0};
  const std::vector<float> b{10};
  const std::vector<Contribution> models{{a, 3.0}, {b, 1.0}};
  const auto avg = average(models);
  EXPECT_FLOAT_EQ(avg[0], 2.5f);
}

TEST(WeightedAverage, SingleModelIdentity) {
  const std::vector<float> a{1.5f, -2.5f};
  const std::vector<Contribution> models{{a, 7.0}};
  const auto avg = average(models);
  EXPECT_FLOAT_EQ(avg[0], 1.5f);
  EXPECT_FLOAT_EQ(avg[1], -2.5f);
}

TEST(WeightedAverage, ZeroWeightModelIgnored) {
  const std::vector<float> a{1};
  const std::vector<float> b{1000};
  const std::vector<Contribution> models{{a, 1.0}, {b, 0.0}};
  const auto avg = average(models);
  EXPECT_FLOAT_EQ(avg[0], 1.0f);
}

TEST(WeightedAverage, ScaleInvariantInWeights) {
  const std::vector<float> a{2, 4};
  const std::vector<float> b{6, 8};
  const std::vector<Contribution> m1{{a, 1.0}, {b, 2.0}};
  const std::vector<Contribution> m2{{a, 10.0}, {b, 20.0}};
  const auto avg1 = average(m1);
  const auto avg2 = average(m2);
  EXPECT_FLOAT_EQ(avg1[0], avg2[0]);
  EXPECT_FLOAT_EQ(avg1[1], avg2[1]);
}

TEST(WeightedAverage, ConvexHullProperty) {
  const std::vector<float> a{-1, 5};
  const std::vector<float> b{3, 7};
  const std::vector<Contribution> models{{a, 0.3}, {b, 0.7}};
  const auto avg = average(models);
  EXPECT_GE(avg[0], -1.0f);
  EXPECT_LE(avg[0], 3.0f);
  EXPECT_GE(avg[1], 5.0f);
  EXPECT_LE(avg[1], 7.0f);
}

TEST(WeightedAverage, OrderIndependent) {
  const std::vector<float> a{1, 2, 3};
  const std::vector<float> b{4, 5, 6};
  const std::vector<float> c{7, 8, 9};
  const std::vector<Contribution> abc{{a, 1.0}, {b, 2.0}, {c, 3.0}};
  const std::vector<Contribution> cba{{c, 3.0}, {b, 2.0}, {a, 1.0}};
  const auto avg1 = average(abc);
  const auto avg2 = average(cba);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(avg1[i], avg2[i], 1e-6f);
  }
}

TEST(WeightedAverage, ValidatesInput) {
  const std::vector<float> a{1, 2};
  const std::vector<float> short_vec{1};
  EXPECT_THROW(average(std::vector<Contribution>{}),
               std::invalid_argument);
  EXPECT_THROW(average(std::vector<Contribution>{{a, -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(average(std::vector<Contribution>{{a, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      average(std::vector<Contribution>{{a, 1.0}, {short_vec, 1.0}}),
      std::invalid_argument);
}

TEST(WeightedAverage, InPlaceOverloadWritesOut) {
  const std::vector<float> a{2, 2};
  const std::vector<float> b{4, 4};
  std::vector<float> out(2, -1.0f);
  const std::vector<Contribution> models{{a, 1.0}, {b, 1.0}};
  middlefl::comm::InProcessCommunicator(nullptr).all_reduce(models, out);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

}  // namespace
