#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "core/entities.hpp"
#include "core/fleet.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/model_factory.hpp"
#include "optim/sgd.hpp"

namespace {

using middlefl::core::Cloud;
using middlefl::core::Device;
using middlefl::core::DeviceRegistry;
using middlefl::core::Edge;
using middlefl::core::Snapshot;
using middlefl::core::SnapshotStore;
using middlefl::data::Dataset;
using middlefl::nn::ModelArch;
using middlefl::nn::ModelSpec;
using middlefl::parallel::Xoshiro256;
using middlefl::tensor::Shape;

/// Registry-backed devices: a shared base snapshot every device follows,
/// the pooled model/optimizer prototypes every device trains through, and
/// a partition giving each of two devices the whole dataset.
struct Fixture {
  Dataset dataset;
  ModelSpec spec;
  DeviceRegistry registry;
  Snapshot base;

  Fixture() : dataset(make_dataset()) {
    spec.arch = ModelArch::kMlp;
    spec.input_shape = Shape{1, 6, 6};
    spec.num_classes = 3;
    spec.hidden = 8;
    const auto model = middlefl::nn::build_model(spec, 7);
    registry.set_prototypes(
        *model, middlefl::optim::Sgd(middlefl::optim::SgdConfig{
                    .learning_rate = 0.05, .momentum = 0.9}));
    base = SnapshotStore::global().publish(model->parameters());
    std::vector<std::size_t> all(dataset.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    middlefl::data::Partition partition;
    partition.device_indices.assign(2, all);
    registry.set_data(dataset, std::move(partition));
    registry.broadcast(base);
  }

  static Dataset make_dataset() {
    middlefl::data::SyntheticConfig cfg;
    cfg.num_classes = 3;
    cfg.height = 6;
    cfg.width = 6;
    const middlefl::data::SyntheticGenerator gen(cfg);
    return gen.generate(30, 0);
  }

  /// Device `id`, following `base`.
  Device make_device(std::size_t id) { return registry.at(id); }
};

TEST(Device, ConstructionValidation) {
  Fixture fx;
  {
    // An empty partition fails the registry's set_data, naming the device.
    DeviceRegistry empty_data;
    middlefl::data::Partition partition;
    partition.device_indices.resize(1);
    try {
      empty_data.set_data(fx.dataset, std::move(partition));
      FAIL() << "expected an empty-partition error";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "Device 0: empty data partition");
    }
    EXPECT_TRUE(empty_data.empty());
  }
  {
    // Present from set_data, but nothing to read before the first block.
    DeviceRegistry unbroadcast;
    unbroadcast.set_data(fx.dataset, middlefl::data::partition_fleet_window(
                                         fx.dataset, 3, 4));
    EXPECT_EQ(unbroadcast.size(), 3u);
    EXPECT_THROW(unbroadcast.at(0), std::logic_error);
    EXPECT_THROW(unbroadcast.at(3), std::out_of_range);
  }
  const Device device = fx.make_device(0);
  EXPECT_EQ(device.param_count(), fx.base->size());
  EXPECT_TRUE(device.shares_snapshot());
  EXPECT_EQ(device.params_version(), fx.base->version());
}

TEST(Device, TrainReducesLossOnItsData) {
  Fixture fx;
  Device device = fx.make_device(0);
  Xoshiro256 rng(1);
  const auto first = device.train(10, 16, 0.05, rng);
  Xoshiro256 rng2(2);
  // Continue training; average loss over the next round should be lower.
  const auto second = device.train(10, 16, 0.05, rng2);
  EXPECT_LT(second.mean_loss, first.mean_loss);
}

TEST(Device, TrainChangesParameters) {
  Fixture fx;
  Device device = fx.make_device(0);
  const std::vector<float> before(device.params().begin(),
                                  device.params().end());
  Xoshiro256 rng(3);
  device.train(2, 8, 0.05, rng);
  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    changed = changed || before[i] != device.params()[i];
  }
  EXPECT_TRUE(changed);
}

TEST(Device, StatUtilityPopulatedAfterTraining) {
  Fixture fx;
  Device device = fx.make_device(0);
  EXPECT_FALSE(device.stat_utility().has_value());
  Xoshiro256 rng(4);
  device.train(2, 8, 0.05, rng);
  ASSERT_TRUE(device.stat_utility().has_value());
  EXPECT_GT(*device.stat_utility(), 0.0);
}

TEST(Device, SetParamsRoundTrip) {
  Fixture fx;
  Device device = fx.make_device(0);
  std::vector<float> zeros(device.params().size(), 0.0f);
  device.set_params(zeros);
  for (float p : device.params()) EXPECT_EQ(p, 0.0f);
}

TEST(Device, TrainValidatesArguments) {
  Fixture fx;
  Device device = fx.make_device(0);
  Xoshiro256 rng(5);
  EXPECT_THROW(device.train(0, 8, 0.05, rng), std::invalid_argument);
  EXPECT_THROW(device.train(2, 0, 0.05, rng), std::invalid_argument);
}

TEST(Device, TrainDeterministicGivenRngAndStart) {
  Fixture fx;
  Device a = fx.make_device(0);
  Device b = fx.make_device(1);
  b.set_params(a.params());
  Xoshiro256 rng_a(6), rng_b(6);
  a.train(5, 8, 0.05, rng_a);
  b.train(5, 8, 0.05, rng_b);
  for (std::size_t i = 0; i < a.params().size(); ++i) {
    EXPECT_EQ(a.params()[i], b.params()[i]);
  }
}

TEST(Device, OortUtilityMatchesFormula) {
  // U_stat = d_m * sqrt(mean squared per-sample loss on the final batch),
  // with the stats the training round itself reports.
  Fixture fx;
  Device device = fx.make_device(0);
  Xoshiro256 rng(21);
  const auto stats = device.train(3, 8, 0.05, rng);
  ASSERT_TRUE(device.stat_utility().has_value());
  const double expected = static_cast<double>(device.data_size()) *
                          std::sqrt(stats.mean_sq_loss);
  EXPECT_NEAR(*device.stat_utility(), expected, 1e-9);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_GT(stats.mean_loss, 0.0);
}

TEST(Edge, ParticipationAccumulates) {
  Edge edge(0, 4);
  EXPECT_EQ(edge.participation_weight(), 0.0);
  edge.add_participation(30.0);
  edge.add_participation(20.0);
  EXPECT_EQ(edge.participation_weight(), 50.0);
  edge.reset_participation();
  EXPECT_EQ(edge.participation_weight(), 0.0);
}

TEST(Edge, SetParamsValidatesSize) {
  Edge edge(0, 4);
  EXPECT_THROW(edge.set_params(std::vector<float>(3)), std::invalid_argument);
  const std::vector<float> good{1, 2, 3, 4};
  edge.set_params(good);
  EXPECT_EQ(edge.params()[2], 3.0f);
}

TEST(Cloud, SetParamsValidatesSize) {
  Cloud cloud(2);
  EXPECT_THROW(cloud.set_params(std::vector<float>(5)),
               std::invalid_argument);
  cloud.set_params(std::vector<float>{1.0f, 2.0f});
  EXPECT_EQ(cloud.params()[1], 2.0f);
}

}  // namespace
