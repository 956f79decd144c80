// Edge-case and failure-path coverage across layers and the simulator.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mobility/trace.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::nn::Conv2d;
using middlefl::nn::Conv2dConfig;
using middlefl::nn::MaxPool2d;
using middlefl::nn::Shape;
using middlefl::nn::Tensor;
using middlefl::testing::SimBundle;

// --- Conv/pool geometry corners ---

TEST(ConvEdgeCases, RectangularInput) {
  Conv2d layer(Conv2dConfig{1, 2, 1, 3});
  EXPECT_EQ(layer.build(Shape{1, 4, 9}), (Shape{2, 4, 9}));
}

TEST(ConvEdgeCases, KernelEqualsInput) {
  Conv2d layer(Conv2dConfig{2, 4, 0, 5});
  EXPECT_EQ(layer.build(Shape{2, 5, 5}), (Shape{4, 1, 1}));
}

TEST(ConvEdgeCases, OneByOneInputWithPadding) {
  Conv2d layer(Conv2dConfig{1, 1, 1, 3});
  EXPECT_EQ(layer.build(Shape{1, 1, 1}), (Shape{1, 1, 1}));
  std::vector<float> params(layer.param_count());
  std::vector<float> grads(layer.param_count());
  // center weight 1 => identity on the single pixel.
  params[4] = 1.0f;
  layer.bind(params, grads);
  const Tensor input(Shape{1, 1, 1, 1}, {7.5f});
  Tensor out;
  layer.forward(input, out, false);
  EXPECT_FLOAT_EQ(out[0], 7.5f);
}

TEST(PoolEdgeCases, NonDivisibleInputTruncates) {
  MaxPool2d layer;
  // 5x5 with stride-2 windows -> floor((5-2)/2)+1 = 2.
  EXPECT_EQ(layer.build(Shape{1, 5, 5}), (Shape{1, 2, 2}));
}

TEST(PoolEdgeCases, WindowEqualsInput) {
  MaxPool2d layer;
  EXPECT_EQ(layer.build(Shape{3, 2, 2}), (Shape{3, 1, 1}));
  EXPECT_THROW(layer.build(Shape{3, 1, 2}), std::invalid_argument);
  const Tensor input(Shape{1, 3, 2, 2},
                     std::vector<float>(12, -1.0f));
  Tensor out;
  layer.forward(input, out, false);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(out[i], -1.0f);
}

// --- Simulator under degenerate mobility ---

TEST(SimEdgeCases, EmptyEdgeKeepsItsModelAndDoesNotCrash) {
  SimBundle bundle;
  // Scripted trace: every device sits on edge 0; edges 1 and 2 are empty
  // for the entire run.
  middlefl::mobility::Trace trace(bundle.partition.num_devices(), 3);
  for (int t = 0; t <= 10; ++t) {
    trace.append(
        std::vector<std::size_t>(bundle.partition.num_devices(), 0));
  }
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  middlefl::core::Simulation sim(
      bundle.cfg, bundle.model_spec, sgd, bundle.train, bundle.partition,
      bundle.test,
      std::make_unique<middlefl::mobility::TraceMobility>(trace),
      middlefl::core::make_algorithm(Algorithm::kMiddle));

  const std::vector<float> edge1_before(sim.edge_params(1).begin(),
                                        sim.edge_params(1).end());
  for (int t = 0; t < 4; ++t) sim.step();
  // Edge 1 hosted nobody: its model is untouched.
  const auto edge1_after = sim.edge_params(1);
  for (std::size_t i = 0; i < edge1_before.size(); ++i) {
    EXPECT_EQ(edge1_before[i], edge1_after[i]);
  }
  // Edge 0 trained.
  EXPECT_FALSE(sim.last_selection()[0].empty());
  EXPECT_TRUE(sim.last_selection()[1].empty());
}

TEST(SimEdgeCases, CloudSyncWithIdleEdgesUsesOnlyParticipants) {
  SimBundle bundle;
  bundle.cfg.cloud_interval = 2;
  middlefl::mobility::Trace trace(bundle.partition.num_devices(), 3);
  for (int t = 0; t <= 10; ++t) {
    trace.append(
        std::vector<std::size_t>(bundle.partition.num_devices(), 0));
  }
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  middlefl::core::Simulation sim(
      bundle.cfg, bundle.model_spec, sgd, bundle.train, bundle.partition,
      bundle.test,
      std::make_unique<middlefl::mobility::TraceMobility>(trace),
      middlefl::core::make_algorithm(Algorithm::kHierFavg));
  sim.step();
  sim.step();  // sync: only edge 0 has participation weight
  // The cloud must equal edge 0's pre-sync aggregate (single participant),
  // and all edges are reset to it afterwards.
  const auto cloud = sim.cloud_params();
  for (std::size_t n = 0; n < 3; ++n) {
    const auto edge = sim.edge_params(n);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      ASSERT_EQ(edge[i], cloud[i]);
    }
  }
}

TEST(SimEdgeCases, KLargerThanPopulationSelectsEveryone) {
  SimBundle bundle;
  bundle.cfg.select_per_edge = 1000;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->step();
  std::size_t total_selected = 0;
  for (const auto& sel : sim->last_selection()) total_selected += sel.size();
  EXPECT_EQ(total_selected, sim->num_devices());
}

TEST(SimEdgeCases, SingleDevicePerEdgeStillTrains) {
  SimBundle bundle(/*classes=*/4, /*devices=*/3, /*edges=*/3);
  bundle.cfg.total_steps = 6;
  auto sim = bundle.make(Algorithm::kMiddle);
  const auto history = sim->run();
  EXPECT_FALSE(history.points.empty());
  EXPECT_TRUE(std::isfinite(history.final_accuracy()));
}

TEST(SimEdgeCases, TinyBatchAndSingleLocalStep) {
  SimBundle bundle;
  bundle.cfg.batch_size = 1;
  bundle.cfg.local_steps = 1;
  bundle.cfg.total_steps = 5;
  auto sim = bundle.make(Algorithm::kMiddle);
  EXPECT_NO_THROW(sim->run());
}

TEST(SimEdgeCases, CloudIntervalOneSyncsEveryStep) {
  SimBundle bundle;
  bundle.cfg.cloud_interval = 1;
  auto sim = bundle.make(Algorithm::kMiddle);
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(sim->step());
  }
  // Syncing every step means no on-device aggregation ever helps, but it
  // must also never crash; devices equal cloud after each step.
  const auto cloud = sim->cloud_params();
  const auto dev = sim->device(0).params();
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    EXPECT_EQ(dev[i], cloud[i]);
  }
}

/// Every device on edge 0 of `edges`; never moves.
class WideMobility final : public middlefl::mobility::MobilityModel {
 public:
  WideMobility(std::size_t devices, std::size_t edges)
      : assignment_(devices, 0), edges_(edges) {}
  std::string name() const override { return "wide"; }
  std::size_t num_devices() const override { return assignment_.size(); }
  std::size_t num_edges() const override { return edges_; }
  const std::vector<std::size_t>& assignment() const override {
    return assignment_;
  }
  void advance() override {}
  void reset() override {}
  std::size_t step() const override { return 0; }

 private:
  std::vector<std::size_t> assignment_;
  std::size_t edges_;
};

TEST(EdgeIdRange, SimulationRejectsEdgesPastTheMapBeforeBuildingThem) {
  // The membership map names 65536 edges; a wider model used to build the
  // whole run, evaluate step 0 and only then fail in the first step.
  const SimBundle bundle;
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05});
  try {
    middlefl::core::Simulation sim(
        bundle.cfg, bundle.model_spec, sgd, bundle.train, bundle.partition,
        bundle.test,
        std::make_unique<WideMobility>(bundle.partition.num_devices(), 70000),
        middlefl::core::make_algorithm(Algorithm::kFedMes));
    FAIL() << "expected an edge-count error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("70000 edges"), std::string::npos)
        << e.what();
  }
}

TEST(SimEdgeCases, RejectsZeroEvalEvery) {
  // run() takes t % eval_every: a zero cadence must fail at construction,
  // not divide by zero mid-run.
  SimBundle bundle;
  bundle.cfg.eval_every = 0;
  EXPECT_THROW(bundle.make(Algorithm::kMiddle), std::invalid_argument);
}

}  // namespace
