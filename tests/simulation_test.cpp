#include <gtest/gtest.h>

#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::core::Simulation;
using middlefl::testing::SimBundle;

TEST(Simulation, ConstructionValidatesWiring) {
  SimBundle bundle;
  // Mobility device count mismatch.
  auto bad_mobility = std::make_unique<middlefl::mobility::MarkovMobility>(
      std::vector<std::size_t>(5, 0), 3, 0.5, 1);
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05});
  EXPECT_THROW(
      Simulation(bundle.cfg, bundle.model_spec, sgd, bundle.train,
                 bundle.partition, bundle.test, std::move(bad_mobility),
                 middlefl::core::make_algorithm(Algorithm::kMiddle)),
      std::invalid_argument);
  EXPECT_THROW(
      Simulation(bundle.cfg, bundle.model_spec, sgd, bundle.train,
                 bundle.partition, bundle.test, nullptr,
                 middlefl::core::make_algorithm(Algorithm::kMiddle)),
      std::invalid_argument);
}

TEST(Simulation, InitialModelsAreAligned) {
  SimBundle bundle;
  auto sim = bundle.make(Algorithm::kMiddle);
  const auto cloud = sim->cloud_params();
  for (std::size_t n = 0; n < sim->num_edges(); ++n) {
    const auto edge = sim->edge_params(n);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      EXPECT_EQ(cloud[i], edge[i]);
    }
  }
  for (std::size_t m = 0; m < sim->num_devices(); ++m) {
    const auto device = sim->device(m).params();
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      EXPECT_EQ(cloud[i], device[i]);
    }
  }
}

TEST(Simulation, StepAdvancesTimeAndSyncsOnSchedule) {
  SimBundle bundle;
  bundle.cfg.cloud_interval = 3;
  auto sim = bundle.make(Algorithm::kHierFavg);
  EXPECT_FALSE(sim->step());  // t=1
  EXPECT_FALSE(sim->step());  // t=2
  EXPECT_TRUE(sim->step());   // t=3: sync
  EXPECT_FALSE(sim->step());  // t=4
  EXPECT_EQ(sim->current_step(), 4u);
}

TEST(Simulation, SelectionRespectsK) {
  SimBundle bundle;
  bundle.cfg.select_per_edge = 2;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->step();
  for (std::size_t n = 0; n < sim->num_edges(); ++n) {
    EXPECT_LE(sim->last_selection()[n].size(), 2u);
  }
  // Selected devices must be connected to the edge they trained for.
  for (std::size_t n = 0; n < sim->num_edges(); ++n) {
    for (std::size_t m : sim->last_selection()[n]) {
      EXPECT_EQ(sim->assignment()[m], n);
    }
  }
}

TEST(Simulation, CloudSyncBroadcastsGlobalModel) {
  SimBundle bundle;
  bundle.cfg.cloud_interval = 2;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->step();
  sim->step();  // sync at t=2
  const auto cloud = sim->cloud_params();
  for (std::size_t n = 0; n < sim->num_edges(); ++n) {
    const auto edge = sim->edge_params(n);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      EXPECT_EQ(edge[i], cloud[i]);
    }
  }
  for (std::size_t m = 0; m < sim->num_devices(); ++m) {
    const auto dev = sim->device(m).params();
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      EXPECT_EQ(dev[i], cloud[i]);
    }
  }
}

TEST(Simulation, NoBroadcastAblationKeepsLocalModels) {
  SimBundle bundle;
  bundle.cfg.cloud_interval = 2;
  bundle.cfg.broadcast_to_devices = false;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->step();
  sim->step();  // sync, but devices keep their local models
  const auto cloud = sim->cloud_params();
  bool any_device_differs = false;
  for (std::size_t m = 0; m < sim->num_devices(); ++m) {
    const auto dev = sim->device(m).params();
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      any_device_differs = any_device_differs || dev[i] != cloud[i];
    }
  }
  EXPECT_TRUE(any_device_differs);
}

TEST(Simulation, TrainingMovesEdgeModels) {
  SimBundle bundle;
  auto sim = bundle.make(Algorithm::kHierFavg);
  const std::vector<float> before(sim->edge_params(0).begin(),
                                  sim->edge_params(0).end());
  sim->step();
  bool changed = false;
  const auto after = sim->edge_params(0);
  for (std::size_t i = 0; i < before.size(); ++i) {
    changed = changed || before[i] != after[i];
  }
  EXPECT_TRUE(changed);
}

TEST(Simulation, DeterministicAcrossRuns) {
  SimBundle bundle;
  bundle.cfg.total_steps = 10;
  auto sim1 = bundle.make(Algorithm::kMiddle);
  auto sim2 = bundle.make(Algorithm::kMiddle);
  const auto h1 = sim1->run();
  const auto h2 = sim2->run();
  ASSERT_EQ(h1.points.size(), h2.points.size());
  for (std::size_t i = 0; i < h1.points.size(); ++i) {
    EXPECT_EQ(h1.points[i].accuracy, h2.points[i].accuracy);
    EXPECT_EQ(h1.points[i].loss, h2.points[i].loss);
  }
}

TEST(Simulation, ParallelMatchesSerial) {
  SimBundle bundle;
  bundle.cfg.total_steps = 8;
  bundle.cfg.parallel_devices = false;
  auto serial = bundle.make(Algorithm::kMiddle);
  const auto hs = serial->run();

  SimBundle bundle2;
  bundle2.cfg.total_steps = 8;
  bundle2.cfg.parallel_devices = true;
  auto parallel = bundle2.make(Algorithm::kMiddle);
  const auto hp = parallel->run();

  ASSERT_EQ(hs.points.size(), hp.points.size());
  for (std::size_t i = 0; i < hs.points.size(); ++i) {
    EXPECT_EQ(hs.points[i].accuracy, hp.points[i].accuracy)
        << "eval point " << i;
  }
}

TEST(Simulation, RunRecordsEvalSchedule) {
  SimBundle bundle;
  bundle.cfg.total_steps = 20;
  bundle.cfg.eval_every = 5;
  auto sim = bundle.make(Algorithm::kOort);
  const auto history = sim->run();
  // Initial point + evals at 5, 10, 15, 20.
  ASSERT_EQ(history.points.size(), 5u);
  EXPECT_EQ(history.points[0].step, 0u);
  EXPECT_EQ(history.points[1].step, 5u);
  EXPECT_EQ(history.points.back().step, 20u);
  EXPECT_EQ(history.algorithm, "OORT");
}

TEST(Simulation, ProgressCallbackFires) {
  SimBundle bundle;
  bundle.cfg.total_steps = 10;
  bundle.cfg.eval_every = 5;
  auto sim = bundle.make(Algorithm::kMiddle);
  std::size_t calls = 0;
  sim->run([&calls](const middlefl::core::EvalPoint&) { ++calls; });
  EXPECT_EQ(calls, 3u);  // step 0, 5, 10
}

TEST(Simulation, TrackEdgeAccuracyRecordsVector) {
  SimBundle bundle;
  bundle.cfg.total_steps = 5;
  bundle.cfg.eval_every = 5;
  bundle.cfg.track_edge_accuracy = true;
  auto sim = bundle.make(Algorithm::kMiddle);
  const auto history = sim->run();
  for (const auto& point : history.points) {
    EXPECT_EQ(point.edge_accuracy.size(), 3u);
  }
}

TEST(Simulation, MiddlePerformsOnDeviceAggregations) {
  SimBundle bundle;
  bundle.mobility_p = 0.8;  // lots of movement
  bundle.cfg.total_steps = 10;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->run();
  EXPECT_GT(sim->on_device_aggregations(), 0u);
  EXPECT_GE(sim->mean_blend_weight(), 0.0);
  EXPECT_LE(sim->mean_blend_weight(), 0.5);  // Eq. 9: local weight <= 1/2
}

TEST(Simulation, OortNeverBlends) {
  SimBundle bundle;
  bundle.mobility_p = 0.8;
  bundle.cfg.total_steps = 10;
  auto sim = bundle.make(Algorithm::kOort);
  sim->run();
  EXPECT_EQ(sim->on_device_aggregations(), 0u);
}

TEST(Simulation, ZeroMobilityNeverBlends) {
  SimBundle bundle;
  bundle.mobility_p = 0.0;
  bundle.cfg.total_steps = 10;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->run();
  EXPECT_EQ(sim->on_device_aggregations(), 0u);
}

TEST(Simulation, HistoryHelpersWork) {
  SimBundle bundle;
  bundle.cfg.total_steps = 10;
  auto sim = bundle.make(Algorithm::kMiddle);
  const auto history = sim->run();
  EXPECT_FALSE(std::isnan(history.final_accuracy()));
  EXPECT_GE(history.best_accuracy(), history.points[0].accuracy);
  // Accuracy target of 0 is reached immediately; 2.0 never.
  EXPECT_TRUE(history.time_to_accuracy(0.0).has_value());
  EXPECT_FALSE(history.time_to_accuracy(2.0).has_value());
  EXPECT_EQ(history.accuracy_series().size(), history.points.size());
}

TEST(Simulation, EvaluateNowAppendsPoint) {
  SimBundle bundle;
  auto sim = bundle.make(Algorithm::kMiddle);
  EXPECT_TRUE(sim->history().points.empty());
  sim->evaluate_now();
  EXPECT_EQ(sim->history().points.size(), 1u);
}

TEST(Simulation, WarmStartInstallsEverywhere) {
  SimBundle bundle;
  auto sim = bundle.make(Algorithm::kMiddle);
  std::vector<float> checkpoint(sim->cloud_params().size(), 0.25f);
  sim->warm_start(checkpoint);
  for (float p : sim->cloud_params()) EXPECT_EQ(p, 0.25f);
  for (std::size_t n = 0; n < sim->num_edges(); ++n) {
    for (float p : sim->edge_params(n)) EXPECT_EQ(p, 0.25f);
  }
  for (std::size_t m = 0; m < sim->num_devices(); ++m) {
    for (float p : sim->device(m).params()) EXPECT_EQ(p, 0.25f);
  }
  std::vector<float> wrong(3);
  EXPECT_THROW(sim->warm_start(wrong), std::invalid_argument);
}

TEST(Simulation, AssignmentAlwaysPartitionsDevices) {
  SimBundle bundle;
  bundle.mobility_p = 0.7;
  auto sim = bundle.make(Algorithm::kMiddle);
  for (int t = 0; t < 10; ++t) {
    sim->step();
    const auto& assignment = sim->assignment();
    EXPECT_EQ(assignment.size(), sim->num_devices());
    for (std::size_t e : assignment) EXPECT_LT(e, sim->num_edges());
  }
}

}  // namespace
