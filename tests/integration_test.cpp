// End-to-end convergence and cross-algorithm behaviour on a small but real
// federated task. These run a few hundred local SGD steps each; they are
// the slowest tests in the suite (a few seconds total).
#include <gtest/gtest.h>

#include "core/convergence.hpp"
#include "mobility/trace.hpp"
#include "optim/adam.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::testing::SimBundle;

TEST(Integration, GlobalModelLearnsTheTask) {
  SimBundle bundle(/*classes=*/4, /*devices=*/12, /*edges=*/3);
  bundle.cfg.total_steps = 150;
  bundle.cfg.local_steps = 5;
  bundle.cfg.eval_every = 25;
  auto sim = bundle.make(Algorithm::kMiddle);
  const auto history = sim->run();
  // Chance is 0.25; the task is easy, so the global model should be well
  // above it after 60 steps.
  EXPECT_GT(history.final_accuracy(), 0.6) << "final accuracy too low";
  // And it should have improved substantially over the initial point.
  EXPECT_GT(history.final_accuracy(), history.points.front().accuracy + 0.2);
}

TEST(Integration, AllAlgorithmsTrainWithoutDivergence) {
  for (const auto algorithm :
       {Algorithm::kMiddle, Algorithm::kOort, Algorithm::kFedMes,
        Algorithm::kGreedy, Algorithm::kEnsemble, Algorithm::kHierFavg}) {
    SimBundle bundle;
    bundle.cfg.total_steps = 30;
    bundle.cfg.eval_every = 10;
    auto sim = bundle.make(algorithm);
    const auto history = sim->run();
    EXPECT_GT(history.final_accuracy(), 0.3)
        << to_string(algorithm) << " failed to learn";
    for (const auto& point : history.points) {
      EXPECT_TRUE(std::isfinite(point.loss))
          << to_string(algorithm) << " diverged";
    }
  }
}

TEST(Integration, MobilityHelpsMiddleOnCrossEdgeSkew) {
  // With strong cross-edge label skew, MIDDLE at P=0.5 should reach a given
  // target no slower than (and typically faster than) the same setup at
  // P=0 where no knowledge travels. This checks the direction of the
  // paper's headline effect on a small instance.
  const auto run_with_mobility = [](double p) {
    SimBundle bundle(/*classes=*/4, /*devices=*/12, /*edges=*/4);
    bundle.mobility_p = p;
    bundle.cfg.total_steps = 60;
    bundle.cfg.eval_every = 10;
    bundle.cfg.cloud_interval = 20;  // rare cloud syncs: mobility matters
    auto sim = bundle.make(Algorithm::kMiddle);
    return sim->run();
  };
  const auto mobile = run_with_mobility(0.5);
  const auto frozen = run_with_mobility(0.0);
  // Mean accuracy across the curve (robust to endpoint noise).
  const auto mean_acc = [](const middlefl::core::RunHistory& h) {
    double sum = 0.0;
    for (const auto& pt : h.points) sum += pt.accuracy;
    return sum / static_cast<double>(h.points.size());
  };
  EXPECT_GE(mean_acc(mobile) + 0.05, mean_acc(frozen));
}

TEST(Integration, SpeedupHelperComputesRatio) {
  SimBundle bundle;
  bundle.cfg.total_steps = 40;
  bundle.cfg.eval_every = 5;
  auto fast_sim = bundle.make(Algorithm::kMiddle);
  const auto fast = fast_sim->run();
  auto slow_sim = bundle.make(Algorithm::kHierFavg);
  const auto slow = slow_sim->run();
  const double target = 0.4;
  const auto ratio = middlefl::core::speedup(fast, slow, target);
  if (fast.time_to_accuracy(target).has_value()) {
    ASSERT_TRUE(ratio.has_value());
    EXPECT_GT(*ratio, 0.0);
  } else {
    EXPECT_FALSE(ratio.has_value());
  }
}

TEST(Integration, AdamOptimizerPathWorks) {
  // The speech task uses Adam (§6.1.2); exercise that code path end to end.
  SimBundle bundle;
  bundle.cfg.total_steps = 20;
  bundle.cfg.eval_every = 10;
  auto mobility = std::make_unique<middlefl::mobility::MarkovMobility>(
      bundle.initial_edges, bundle.num_edges, 0.5, 99);
  const middlefl::optim::Adam adam({.learning_rate = 0.005});
  middlefl::core::Simulation sim(
      bundle.cfg, bundle.model_spec, adam, bundle.train, bundle.partition,
      bundle.test, std::move(mobility),
      middlefl::core::make_algorithm(Algorithm::kMiddle));
  const auto history = sim.run();
  EXPECT_GT(history.final_accuracy(), 0.3);
}

TEST(Integration, TraceReplayReproducesMarkovRun) {
  // A simulation driven by a recorded trace must equal one driven by the
  // original model (mobility is the only stochastic input that differs).
  SimBundle bundle;
  bundle.cfg.total_steps = 10;

  middlefl::mobility::MarkovMobility source(bundle.initial_edges,
                                            bundle.num_edges, 0.5,
                                            bundle.seed + 1);
  auto trace = middlefl::mobility::record_trace(source, 10);

  auto live = bundle.make(Algorithm::kMiddle);
  const auto live_history = live->run();

  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  middlefl::core::Simulation replay_sim(
      bundle.cfg, bundle.model_spec, sgd, bundle.train, bundle.partition,
      bundle.test,
      std::make_unique<middlefl::mobility::TraceMobility>(std::move(trace)),
      middlefl::core::make_algorithm(Algorithm::kMiddle));
  const auto replay_history = replay_sim.run();

  ASSERT_EQ(live_history.points.size(), replay_history.points.size());
  for (std::size_t i = 0; i < live_history.points.size(); ++i) {
    EXPECT_EQ(live_history.points[i].accuracy,
              replay_history.points[i].accuracy);
  }
}

TEST(Integration, FixedAlphaRuleMatchesTheoremSetting) {
  // Run MIDDLE's pipeline with the fixed-alpha rule from Theorem 1 and
  // check it both trains and blends.
  SimBundle bundle;
  bundle.mobility_p = 0.8;
  bundle.cfg.total_steps = 20;
  auto spec = middlefl::core::make_algorithm(Algorithm::kMiddle);
  spec.on_move = middlefl::core::OnDeviceRule::kFixedAlpha;
  spec.fixed_alpha = 0.7;
  auto mobility = std::make_unique<middlefl::mobility::MarkovMobility>(
      bundle.initial_edges, bundle.num_edges, bundle.mobility_p,
      bundle.seed + 1);
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  middlefl::core::Simulation sim(bundle.cfg, bundle.model_spec, sgd,
                                 bundle.train, bundle.partition, bundle.test,
                                 std::move(mobility), std::move(spec));
  sim.run();
  EXPECT_GT(sim.on_device_aggregations(), 0u);
  EXPECT_NEAR(sim.mean_blend_weight(), 0.3, 1e-9);  // 1 - alpha
}

}  // namespace
