// Tests for the features beyond the paper's core: communication
// accounting, uplink-loss failure injection, the signed-blend ablation rule
// and the hybrid selection strategy.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/similarity.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::core::OnDeviceRule;
using middlefl::testing::SimBundle;

// --- Communication accounting ---

TEST(CommStats, CountsMatchScheduleForVanillaHfl) {
  SimBundle bundle;
  bundle.cfg.total_steps = 10;
  bundle.cfg.cloud_interval = 5;
  auto sim = bundle.make(Algorithm::kHierFavg);
  std::size_t expected_selected = 0;
  for (std::size_t t = 0; t < 10; ++t) {
    sim->step();
    for (const auto& sel : sim->last_selection()) {
      expected_selected += sel.size();
    }
  }
  const auto& comm = sim->comm_stats();
  EXPECT_EQ(comm.device_downloads, expected_selected);
  EXPECT_EQ(comm.device_uploads, expected_selected);
  // Two syncs (t=5, 10): every edge uploads and downloads once per sync,
  // every device receives a broadcast.
  EXPECT_EQ(comm.edge_uploads, 2 * sim->num_edges());
  EXPECT_EQ(comm.edge_downloads, 2 * sim->num_edges());
  EXPECT_EQ(comm.device_broadcasts, 2 * sim->num_devices());
  EXPECT_EQ(comm.total_transfers(),
            comm.wireless_transfers() + comm.wan_transfers());
}

TEST(CommStats, FedMesPaysExtraDownloads) {
  SimBundle bundle;
  bundle.mobility_p = 0.8;
  bundle.cfg.total_steps = 10;
  auto fedmes = bundle.make(Algorithm::kFedMes);
  auto middle = bundle.make(Algorithm::kMiddle);
  fedmes->run();
  middle->run();
  // FedMes fetches the previous edge's model for every moved selected
  // device; MIDDLE blends a model that is already on the device.
  EXPECT_GT(fedmes->comm_stats().device_downloads,
            fedmes->comm_stats().device_uploads);
  EXPECT_EQ(middle->comm_stats().device_downloads,
            middle->comm_stats().device_uploads);
}

TEST(CommStats, BytesScaleWithParamCount) {
  middlefl::core::CommStats stats;
  stats.device_uploads = 3;
  EXPECT_EQ(stats.total_bytes(100), 3u * 100u * sizeof(float));
  middlefl::core::CommStats more;
  more.edge_uploads = 2;
  stats += more;
  EXPECT_EQ(stats.total_transfers(), 5u);
}

TEST(CommStats, NoBroadcastAblationSkipsBroadcastTraffic) {
  SimBundle bundle;
  bundle.cfg.total_steps = 10;
  bundle.cfg.cloud_interval = 5;
  bundle.cfg.broadcast_to_devices = false;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->run();
  EXPECT_EQ(sim->comm_stats().device_broadcasts, 0u);
  EXPECT_GT(sim->comm_stats().edge_uploads, 0u);
}

// --- Failure injection ---

TEST(FailureInjection, ZeroProbabilityLosesNothing) {
  SimBundle bundle;
  bundle.cfg.total_steps = 10;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->run();
  EXPECT_EQ(sim->failed_uploads(), 0u);
}

TEST(FailureInjection, AllUploadsFailFreezesEdgeModels) {
  SimBundle bundle;
  bundle.cfg.total_steps = 6;
  bundle.cfg.cloud_interval = 100;  // no sync in this window
  bundle.cfg.transport.wireless_up.loss_prob = 1.0;
  auto sim = bundle.make(Algorithm::kMiddle);
  const std::vector<float> before(sim->edge_params(0).begin(),
                                  sim->edge_params(0).end());
  for (int t = 0; t < 6; ++t) sim->step();
  const auto after = sim->edge_params(0);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
  EXPECT_GT(sim->failed_uploads(), 0u);
}

TEST(FailureInjection, PartialFailureStillTrains) {
  SimBundle bundle;
  bundle.cfg.total_steps = 30;
  bundle.cfg.transport.wireless_up.loss_prob = 0.3;
  auto sim = bundle.make(Algorithm::kMiddle);
  const auto history = sim->run();
  EXPECT_GT(sim->failed_uploads(), 0u);
  // Training still converges above chance despite 30% losses.
  EXPECT_GT(history.final_accuracy(), 0.3);
  for (const auto& point : history.points) {
    EXPECT_TRUE(std::isfinite(point.loss));
  }
}

TEST(FailureInjection, DeterministicGivenSeed) {
  SimBundle bundle;
  bundle.cfg.total_steps = 15;
  bundle.cfg.transport.wireless_up.loss_prob = 0.4;
  auto a = bundle.make(Algorithm::kMiddle);
  auto b = bundle.make(Algorithm::kMiddle);
  a->run();
  b->run();
  EXPECT_EQ(a->failed_uploads(), b->failed_uploads());
}

// --- Signed blend (clamp ablation) ---

TEST(SignedBlend, MatchesClampedBlendForAlignedModels) {
  const std::vector<float> edge{1, 2, 3};
  const std::vector<float> local{1.1f, 2.1f, 2.9f};
  std::vector<float> clamped(3), signed_out(3);
  const double w1 = middlefl::core::on_device_aggregate(edge, local, clamped);
  const double w2 =
      middlefl::core::on_device_aggregate_signed(edge, local, signed_out);
  EXPECT_NEAR(w1, w2, 1e-9);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(clamped[i], signed_out[i]);
  }
}

TEST(SignedBlend, AntiAlignedGetsNegativeWeight) {
  const std::vector<float> edge{1.0f, 0.0f};
  const std::vector<float> local{-1.0f, 0.0f};
  std::vector<float> out(2);
  const double weight =
      middlefl::core::on_device_aggregate_signed(edge, local, out);
  EXPECT_LT(weight, 0.0);   // the ablation's failure mode
  EXPECT_GE(weight, -1.0);  // bounded by the -0.5 cosine floor
  // The clamped rule would return exactly the edge model instead.
  std::vector<float> clamped(2);
  EXPECT_EQ(middlefl::core::on_device_aggregate(edge, local, clamped), 0.0);
}

TEST(SignedBlend, RunsEndToEnd) {
  SimBundle bundle;
  bundle.mobility_p = 0.8;
  bundle.cfg.total_steps = 15;
  auto spec = middlefl::core::make_algorithm(Algorithm::kMiddle);
  spec.on_move = OnDeviceRule::kSignedBlend;
  auto mobility = std::make_unique<middlefl::mobility::MarkovMobility>(
      bundle.initial_edges, bundle.num_edges, bundle.mobility_p,
      bundle.seed + 1);
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  middlefl::core::Simulation sim(bundle.cfg, bundle.model_spec, sgd,
                                 bundle.train, bundle.partition, bundle.test,
                                 std::move(mobility), std::move(spec));
  const auto history = sim.run();
  EXPECT_GT(sim.on_device_aggregations(), 0u);
  for (const auto& point : history.points) {
    EXPECT_TRUE(std::isfinite(point.loss));
  }
}

// --- Hybrid selection ---

TEST(HybridSelection, PrefersHighLossDissimilarDevices) {
  std::vector<std::vector<float>> storage;
  std::vector<middlefl::core::Candidate> candidates;
  const std::vector<float> cloud{1.0f, 0.0f};
  // Device 0: high loss but fully similar (delta aligned with cloud).
  storage.push_back({2.0f, 0.0f});
  candidates.push_back({0, 10.0, 5.0, storage.back()});
  // Device 1: same loss, orthogonal delta (dissimilar) -> must win.
  storage.push_back({1.0f, 1.0f});
  candidates.push_back({1, 10.0, 5.0, storage.back()});
  // Device 2: low loss, dissimilar.
  storage.push_back({1.0f, -1.0f});
  candidates.push_back({2, 10.0, 0.5, storage.back()});

  middlefl::core::HybridSelection strategy;
  middlefl::parallel::Xoshiro256 rng(3);
  const auto selected = strategy.select(candidates, cloud, 1, rng);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], 1u);
}

TEST(HybridSelection, UnexploredFirst) {
  std::vector<std::vector<float>> storage;
  std::vector<middlefl::core::Candidate> candidates;
  const std::vector<float> cloud{1.0f};
  storage.push_back({5.0f});
  candidates.push_back({0, 10.0, 100.0, storage.back()});
  storage.push_back({1.0f});
  candidates.push_back({1, 10.0, std::nullopt, storage.back()});
  middlefl::core::HybridSelection strategy;
  middlefl::parallel::Xoshiro256 rng(4);
  EXPECT_EQ(strategy.select(candidates, cloud, 1, rng)[0], 1u);
}

TEST(HybridSelection, DrivesFullSimulation) {
  SimBundle bundle;
  bundle.cfg.total_steps = 40;
  middlefl::core::AlgorithmSpec spec;
  spec.name = "MIDDLE+hybrid";
  spec.selection = std::make_unique<middlefl::core::HybridSelection>();
  spec.on_move = OnDeviceRule::kSimilarityBlend;
  auto mobility = std::make_unique<middlefl::mobility::MarkovMobility>(
      bundle.initial_edges, bundle.num_edges, 0.5, bundle.seed + 1);
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  middlefl::core::Simulation sim(bundle.cfg, bundle.model_spec, sgd,
                                 bundle.train, bundle.partition, bundle.test,
                                 std::move(mobility), std::move(spec));
  const auto history = sim.run();
  // Chance is 0.25 on the 4-class fixture task.
  EXPECT_GT(history.best_accuracy(), 0.35);
}

// --- Edge skew metric ---

TEST(EdgeSkew, ZeroForIdenticalMixtures) {
  const std::vector<std::vector<std::size_t>> hists{{10, 10}, {5, 5}};
  EXPECT_NEAR(middlefl::core::mean_edge_skew(hists), 0.0, 1e-12);
}

TEST(EdgeSkew, OneForDisjointSupport) {
  const std::vector<std::vector<std::size_t>> hists{{10, 0}, {0, 10}};
  EXPECT_NEAR(middlefl::core::mean_edge_skew(hists), 0.5, 1e-12);
  // TV of each edge vs the 50/50 global is 0.5; with fully disjoint support
  // over C edges == C classes the skew approaches 1 - 1/C.
  const std::vector<std::vector<std::size_t>> four{
      {9, 0, 0, 0}, {0, 9, 0, 0}, {0, 0, 9, 0}, {0, 0, 0, 9}};
  EXPECT_NEAR(middlefl::core::mean_edge_skew(four), 0.75, 1e-12);
}

TEST(EdgeSkew, SkipsEmptyEdgesAndValidates) {
  const std::vector<std::vector<std::size_t>> hists{{10, 10}, {0, 0}};
  EXPECT_NEAR(middlefl::core::mean_edge_skew(hists), 0.0, 1e-12);
  EXPECT_EQ(middlefl::core::mean_edge_skew({}), 0.0);
  const std::vector<std::vector<std::size_t>> ragged{{1, 2}, {1, 2, 3}};
  EXPECT_THROW(middlefl::core::mean_edge_skew(ragged), std::invalid_argument);
}

TEST(EdgeSkew, UniformMobilityErasesSkewHomeRingKeepsIt) {
  // The phenomenon that motivated the home-ring topology, measured with
  // the metric itself. Four devices per edge make one run's skew noisy
  // (the home-ring margin ranges over about 0.05-0.10 across mobility
  // seeds), so the margin is averaged over eight seeds.
  const auto tail_skew = [](middlefl::mobility::MoveTopology topology,
                            std::uint64_t seed) {
    SimBundle bundle(/*classes=*/10, /*devices=*/40, /*edges=*/10);
    auto mobility = std::make_unique<middlefl::mobility::MarkovMobility>(
        bundle.initial_edges, bundle.num_edges, 0.5, seed);
    mobility->set_topology(topology, 0.7);
    const middlefl::optim::Sgd sgd({.learning_rate = 0.05});
    middlefl::core::Simulation sim(
        bundle.cfg, bundle.model_spec, sgd, bundle.train, bundle.partition,
        bundle.test, std::move(mobility),
        middlefl::core::make_algorithm(Algorithm::kHierFavg));
    double acc = 0.0;
    for (int t = 0; t < 30; ++t) {
      sim.step();
      if (t >= 20) acc += sim.current_edge_skew();
    }
    return acc / 10.0;
  };
  double uniform = 0.0;
  double home = 0.0;
  for (std::uint64_t seed = 77; seed < 85; ++seed) {
    uniform += tail_skew(middlefl::mobility::MoveTopology::kUniform, seed) / 8;
    home += tail_skew(middlefl::mobility::MoveTopology::kHomeRing, seed) / 8;
  }
  EXPECT_GT(home, uniform + 0.05);
}

}  // namespace
