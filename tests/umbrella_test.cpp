// Compilation + smoke test of the umbrella header: one end-to-end run that
// only includes <middlefl.hpp>, combining several extension features at
// once (compression + failure injection + home-ring mobility) to guard
// against config interactions.
#include <gtest/gtest.h>

#include "middlefl.hpp"

namespace {

using namespace middlefl;

TEST(Umbrella, EverythingCombinedStillTrainsDeterministically) {
  data::SyntheticConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.height = 6;
  dcfg.width = 6;
  const data::SyntheticGenerator generator(dcfg);
  const auto train = generator.generate(40, 1);
  const auto test = generator.generate(20, 2);
  const auto partition = data::partition_major_class(train, 12, 50, 0.85, 3);
  const auto homes = data::assign_edges_by_major_class(partition, 3, 4);

  nn::ModelSpec spec;
  spec.arch = nn::ModelArch::kMlp;
  spec.input_shape = tensor::Shape{1, 6, 6};
  spec.num_classes = 4;
  spec.hidden = 16;

  core::SimulationConfig cfg;
  cfg.select_per_edge = 2;
  cfg.local_steps = 4;
  cfg.cloud_interval = 5;
  cfg.batch_size = 8;
  cfg.total_steps = 25;
  cfg.eval_every = 5;
  cfg.seed = 11;
  // Every extension at once.
  cfg.transport.wireless_up.loss_prob = 0.1;
  cfg.transport.wireless_up.compression = {transport::CompressionKind::kTopK,
                                           0.25};

  const auto run_once = [&]() {
    auto mobility = std::make_unique<mobility::MarkovMobility>(
        homes, 3, 0.5, 12);
    mobility->set_topology(mobility::MoveTopology::kHomeRing, 0.5);
    const optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
    core::Simulation sim(cfg, spec, sgd, train, partition, test,
                         std::move(mobility),
                         core::make_algorithm(core::Algorithm::kMiddle));
    auto history = sim.run();
    return history;
  };

  const auto h1 = run_once();
  const auto h2 = run_once();

  // Deterministic even with every stochastic feature active.
  ASSERT_EQ(h1.points.size(), h2.points.size());
  for (std::size_t i = 0; i < h1.points.size(); ++i) {
    EXPECT_EQ(h1.points[i].accuracy, h2.points[i].accuracy);
  }
  // Still learns (chance = 0.25).
  EXPECT_GT(h1.best_accuracy(), 0.3);
  for (const auto& point : h1.points) {
    EXPECT_TRUE(std::isfinite(point.loss));
  }
}

TEST(Umbrella, CheckpointRoundTripsThroughUmbrellaApi) {
  nn::ModelSpec spec;
  spec.arch = nn::ModelArch::kLogistic;
  spec.input_shape = tensor::Shape{8};
  spec.num_classes = 3;
  auto model = nn::build_model(spec, 5);
  std::stringstream buffer;
  nn::save_model(*model, buffer);
  auto restored = nn::build_model(spec, 6);
  nn::load_model(*restored, buffer);
  EXPECT_NEAR(core::cosine_similarity(model->parameters(),
                                      restored->parameters()),
              1.0, 1e-12);
}

}  // namespace
