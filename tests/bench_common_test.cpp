// Tests for the benchmark harness helpers (bench/bench_common): the
// task-setup factory, repeat runner, repeat summarizer and protocol
// header — these decide what the recorded EXPERIMENTS numbers mean, so
// they are tested like library code.
#include <gtest/gtest.h>

#include "bench_common.hpp"

namespace {

using middlefl::bench::BenchOptions;
using middlefl::bench::make_simulation;
using middlefl::bench::make_task_setup;
using middlefl::bench::run_repeats;
using middlefl::bench::summarize_repeats;
using middlefl::core::EvalPoint;
using middlefl::core::RunHistory;

RunHistory history_of(std::string algorithm,
                      std::initializer_list<double> accuracies) {
  RunHistory history;
  history.algorithm = std::move(algorithm);
  std::size_t step = 0;
  for (double a : accuracies) {
    EvalPoint point;
    point.step = step;
    point.accuracy = a;
    history.points.push_back(point);
    step += 10;
  }
  return history;
}

TEST(TaskSetup, FastScaleMatchesDocumentedDefaults) {
  BenchOptions options;
  const auto setup =
      make_task_setup(middlefl::data::TaskKind::kMnist, options);
  EXPECT_EQ(setup.num_edges, 10u);
  EXPECT_EQ(setup.partition.num_devices(), 30u);
  EXPECT_EQ(setup.sim_cfg.select_per_edge, 3u);
  EXPECT_EQ(setup.sim_cfg.local_steps, 10u);
  EXPECT_EQ(setup.sim_cfg.cloud_interval, 10u);
  EXPECT_GT(setup.target_accuracy, 0.0);
  EXPECT_EQ(setup.train->num_classes(), 10u);
  // Every device got data; edge homes in range.
  for (const auto& indices : setup.partition.device_indices) {
    EXPECT_FALSE(indices.empty());
  }
  for (std::size_t e : setup.initial_edges) EXPECT_LT(e, 10u);
}

TEST(TaskSetup, PaperScaleUsesPaperParameters) {
  BenchOptions options;
  options.paper = true;
  options.steps_scale = 0.001;  // keep the config cheap to build
  const auto setup =
      make_task_setup(middlefl::data::TaskKind::kEmnist, options);
  EXPECT_EQ(setup.num_edges, 10u);
  EXPECT_EQ(setup.partition.num_devices(), 100u);
  EXPECT_EQ(setup.sim_cfg.select_per_edge, 5u);  // K = 5 (§6.1.2)
  EXPECT_EQ(setup.sim_cfg.local_steps, 10u);     // I = 10
  EXPECT_EQ(setup.model_spec.arch, middlefl::nn::ModelArch::kCnn2);
  EXPECT_EQ(setup.model_spec.num_classes, 26u);  // EMNIST Letters
}

TEST(TaskSetup, SpeechUsesAdam) {
  BenchOptions options;
  const auto setup =
      make_task_setup(middlefl::data::TaskKind::kSpeech, options);
  EXPECT_EQ(setup.optimizer->name(), "Adam");
  const auto mnist = make_task_setup(middlefl::data::TaskKind::kMnist,
                                     options);
  EXPECT_EQ(mnist.optimizer->name(), "SGD");
}

TEST(TaskSetup, StepsScaleShrinksBudget) {
  BenchOptions options;
  options.steps_scale = 0.1;
  const auto small =
      make_task_setup(middlefl::data::TaskKind::kMnist, options);
  options.steps_scale = 1.0;
  const auto full = make_task_setup(middlefl::data::TaskKind::kMnist,
                                    options);
  EXPECT_LT(small.sim_cfg.total_steps, full.sim_cfg.total_steps);
  EXPECT_GE(small.sim_cfg.total_steps, 10u);  // floor
}

TEST(RunRepeats, DistinctSeedsDistinctRuns) {
  BenchOptions options;
  options.repeats = 2;
  options.steps_scale = 0.05;  // 20 steps: fast
  const auto setup =
      make_task_setup(middlefl::data::TaskKind::kMnist, options);
  const auto runs =
      run_repeats(setup, middlefl::core::Algorithm::kMiddle, options);
  ASSERT_EQ(runs.size(), 2u);
  // Different mobility/simulation seeds: trajectories should differ
  // somewhere (identical would indicate the repeat seed is ignored).
  bool any_diff = false;
  for (std::size_t i = 0; i < runs[0].points.size(); ++i) {
    any_diff =
        any_diff || runs[0].points[i].accuracy != runs[1].points[i].accuracy;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RunRepeats, SameRepeatIndexIsDeterministic) {
  BenchOptions options;
  options.repeats = 1;
  options.steps_scale = 0.05;
  const auto setup =
      make_task_setup(middlefl::data::TaskKind::kMnist, options);
  auto sim1 = make_simulation(setup, middlefl::core::Algorithm::kOort,
                              options, /*repeat=*/3);
  auto sim2 = make_simulation(setup, middlefl::core::Algorithm::kOort,
                              options, /*repeat=*/3);
  const auto h1 = sim1->run();
  const auto h2 = sim2->run();
  for (std::size_t i = 0; i < h1.points.size(); ++i) {
    EXPECT_EQ(h1.points[i].accuracy, h2.points[i].accuracy);
  }
}

TEST(SummarizeRepeats, MeanStdAndMedianTta) {
  const std::vector<RunHistory> runs{
      history_of("A", {0.1, 0.5, 0.7}),   // tta(0.5) = 10
      history_of("A", {0.1, 0.2, 0.5}),   // tta(0.5) = 20
      history_of("A", {0.1, 0.6, 0.9}),   // tta(0.5) = 10
  };
  const auto summary = summarize_repeats(runs, 0.5);
  EXPECT_NEAR(summary.mean_final, (0.7 + 0.5 + 0.9) / 3.0, 1e-12);
  EXPECT_GT(summary.std_final, 0.0);
  EXPECT_NEAR(summary.mean_best, (0.7 + 0.5 + 0.9) / 3.0, 1e-12);
  ASSERT_TRUE(summary.median_tta.has_value());
  EXPECT_EQ(*summary.median_tta, 10u);
}

TEST(SummarizeRepeats, MedianTtaRequiresMajorityQuorum) {
  // Only 1 of 3 runs reaches the target: no median reported.
  const std::vector<RunHistory> runs{
      history_of("A", {0.1, 0.9}),
      history_of("A", {0.1, 0.2}),
      history_of("A", {0.1, 0.3}),
  };
  const auto summary = summarize_repeats(runs, 0.5);
  EXPECT_FALSE(summary.median_tta.has_value());
  // 2 of 3: reported.
  const std::vector<RunHistory> runs2{
      history_of("A", {0.1, 0.9}),
      history_of("A", {0.1, 0.6}),
      history_of("A", {0.1, 0.3}),
  };
  EXPECT_TRUE(summarize_repeats(runs2, 0.5).median_tta.has_value());
}

TEST(ProtocolJson, RunFieldsKeepTheirJsonTypes) {
  // Numbers stay bare, booleans are JSON literals and text is quoted, so
  // serving_load's interleaving fields parse as what they are.
  const std::string mode = "open";
  const std::string json = middlefl::bench::protocol_json(
      2,
      {{"windows_per_arm", std::size_t{3}},
       {"offered_qps", 1.5},
       {"interleaved_ab", true},
       {"order", "batched,unbatched per pair"},
       {"mode", mode}},
      "");
  EXPECT_NE(json.find("\"pool_threads\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"windows_per_arm\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"offered_qps\": 1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"interleaved_ab\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"order\": \"batched,unbatched per pair\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"mode\": \"open\""), std::string::npos) << json;
}

}  // namespace
