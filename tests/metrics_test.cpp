#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "core/metrics.hpp"
#include "data/synthetic.hpp"
#include "nn/model_factory.hpp"

namespace {

using middlefl::core::EvalPoint;
using middlefl::core::Evaluator;
using middlefl::core::RunHistory;
using middlefl::data::DataView;
using middlefl::data::Dataset;
using middlefl::nn::ModelArch;
using middlefl::nn::ModelSpec;
using middlefl::tensor::Shape;

struct EvalFixture {
  Dataset test;
  ModelSpec spec;

  EvalFixture() : test(make_data()) {
    spec.arch = ModelArch::kMlp;
    spec.input_shape = Shape{1, 6, 6};
    spec.num_classes = 4;
    spec.hidden = 8;
  }

  static Dataset make_data() {
    middlefl::data::SyntheticConfig cfg;
    cfg.num_classes = 4;
    cfg.height = 6;
    cfg.width = 6;
    return middlefl::data::SyntheticGenerator(cfg).generate(20, 9);
  }

  Evaluator make_evaluator(std::size_t batch = 32) const {
    return Evaluator(middlefl::nn::build_model(spec, 3),
                     DataView::all(test), batch);
  }
};

TEST(Evaluator, ConstructionValidation) {
  const EvalFixture fx;
  EXPECT_THROW(Evaluator(nullptr, DataView::all(fx.test)),
               std::invalid_argument);
  EXPECT_THROW(Evaluator(middlefl::nn::build_model(fx.spec, 1),
                         DataView(&fx.test, {}), 32),
               std::invalid_argument);
  EXPECT_THROW(Evaluator(middlefl::nn::build_model(fx.spec, 1),
                         DataView::all(fx.test), 0),
               std::invalid_argument);
}

TEST(Evaluator, AccuracyInUnitRangeAndConsistent) {
  const EvalFixture fx;
  auto evaluator = fx.make_evaluator();
  const auto model = middlefl::nn::build_model(fx.spec, 5);
  const auto r1 = evaluator.evaluate(model->parameters());
  const auto r2 = evaluator.evaluate(model->parameters());
  EXPECT_GE(r1.accuracy, 0.0);
  EXPECT_LE(r1.accuracy, 1.0);
  EXPECT_EQ(r1.accuracy, r2.accuracy);  // deterministic
  EXPECT_EQ(r1.samples, fx.test.size());
}

TEST(Evaluator, BatchSizeDoesNotChangeResult) {
  const EvalFixture fx;
  auto small = fx.make_evaluator(3);
  auto large = fx.make_evaluator(64);
  const auto model = middlefl::nn::build_model(fx.spec, 6);
  EXPECT_EQ(small.evaluate(model->parameters()).accuracy,
            large.evaluate(model->parameters()).accuracy);
}

TEST(Evaluator, SubsampleIsDeterministicAndSmaller) {
  const EvalFixture fx;
  auto evaluator = fx.make_evaluator();
  const auto model = middlefl::nn::build_model(fx.spec, 7);
  const auto sub1 = evaluator.evaluate(model->parameters(), 20);
  const auto sub2 = evaluator.evaluate(model->parameters(), 20);
  EXPECT_EQ(sub1.accuracy, sub2.accuracy);
  EXPECT_EQ(sub1.samples, 20u);
  // max_samples >= size falls back to the full set.
  const auto full = evaluator.evaluate(model->parameters(), 10000);
  EXPECT_EQ(full.samples, fx.test.size());
}

TEST(Evaluator, PerClassAccuracyAveragesToOverall) {
  const EvalFixture fx;
  auto evaluator = fx.make_evaluator();
  const auto model = middlefl::nn::build_model(fx.spec, 8);
  const auto per_class = evaluator.per_class_accuracy(model->parameters());
  ASSERT_EQ(per_class.size(), 4u);
  // Balanced test set: mean of per-class accuracies == overall accuracy.
  double mean = 0.0;
  for (double a : per_class) {
    EXPECT_FALSE(std::isnan(a));
    mean += a;
  }
  mean /= 4.0;
  const auto overall = evaluator.evaluate(model->parameters());
  EXPECT_NEAR(mean, overall.accuracy, 1e-9);
}

TEST(Evaluator, EvaluateClassesRestrictsToSubset) {
  const EvalFixture fx;
  auto evaluator = fx.make_evaluator();
  const auto model = middlefl::nn::build_model(fx.spec, 9);
  const std::vector<std::int32_t> subset{0, 1};
  const auto restricted =
      evaluator.evaluate_classes(model->parameters(), subset);
  EXPECT_EQ(restricted.samples, 40u);  // 20 per class x 2 classes
  const auto per_class = evaluator.per_class_accuracy(model->parameters());
  EXPECT_NEAR(restricted.accuracy, (per_class[0] + per_class[1]) / 2.0,
              1e-9);
  EXPECT_THROW(evaluator.evaluate_classes(model->parameters(),
                                          std::vector<std::int32_t>{}),
               std::invalid_argument);
}

TEST(Evaluator, ConfusionMatrixRowsSumToOne) {
  const EvalFixture fx;
  auto evaluator = fx.make_evaluator();
  const auto model = middlefl::nn::build_model(fx.spec, 10);
  const auto matrix = evaluator.confusion_matrix(model->parameters());
  ASSERT_EQ(matrix.size(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    double row_sum = 0.0;
    for (double v : matrix[t]) {
      EXPECT_GE(v, 0.0);
      row_sum += v;
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-9);  // balanced test set: every row present
  }
  // Diagonal must equal per-class accuracy.
  const auto per_class = evaluator.per_class_accuracy(model->parameters());
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_NEAR(matrix[t][t], per_class[t], 1e-9);
  }
}

TEST(HistoryIo, CsvRoundTrip) {
  middlefl::core::RunHistory history;
  history.algorithm = "MIDDLE";
  for (std::size_t i = 0; i < 5; ++i) {
    middlefl::core::EvalPoint point;
    point.step = i * 10;
    point.accuracy = 0.1 * static_cast<double>(i);
    point.loss = 2.0 - 0.3 * static_cast<double>(i);
    history.points.push_back(point);
  }
  const std::string path = "/tmp/middlefl_history_test.csv";
  middlefl::core::save_history_csv(history, path);
  const auto loaded = middlefl::core::load_history_csv(path);
  EXPECT_EQ(loaded.algorithm, "MIDDLE");
  ASSERT_EQ(loaded.points.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.points[i].step, history.points[i].step);
    EXPECT_NEAR(loaded.points[i].accuracy, history.points[i].accuracy, 1e-9);
    EXPECT_NEAR(loaded.points[i].loss, history.points[i].loss, 1e-9);
  }
  std::remove(path.c_str());
  EXPECT_THROW(middlefl::core::load_history_csv("/no/such/file.csv"),
               std::runtime_error);
}

TEST(HistoryIo, LoadRejectsWrongHeader) {
  const std::string path = "/tmp/middlefl_history_bad.csv";
  {
    std::ofstream out(path);
    out << "foo,bar\n1,2\n";
  }
  EXPECT_THROW(middlefl::core::load_history_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(HistoryIo, LoadsCrlfFiles) {
  // The header's '\r' is stripped as the rows' is.
  const std::string path = "/tmp/middlefl_history_crlf.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "algorithm,step,accuracy,loss\r\nmiddle,0,0.1,2.3\r\n";
  }
  const RunHistory loaded = middlefl::core::load_history_csv(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.algorithm, "middle");
  ASSERT_EQ(loaded.points.size(), 1u);
  EXPECT_EQ(loaded.points[0].step, 0u);
  EXPECT_EQ(loaded.points[0].accuracy, 0.1);
  EXPECT_EQ(loaded.points[0].loss, 2.3);
}

/// The std::runtime_error message load_history_csv throws for a file of
/// `rows` under the right header ("" when it loads).
std::string history_load_error(const std::string& rows) {
  const std::string path = "/tmp/middlefl_history_fields.csv";
  {
    std::ofstream out(path);
    out << "algorithm,step,accuracy,loss\n" << rows;
  }
  std::string message;
  try {
    middlefl::core::load_history_csv(path);
  } catch (const std::runtime_error& error) {
    message = error.what();
  }
  std::remove(path.c_str());
  return message;
}

TEST(HistoryIo, LoadRejectsMalformedNumbersWithTheirLine) {
  EXPECT_EQ(history_load_error("MIDDLE,5,0.5,1.25\n"), "");
  // std::stoul read "-3" as 2^64 - 3 and "5abc" as 5, std::stod read
  // "0.5x" as 0.5, and "abc" escaped as std::invalid_argument.
  const std::pair<const char*, const char*> bad[] = {
      {"MIDDLE,-3,0.5,1\n", "line 2: step"},
      {"MIDDLE,5abc,0.5,1\n", "line 2: step"},
      {"MIDDLE,5,0.5x,1\n", "line 2: accuracy"},
      {"MIDDLE,5,0.5,abc\n", "line 2: loss"},
      {"MIDDLE,5,0.5,1\nMIDDLE,6, 0.5,1\n", "line 3: accuracy"},
      {"MIDDLE,5,0.5\n", "line 2: malformed row"},
  };
  for (const auto& [rows, where] : bad) {
    const std::string message = history_load_error(rows);
    EXPECT_NE(message.find(where), std::string::npos)
        << rows << " -> '" << message << "'";
  }
}

// --- RunHistory ---

RunHistory make_history(std::initializer_list<double> accuracies) {
  RunHistory history;
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

TEST(RunHistory, TimeToAccuracyFindsFirstCrossing) {
  const auto history = make_history({0.1, 0.3, 0.5, 0.45, 0.7});
  EXPECT_EQ(history.time_to_accuracy(0.3).value(), 10u);
  EXPECT_EQ(history.time_to_accuracy(0.5).value(), 20u);
  EXPECT_EQ(history.time_to_accuracy(0.6).value(), 40u);
  EXPECT_FALSE(history.time_to_accuracy(0.9).has_value());
}

TEST(RunHistory, FinalAndBestAccuracy) {
  const auto history = make_history({0.1, 0.8, 0.6});
  EXPECT_DOUBLE_EQ(history.final_accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(history.best_accuracy(), 0.8);
  const RunHistory empty;
  EXPECT_TRUE(std::isnan(empty.final_accuracy()));
  EXPECT_TRUE(std::isnan(empty.best_accuracy()));
}

TEST(RunHistory, AccuracySeries) {
  const auto history = make_history({0.2, 0.4});
  EXPECT_EQ(history.accuracy_series(), (std::vector<double>{0.2, 0.4}));
}

// --- speedup ---

TEST(Speedup, RatioOfTimeToTarget) {
  const auto fast = make_history({0.1, 0.6, 0.8});   // hits 0.5 at step 10
  const auto slow = make_history({0.1, 0.2, 0.3, 0.4, 0.6});  // at step 40
  const auto ratio = middlefl::core::speedup(fast, slow, 0.5);
  ASSERT_TRUE(ratio.has_value());
  EXPECT_DOUBLE_EQ(*ratio, 4.0);
}

TEST(Speedup, BaselineNeverReachesGivesInfinity) {
  const auto fast = make_history({0.1, 0.6});
  const auto slow = make_history({0.1, 0.2});
  const auto ratio = middlefl::core::speedup(fast, slow, 0.5);
  ASSERT_TRUE(ratio.has_value());
  EXPECT_TRUE(std::isinf(*ratio));
}

TEST(Speedup, OursMissesGivesNullopt) {
  const auto fast = make_history({0.1, 0.2});
  const auto slow = make_history({0.1, 0.6});
  EXPECT_FALSE(middlefl::core::speedup(fast, slow, 0.5).has_value());
}

TEST(Speedup, ImmediateHitGivesInfinity) {
  // Both cross at step 0 -> ours took 0 steps.
  const auto ours = make_history({0.9});
  const auto base = make_history({0.1, 0.9});
  const auto ratio = middlefl::core::speedup(ours, base, 0.5);
  ASSERT_TRUE(ratio.has_value());
  EXPECT_TRUE(std::isinf(*ratio));
}

}  // namespace
