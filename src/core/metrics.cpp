#include "core/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <cmath>
#include <stdexcept>

#include "data/sampler.hpp"
#include "parallel/parallel_for.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "nn/loss.hpp"

namespace middlefl::core {

Evaluator::Evaluator(std::unique_ptr<nn::Sequential> model,
                     data::DataView test_data, std::size_t batch_size)
    : model_(std::move(model)),
      test_(std::move(test_data)),
      batch_size_(batch_size) {
  if (model_ == nullptr || !model_->built()) {
    throw std::invalid_argument("Evaluator: model must be built");
  }
  if (test_.empty()) {
    throw std::invalid_argument("Evaluator: empty test set");
  }
  if (batch_size_ == 0) {
    throw std::invalid_argument("Evaluator: batch size must be positive");
  }
}

std::unique_ptr<nn::Sequential> Evaluator::acquire_worker_model() {
  {
    std::lock_guard lock(spares_mutex_);
    if (!spares_.empty()) {
      auto model = std::move(spares_.back());
      spares_.pop_back();
      return model;
    }
  }
  return model_->clone();  // clone() copies the architecture; cheap vs a batch
}

void Evaluator::release_worker_model(std::unique_ptr<nn::Sequential> model) {
  std::lock_guard lock(spares_mutex_);
  spares_.push_back(std::move(model));
}

EvalResult Evaluator::evaluate_view(std::span<const float> params,
                                    const data::DataView& view) {
  // Fixed-size batch shards, one stat slot per batch, reduced in batch
  // order: the summed loss is the same sequence of double additions at
  // any pool size (and inline, on a null pool or inside a worker).
  const std::size_t num_batches =
      (view.size() + batch_size_ - 1) / batch_size_;
  struct BatchStats {
    double loss_term = 0.0;
    std::size_t correct = 0;
  };
  std::vector<BatchStats> stats(num_batches);
  parallel::parallel_for(pool_, 0, num_batches, [&](std::size_t b) {
    obs::TraceSpan span(trace_, "eval-shard", "eval", b, "batch");
    const std::size_t start = b * batch_size_;
    const std::size_t end = std::min(view.size(), start + batch_size_);
    std::vector<std::size_t> positions(end - start);
    for (std::size_t i = start; i < end; ++i) positions[i - start] = i;
    const auto features = view.gather(positions);
    const auto labels = view.gather_labels(positions);
    auto model = acquire_worker_model();
    model->set_parameters(params);
    const nn::Tensor& logits = model->forward(features, false);
    stats[b].loss_term =
        static_cast<double>(nn::cross_entropy_value(logits, labels)) *
        static_cast<double>(labels.size());
    stats[b].correct = nn::count_correct(logits, labels);
    release_worker_model(std::move(model));
  });

  EvalResult result;
  result.samples = view.size();
  double loss_acc = 0.0;
  std::size_t correct = 0;
  for (const BatchStats& s : stats) {
    loss_acc += s.loss_term;
    correct += s.correct;
  }
  result.loss = loss_acc / static_cast<double>(view.size());
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(view.size());
  return result;
}

EvalResult Evaluator::evaluate(std::span<const float> params,
                               std::size_t max_samples) {
  if (max_samples == 0 || max_samples >= test_.size()) {
    return evaluate_view(params, test_);
  }
  if (subsample_size_ != max_samples) {
    // Deterministic class-interleaved subsample: pick every size/max-th
    // index so the subset stays stable across calls and balanced as long as
    // the base view is.
    std::vector<std::size_t> picks;
    picks.reserve(max_samples);
    const double stride = static_cast<double>(test_.size()) /
                          static_cast<double>(max_samples);
    const auto base_indices = test_.indices();
    for (std::size_t i = 0; i < max_samples; ++i) {
      picks.push_back(
          base_indices[static_cast<std::size_t>(i * stride)]);
    }
    subsample_ = data::DataView(&test_.base(), std::move(picks));
    subsample_size_ = max_samples;
  }
  return evaluate_view(params, subsample_);
}

std::vector<double> Evaluator::per_class_accuracy(
    std::span<const float> params) {
  model_->set_parameters(params);
  const std::size_t classes = test_.base().num_classes();
  std::vector<std::size_t> correct(classes, 0);
  std::vector<std::size_t> total(classes, 0);
  for (const auto& batch : data::sequential_batches(test_.size(), batch_size_)) {
    const auto features = test_.gather(batch);
    const auto labels = test_.gather_labels(batch);
    const nn::Tensor& logits = model_->forward(features, false);
    const std::size_t cols = logits.dim(1);
    for (std::size_t b = 0; b < labels.size(); ++b) {
      const float* row = logits.data().data() + b * cols;
      const auto pred = static_cast<std::int32_t>(
          std::max_element(row, row + cols) - row);
      const auto label = static_cast<std::size_t>(labels[b]);
      ++total[label];
      if (pred == labels[b]) ++correct[label];
    }
  }
  std::vector<double> acc(classes, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t c = 0; c < classes; ++c) {
    if (total[c] > 0) {
      acc[c] = static_cast<double>(correct[c]) / static_cast<double>(total[c]);
    }
  }
  return acc;
}

std::vector<std::vector<double>> Evaluator::confusion_matrix(
    std::span<const float> params) {
  model_->set_parameters(params);
  const std::size_t classes = test_.base().num_classes();
  std::vector<std::vector<std::size_t>> counts(
      classes, std::vector<std::size_t>(classes, 0));
  std::vector<std::size_t> totals(classes, 0);
  for (const auto& batch : data::sequential_batches(test_.size(), batch_size_)) {
    const auto features = test_.gather(batch);
    const auto labels = test_.gather_labels(batch);
    const nn::Tensor& logits = model_->forward(features, false);
    const std::size_t cols = logits.dim(1);
    for (std::size_t b = 0; b < labels.size(); ++b) {
      const float* row = logits.data().data() + b * cols;
      const auto pred = static_cast<std::size_t>(
          std::max_element(row, row + cols) - row);
      const auto label = static_cast<std::size_t>(labels[b]);
      ++counts[label][pred];
      ++totals[label];
    }
  }
  std::vector<std::vector<double>> matrix(
      classes, std::vector<double>(classes, 0.0));
  for (std::size_t t = 0; t < classes; ++t) {
    if (totals[t] == 0) continue;
    for (std::size_t p = 0; p < classes; ++p) {
      matrix[t][p] =
          static_cast<double>(counts[t][p]) / static_cast<double>(totals[t]);
    }
  }
  return matrix;
}

EvalResult Evaluator::evaluate_classes(std::span<const float> params,
                                       std::span<const std::int32_t> classes) {
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < test_.size(); ++i) {
    if (std::find(classes.begin(), classes.end(), test_.label(i)) !=
        classes.end()) {
      picks.push_back(test_.indices()[i]);
    }
  }
  if (picks.empty()) {
    throw std::invalid_argument("evaluate_classes: no test samples in the class set");
  }
  return evaluate_view(params, data::DataView(&test_.base(), std::move(picks)));
}

double mean_edge_skew(
    const std::vector<std::vector<std::size_t>>& edge_class_histograms) {
  if (edge_class_histograms.empty()) return 0.0;
  const std::size_t classes = edge_class_histograms.front().size();
  std::vector<double> global(classes, 0.0);
  double total = 0.0;
  for (const auto& hist : edge_class_histograms) {
    if (hist.size() != classes) {
      throw std::invalid_argument("mean_edge_skew: ragged histograms");
    }
    for (std::size_t c = 0; c < classes; ++c) {
      global[c] += static_cast<double>(hist[c]);
      total += static_cast<double>(hist[c]);
    }
  }
  if (total == 0.0) return 0.0;
  for (double& g : global) g /= total;

  double skew_sum = 0.0;
  std::size_t counted = 0;
  for (const auto& hist : edge_class_histograms) {
    double edge_total = 0.0;
    for (std::size_t h : hist) edge_total += static_cast<double>(h);
    if (edge_total == 0.0) continue;
    double tv = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      tv += std::abs(static_cast<double>(hist[c]) / edge_total - global[c]);
    }
    skew_sum += 0.5 * tv;
    ++counted;
  }
  return counted == 0 ? 0.0 : skew_sum / static_cast<double>(counted);
}

std::optional<std::size_t> RunHistory::time_to_accuracy(double target) const {
  for (const auto& point : points) {
    if (point.accuracy >= target) return point.step;
  }
  return std::nullopt;
}

double RunHistory::final_accuracy() const {
  return points.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : points.back().accuracy;
}

double RunHistory::best_accuracy() const {
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const auto& point : points) {
    if (std::isnan(best) || point.accuracy > best) best = point.accuracy;
  }
  return best;
}

std::vector<double> RunHistory::accuracy_series() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& point : points) out.push_back(point.accuracy);
  return out;
}

void save_history_csv(const RunHistory& history, const std::string& path) {
  util::CsvWriter writer(path);
  writer.header({"algorithm", "step", "accuracy", "loss"});
  for (const auto& point : history.points) {
    writer.add(history.algorithm)
        .add(point.step)
        .add(point.accuracy)
        .add(point.loss);
    writer.end_row();
  }
}

RunHistory load_history_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_history_csv: cannot open " + path);
  // A CRLF file's lines, header included, end in '\r'.
  const auto read_line = [&in](std::string& line) {
    if (!std::getline(in, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return true;
  };
  std::string line;
  if (!read_line(line) || line != "algorithm,step,accuracy,loss") {
    throw std::runtime_error("load_history_csv: unexpected header '" + line +
                             "'");
  }
  RunHistory history;
  for (std::size_t line_no = 2; read_line(line); ++line_no) {
    if (line.empty()) continue;
    const std::string where = "load_history_csv: line " +
                              std::to_string(line_no);
    std::vector<std::string> fields;
    try {
      fields = util::csv_split_row(line);
    } catch (const std::invalid_argument& error) {
      throw std::runtime_error(where + ": malformed row '" + line +
                               "': " + error.what());
    }
    if (fields.size() != 4) {
      throw std::runtime_error(where + ": malformed row '" + line + "'");
    }
    if (history.algorithm.empty()) history.algorithm = fields[0];
    EvalPoint point;
    point.step = util::parse_number<std::size_t>(fields[1], where + ": step");
    point.accuracy = util::parse_number<double>(fields[2], where + ": accuracy");
    point.loss = util::parse_number<double>(fields[3], where + ": loss");
    history.points.push_back(point);
  }
  return history;
}

std::optional<double> speedup(const RunHistory& ours,
                              const RunHistory& baseline, double target) {
  const auto our_steps = ours.time_to_accuracy(target);
  if (!our_steps) return std::nullopt;
  const auto base_steps = baseline.time_to_accuracy(target);
  if (!base_steps) return std::numeric_limits<double>::infinity();
  if (*our_steps == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(*base_steps) / static_cast<double>(*our_steps);
}

}  // namespace middlefl::core
