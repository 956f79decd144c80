// Model evaluation and run-history bookkeeping.
#pragma once

#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace middlefl::core {

struct EvalResult {
  double accuracy = 0.0;
  double loss = 0.0;
  std::size_t samples = 0;
};

/// Evaluates flat parameter vectors on a test set using one shared model
/// instance (evaluation never mutates parameters of the entities under
/// test). Not thread-safe; benches hold one Evaluator per thread if needed.
/// evaluate() shards the test batches over parallel_for on the pool set by
/// set_pool() — per-batch statistics are reduced in batch order, so the
/// result is bitwise identical at any pool size.
class Evaluator {
 public:
  /// `model` provides the architecture; its current parameters are
  /// irrelevant (overwritten per call). The evaluator takes ownership.
  Evaluator(std::unique_ptr<nn::Sequential> model, data::DataView test_data,
            std::size_t batch_size = 256);

  /// Shards evaluate() batches across `pool` (nullptr runs them inline).
  /// Batch models are lazily cloned from the architecture and recycled
  /// across calls.
  void set_pool(parallel::ThreadPool* pool) noexcept { pool_ = pool; }

  /// Attaches a span recorder: each evaluation batch becomes an "eval"
  /// span. nullptr detaches. Tracing never changes the batch order or the
  /// reduction.
  void set_trace(obs::TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Overall accuracy/loss of `params`. When `max_samples` > 0 and smaller
  /// than the test set, evaluates on a fixed deterministic subsample (same
  /// subset for every call, so curves are comparable across steps).
  EvalResult evaluate(std::span<const float> params,
                      std::size_t max_samples = 0);

  /// Per-class accuracy over the full test set; entries for classes with no
  /// test samples are NaN.
  std::vector<double> per_class_accuracy(std::span<const float> params);

  /// Accuracy restricted to the given label set (e.g. "major classes").
  EvalResult evaluate_classes(std::span<const float> params,
                              std::span<const std::int32_t> classes);

  /// Row-normalized confusion matrix over the full test set:
  /// result[true][predicted] = fraction of class-`true` samples predicted
  /// as `predicted`. Rows of absent classes are all zero.
  std::vector<std::vector<double>> confusion_matrix(
      std::span<const float> params);

  const data::DataView& test_data() const noexcept { return test_; }

 private:
  EvalResult evaluate_view(std::span<const float> params,
                           const data::DataView& view);

  // Batch-model recycling: a batch pops a spare clone (or clones the
  // architecture on a dry stack) and pushes it back when it is done, so
  // steady-state evaluation allocates no models.
  std::unique_ptr<nn::Sequential> acquire_worker_model();
  void release_worker_model(std::unique_ptr<nn::Sequential> model);

  std::unique_ptr<nn::Sequential> model_;
  data::DataView test_;
  data::DataView subsample_;  // lazily built deterministic subsample
  std::size_t subsample_size_ = 0;
  std::size_t batch_size_;
  parallel::ThreadPool* pool_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  std::mutex spares_mutex_;
  std::vector<std::unique_ptr<nn::Sequential>> spares_;
};

/// One evaluation point along a run.
struct EvalPoint {
  std::size_t step = 0;
  double accuracy = 0.0;
  double loss = 0.0;
  /// Each edge model's accuracy; empty unless track_edge_accuracy and
  /// eval_edges are set.
  std::vector<double> edge_accuracy;
};

/// Complete record of one simulation run.
struct RunHistory {
  std::string algorithm;
  std::vector<EvalPoint> points;

  /// First evaluation step whose accuracy reaches `target`; nullopt if the
  /// run never got there.
  std::optional<std::size_t> time_to_accuracy(double target) const;

  /// Final (last-point) accuracy; NaN for an empty history.
  double final_accuracy() const;

  /// Best accuracy seen; NaN for an empty history.
  double best_accuracy() const;

  /// Accuracy series (for smoothing / plotting).
  std::vector<double> accuracy_series() const;
};

/// Writes a RunHistory as CSV (columns: algorithm, step, accuracy, loss)
/// and reads it back. Round-trips through util::CsvWriter's format —
/// including algorithm names containing commas or quotes, which the writer
/// escapes per RFC 4180 and the loader unescapes (util::csv_split_row).
/// Loading validates the header and parses every field whole; a malformed
/// row throws std::runtime_error naming its line. Per-edge accuracies are
/// not persisted — persist the full CSVs from the benches for those.
void save_history_csv(const RunHistory& history, const std::string& path);
RunHistory load_history_csv(const std::string& path);

/// Mean total-variation distance between each edge's class mixture and the
/// global class mixture, in [0, 1]: 0 = every edge sees the global
/// distribution (IID across edges), 1 = perfectly disjoint class support.
/// Edges with no samples are skipped. This is the quantity device mobility
/// perturbs over time — uniform-teleport mobility drives it to ~0 within a
/// few steps while home-biased mobility keeps it high (DESIGN.md §2).
double mean_edge_skew(
    const std::vector<std::vector<std::size_t>>& edge_class_histograms);

/// Speedup of `ours` over `baseline` in time-to-accuracy: baseline_steps /
/// our_steps. Infinity when only the baseline missed the target; nullopt
/// when ours missed it.
std::optional<double> speedup(const RunHistory& ours,
                              const RunHistory& baseline, double target);

}  // namespace middlefl::core
