// Decorators the traced pass wraps around the layers a Simulation already
// takes through public interfaces: the mobility model, the selection
// strategy inside AlgorithmSpec, the optimizer prototype (whose
// clone_config() hands every pooled device runtime a wrapped clone) and
// the EdgeModelSink in front of the serving hub.
//
// Each decorator forwards every virtual call unchanged and only adds a
// clock read pair, a tally update and (when a recorder is attached) one
// span per call, so a decorated run is bit-identical to a bare one — the
// bench checks this by comparing cloud-model hashes. Selection, optimizer
// and sink calls arrive concurrently from the per-edge chains, so the
// tallies are relaxed atomics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/selection.hpp"
#include "core/serving_config.hpp"
#include "mobility/mobility_model.hpp"
#include "obs/trace_recorder.hpp"
#include "optim/optimizer.hpp"

namespace middlefl::bench::suite {

/// Calls, busy microseconds and a per-call item count of one layer.
struct LayerTally {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> items{0};
  std::atomic<double> busy_us{0.0};

  double mean_us() const noexcept {
    const auto n = calls.load(std::memory_order_relaxed);
    return n == 0 ? 0.0 : busy_us.load(std::memory_order_relaxed) /
                              static_cast<double>(n);
  }
};

/// The tallies of one traced pass plus the recorder its spans go to.
struct Probes {
  obs::TraceRecorder* trace = nullptr;
  LayerTally mobility;  // items = movers
  LayerTally select;
  LayerTally optim;
  LayerTally publish;
};

/// Times one call: feeds `tally` and records a span named `name`.
class ProbeScope {
 public:
  using Clock = obs::TraceRecorder::Clock;

  ProbeScope(LayerTally& tally, obs::TraceRecorder* trace, const char* name)
      : tally_(tally), trace_(trace), name_(name), begin_(Clock::now()) {}
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;
  ~ProbeScope() {
    const auto end = Clock::now();
    tally_.calls.fetch_add(1, std::memory_order_relaxed);
    tally_.items.fetch_add(items_, std::memory_order_relaxed);
    tally_.busy_us.fetch_add(
        std::chrono::duration<double, std::micro>(end - begin_).count(),
        std::memory_order_relaxed);
    if (trace_ != nullptr) trace_->complete(name_, "bench", begin_, end);
  }

  void set_items(std::uint64_t n) noexcept { items_ = n; }

 private:
  LayerTally& tally_;
  obs::TraceRecorder* trace_;
  const char* name_;
  Clock::time_point begin_;
  std::uint64_t items_ = 0;
};

class TimedMobility final : public mobility::MobilityModel {
 public:
  TimedMobility(std::unique_ptr<mobility::MobilityModel> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  std::string name() const override { return inner_->name(); }
  std::size_t num_devices() const override { return inner_->num_devices(); }
  std::size_t num_edges() const override { return inner_->num_edges(); }
  const std::vector<std::size_t>& assignment() const override {
    return inner_->assignment();
  }
  void advance() override {
    ProbeScope scope(probes_.mobility, probes_.trace, "mobility.advance");
    inner_->advance();
    if (const auto* movers = inner_->movers()) scope.set_items(movers->size());
  }
  const std::vector<std::size_t>* movers() const override {
    return inner_->movers();
  }
  void set_pool(parallel::ThreadPool* pool) override { inner_->set_pool(pool); }
  void reset() override { inner_->reset(); }
  std::size_t step() const override { return inner_->step(); }

 private:
  std::unique_ptr<mobility::MobilityModel> inner_;
  Probes& probes_;
};

class TimedSelection final : public core::SelectionStrategy {
 public:
  TimedSelection(std::unique_ptr<core::SelectionStrategy> inner,
                 Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  std::string name() const override { return inner_->name(); }
  bool needs_params() const noexcept override {
    return inner_->needs_params();
  }
  bool needs_metadata() const noexcept override {
    return inner_->needs_metadata();
  }
  std::vector<std::size_t> select(
      std::span<const core::Candidate> candidates,
      std::span<const float> cloud_params, std::size_t k,
      parallel::Xoshiro256& rng,
      const core::SelectionContext& context) const override {
    ProbeScope scope(probes_.select, probes_.trace, "core.select");
    return inner_->select(candidates, cloud_params, k, rng, context);
  }
  std::vector<std::size_t> select_ids(
      std::span<const std::size_t> ids, std::size_t k,
      parallel::Xoshiro256& rng) const override {
    ProbeScope scope(probes_.select, probes_.trace, "core.select");
    return inner_->select_ids(ids, k, rng);
  }

 private:
  std::unique_ptr<core::SelectionStrategy> inner_;
  Probes& probes_;
};

class TimedOptimizer final : public optim::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<optim::Optimizer> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  std::string name() const override { return inner_->name(); }
  void step(std::span<float> params, std::span<const float> grads) override {
    ProbeScope scope(probes_.optim, probes_.trace, "optim.step");
    inner_->step(params, grads);
  }
  void reset() override { inner_->reset(); }
  double learning_rate() const noexcept override {
    return inner_->learning_rate();
  }
  void set_learning_rate(double lr) noexcept override {
    inner_->set_learning_rate(lr);
  }
  std::unique_ptr<optim::Optimizer> clone_config() const override {
    return std::make_unique<TimedOptimizer>(inner_->clone_config(), probes_);
  }
  void save_state(std::vector<float>& out) const override {
    inner_->save_state(out);
  }
  void load_state(std::span<const float> state) override {
    inner_->load_state(state);
  }

 private:
  std::unique_ptr<optim::Optimizer> inner_;
  Probes& probes_;
};

class TimedSink final : public core::EdgeModelSink {
 public:
  TimedSink(core::EdgeModelSink& inner, Probes& probes)
      : inner_(inner), probes_(probes) {}

  void on_edge_model(std::size_t edge, const core::Snapshot& model) override {
    ProbeScope scope(probes_.publish, probes_.trace, "serve.publish");
    inner_.on_edge_model(edge, model);
  }

 private:
  core::EdgeModelSink& inner_;
  Probes& probes_;
};

}  // namespace middlefl::bench::suite
