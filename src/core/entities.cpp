#include "core/entities.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/fleet.hpp"
#include "data/sampler.hpp"
#include "nn/loss.hpp"

namespace middlefl::core {

namespace {

/// The I-step local SGD loop of Eq. (5) on the runtime's model. The
/// runtime's minibatch, loss gradient and per-sample loss buffers are
/// reused across steps and rounds, so they stop allocating once warm (see
/// data::sample_minibatch_into).
DeviceTrainStats run_local_sgd(const data::DataView& data,
                               DeviceRuntime& runtime,
                               std::size_t local_steps,
                               std::size_t batch_size,
                               parallel::Xoshiro256& rng) {
  nn::Sequential& model = runtime.model();
  DeviceTrainStats stats;
  double loss_acc = 0.0;
  for (std::size_t step = 0; step < local_steps; ++step) {
    data::sample_minibatch_into(data, batch_size, rng, runtime.batch());
    const data::Minibatch& batch = runtime.batch();
    const nn::Tensor& logits = model.forward(batch.features, true);
    loss_acc += nn::softmax_cross_entropy_into(logits, batch.labels,
                                               runtime.loss_grad());

    if (step + 1 == local_steps) {
      // Per-sample losses on the final batch feed the Oort utility; the
      // logits are already computed, so this costs one softmax pass.
      std::vector<float>& sample_losses = runtime.sample_losses();
      sample_losses.resize(batch_size);
      nn::per_example_cross_entropy(logits, batch.labels, sample_losses);
      double sq = 0.0;
      for (float l : sample_losses) sq += static_cast<double>(l) * l;
      stats.mean_sq_loss = sq / static_cast<double>(batch_size);
    }

    model.zero_grad();
    model.backward(runtime.loss_grad());
    runtime.optimizer().step(model.parameters(), model.gradients());
  }
  stats.batches = local_steps;
  stats.mean_loss = loss_acc / static_cast<double>(local_steps);
  return stats;
}

}  // namespace

data::DataView Device::data() const { return fleet_->data_view(id_); }

DeviceHotEntry* Device::hot() const noexcept {
  return fleet_->hot_entry(id_);
}

std::size_t Device::param_count() const noexcept {
  return params().size();
}

std::span<const float> Device::params() const noexcept {
  const DeviceHotEntry* h = hot();
  if (h == nullptr) return fleet_->block()->span();
  if (h->shared != nullptr) return h->shared->span();
  return h->own;
}

bool Device::shares_snapshot() const noexcept {
  const DeviceHotEntry* h = hot();
  return h == nullptr || h->shared != nullptr;
}

std::uint64_t Device::params_version() const noexcept {
  const DeviceHotEntry* h = hot();
  return h == nullptr ? fleet_->block()->version() : h->params_version;
}

std::optional<double> Device::stat_utility() const noexcept {
  if (!fleet_->track_stat_utility_ ||
      (fleet_->flags_[id_] & DeviceRegistry::kHasStatUtility) == 0) {
    return std::nullopt;
  }
  return fleet_->stat_utility_[id_];
}

void Device::detach() {
  if (following()) fleet_->attach_hot(id_, fleet_->block());
}

void Device::set_params(std::span<const float> params) {
  if (params.size() != param_count()) {
    throw std::invalid_argument("Device::set_params: size mismatch");
  }
  detach();
  DeviceHotEntry& h = *hot();
  fleet_->write_own(h, params);
  h.params_version = SnapshotStore::global().next_version();
}

void Device::adopt(Snapshot snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("Device::adopt: null snapshot");
  }
  if (snapshot->size() != param_count()) {
    throw std::invalid_argument("Device::adopt: size mismatch");
  }
  if (following()) {
    // A follower already reads the registry's block.
    if (snapshot == fleet_->block()) return;
    detach();
  }
  // The snapshot supersedes any own copy.
  DeviceHotEntry& h = *hot();
  fleet_->share(h, std::move(snapshot));
  h.params_version = h.shared->version();
}

DeviceTrainStats Device::train(std::size_t local_steps,
                               std::size_t batch_size, double learning_rate,
                               parallel::Xoshiro256& rng,
                               DeviceRuntime* runtime) {
  if (local_steps == 0 || batch_size == 0) {
    throw std::invalid_argument("Device::train: steps and batch must be positive");
  }
  detach();
  DeviceHotEntry& h = *hot();

  DeviceRuntime* acquired = nullptr;
  DeviceRuntime* rt = runtime;
  if (rt == nullptr) {
    acquired = fleet_->acquire_runtime();
    rt = acquired;
  }
  DeviceTrainStats stats;
  try {
    nn::Sequential& model = rt->model();
    optim::Optimizer& optimizer = rt->optimizer();
    // Every round starts from a freshly downloaded model with cleared
    // momentum/Adam slots.
    optimizer.reset();
    optimizer.set_learning_rate(learning_rate);
    model.set_parameters(params());
    stats = run_local_sgd(data(), *rt, local_steps, batch_size, rng);
    // The trained parameters become the device's own copy.
    fleet_->write_own(h, model.parameters());
  } catch (...) {
    if (acquired != nullptr) fleet_->release_runtime(acquired);
    throw;
  }
  if (acquired != nullptr) fleet_->release_runtime(acquired);

  // Oort: U_stat = |B| * sqrt( (1/|B|) sum loss^2 ), with |B| = d_m.
  if (fleet_->track_stat_utility_) {
    fleet_->stat_utility_[id_] = static_cast<double>(data_size()) *
                                 std::sqrt(std::max(0.0, stats.mean_sq_loss));
    fleet_->flags_[id_] |= DeviceRegistry::kHasStatUtility;
  }
  // Local SGD moved w_m: cached selection scores are stale.
  h.params_version = SnapshotStore::global().next_version();
  return stats;
}

Edge::Edge(std::size_t id, std::size_t param_count) : id_(id) {
  const std::vector<float> zeros(param_count, 0.0f);
  snapshot_ = SnapshotStore::global().publish(zeros);
}

void Edge::set_params(std::span<const float> params) {
  if (params.size() != snapshot_->size()) {
    throw std::invalid_argument("Edge::set_params: size mismatch");
  }
  snapshot_ = SnapshotStore::global().publish(params);
}

void Edge::adopt(Snapshot snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("Edge::adopt: null snapshot");
  }
  if (snapshot->size() != snapshot_->size()) {
    throw std::invalid_argument("Edge::adopt: size mismatch");
  }
  snapshot_ = std::move(snapshot);
}

Cloud::Cloud(std::size_t param_count) {
  const std::vector<float> zeros(param_count, 0.0f);
  snapshot_ = SnapshotStore::global().publish(zeros);
}

void Cloud::set_params(std::span<const float> params) {
  if (params.size() != snapshot_->size()) {
    throw std::invalid_argument("Cloud::set_params: size mismatch");
  }
  snapshot_ = SnapshotStore::global().publish(params);
}

void Cloud::adopt(Snapshot snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("Cloud::adopt: null snapshot");
  }
  if (snapshot->size() != snapshot_->size()) {
    throw std::invalid_argument("Cloud::adopt: size mismatch");
  }
  snapshot_ = std::move(snapshot);
}

}  // namespace middlefl::core
