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

/// The I-step local SGD loop of Eq. (5) on the runtime's model, FedProx
/// term and global-norm clipping included. The runtime's minibatch, loss
/// gradient and per-sample loss buffers are reused across steps and
/// rounds, so they stop allocating once warm (see
/// data::sample_minibatch_into).
DeviceTrainStats run_local_sgd(const data::DataView& data,
                               DeviceRuntime& runtime,
                               std::size_t local_steps,
                               std::size_t batch_size,
                               parallel::Xoshiro256& rng, double prox_mu,
                               double clip_norm) {
  nn::Sequential& model = runtime.model();
  // FedProx anchor: the round's starting parameters.
  std::vector<float> anchor;
  if (prox_mu > 0.0) {
    anchor.assign(model.parameters().begin(), model.parameters().end());
  }

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
    if (prox_mu > 0.0) {
      // grad += mu (w - w_anchor): the FedProx proximal gradient.
      auto params = model.parameters();
      auto grads = model.gradients();
      const auto mu = static_cast<float>(prox_mu);
      for (std::size_t i = 0; i < params.size(); ++i) {
        grads[i] += mu * (params[i] - anchor[i]);
      }
    }
    if (clip_norm > 0.0) {
      auto grads = model.gradients();
      double norm_sq = 0.0;
      for (float g : grads) norm_sq += static_cast<double>(g) * g;
      const double norm = std::sqrt(norm_sq);
      if (norm > clip_norm) {
        const auto scale = static_cast<float>(clip_norm / norm);
        for (float& g : grads) g *= scale;
      }
    }
    runtime.optimizer().step(model.parameters(), model.gradients());
  }
  stats.batches = local_steps;
  stats.mean_loss = loss_acc / static_cast<double>(local_steps);
  return stats;
}

}  // namespace

data::DataView Device::data() const { return fleet_->data_view(id_); }

DeviceHotEntry* Device::hot() const noexcept { return fleet_->hot_[id_]; }

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
  if ((fleet_->flags_[id_] & DeviceRegistry::kHasStatUtility) == 0) {
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
                               bool reset_optimizer,
                               parallel::Xoshiro256& rng, double prox_mu,
                               double clip_norm, DeviceRuntime* runtime) {
  if (local_steps == 0 || batch_size == 0) {
    throw std::invalid_argument("Device::train: steps and batch must be positive");
  }
  if (prox_mu < 0.0 || clip_norm < 0.0) {
    throw std::invalid_argument(
        "Device::train: prox_mu and clip_norm must be non-negative");
  }
  detach();
  DeviceHotEntry& h = *hot();
  const bool dropout = fleet_->model_has_dropout();
  // The side-table entry carries the dropout cursor and the optimizer
  // slots; a reset round without dropout needs one only to clear it.
  DeviceRegistry::TrainState* state =
      fleet_->train_state(id_, dropout || !reset_optimizer);

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
    if (reset_optimizer) {
      optimizer.reset();
      if (state != nullptr) {
        state->opt_state.clear();
        state->has_opt_state = false;
      }
    } else if (state->has_opt_state) {
      optimizer.load_state(state->opt_state);
    } else {
      optimizer.reset();
    }
    optimizer.set_learning_rate(learning_rate);
    model.set_parameters(params());
    if (dropout) {
      if (!state->dropout_seeded) {
        // Every model clone starts from the canonical initial stream, so a
        // device's first round draws what a fresh private model would.
        state->dropout_rng = fleet_->initial_dropout_rng();
        state->dropout_seeded = true;
      }
      model.set_dropout_rng(state->dropout_rng);
    }
    stats = run_local_sgd(data(), *rt, local_steps, batch_size, rng, prox_mu,
                          clip_norm);
    // The trained parameters become the device's own copy.
    fleet_->write_own(h, model.parameters());
    if (dropout) state->dropout_rng = model.dropout_rng();
    if (!reset_optimizer) {
      optimizer.save_state(state->opt_state);
      state->has_opt_state = true;
    }
  } catch (...) {
    if (acquired != nullptr) fleet_->release_runtime(acquired);
    throw;
  }
  if (acquired != nullptr) fleet_->release_runtime(acquired);

  // Oort: U_stat = |B| * sqrt( (1/|B|) sum loss^2 ), with |B| = d_m.
  fleet_->stat_utility_[id_] = static_cast<double>(data_size()) *
                               std::sqrt(std::max(0.0, stats.mean_sq_loss));
  fleet_->flags_[id_] |= DeviceRegistry::kHasStatUtility;
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
