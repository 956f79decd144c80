#include "core/entities.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/fleet.hpp"
#include "data/sampler.hpp"
#include "nn/loss.hpp"

namespace middlefl::core {

namespace {

/// The I-step local SGD loop of Eq. (5) on the runtime's model, FedProx
/// term and global-norm clipping included. The runtime's minibatch buffer
/// is reused across steps, so per-step sampling is allocation-free in the
/// steady state (see data::sample_minibatch_into).
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
  std::vector<float> sample_losses(batch_size);
  double loss_acc = 0.0;
  for (std::size_t step = 0; step < local_steps; ++step) {
    data::sample_minibatch_into(data, batch_size, rng, runtime.batch());
    const data::Minibatch& batch = runtime.batch();
    const nn::Tensor& logits = model.forward(batch.features, true);
    auto result = nn::softmax_cross_entropy(logits, batch.labels);
    loss_acc += result.loss;

    if (step + 1 == local_steps) {
      // Per-sample losses on the final batch feed the Oort utility; the
      // logits are already computed, so this costs one softmax pass.
      nn::per_example_cross_entropy(logits, batch.labels, sample_losses);
      double sq = 0.0;
      for (float l : sample_losses) sq += static_cast<double>(l) * l;
      stats.mean_sq_loss = sq / static_cast<double>(batch_size);
    }

    model.zero_grad();
    model.backward(result.grad_logits);
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

Device::Device(std::size_t id, data::DataView data, Snapshot base,
               DeviceRegistry* fleet)
    : id_(id), data_(std::move(data)), fleet_(fleet) {
  if (fleet_ == nullptr) {
    throw std::invalid_argument("Device: null registry");
  }
  if (base == nullptr) {
    throw std::invalid_argument("Device: null base snapshot");
  }
  if (data_.empty()) {
    throw std::invalid_argument("Device " + std::to_string(id) +
                                ": empty data partition");
  }
  param_count_ = base->size();
  // Starting on the registry's block is following it: no reference held.
  if (base == fleet_->block()) return;
  base_ = base;
  shared_ = std::move(base);
  params_version_ = shared_->version();
}

std::span<const float> Device::params() const {
  if (following()) return fleet_->block()->span();
  if (shared_) return shared_->span();
  if (!has_resident_) decode_resident();
  return resident_.data();
}

std::uint64_t Device::params_version() const noexcept {
  return following() ? fleet_->block()->version() : params_version_;
}

void Device::detach() {
  if (!following()) return;
  base_ = fleet_->block();
  shared_ = base_;
  params_version_ = base_->version();
  fleet_->note_detached(id_);
}

void Device::set_params(std::span<const float> params) {
  if (params.size() != param_count_) {
    throw std::invalid_argument("Device::set_params: size mismatch");
  }
  detach();
  const std::span<float> dst = ensure_resident_for_overwrite();
  std::copy(params.begin(), params.end(), dst.begin());
  dirty_ = true;
  shared_.reset();
  if (delta_valid_) invalidate_delta();
  params_version_ = SnapshotStore::global().next_version();
}

void Device::adopt(Snapshot snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("Device::adopt: null snapshot");
  }
  if (snapshot->size() != param_count_) {
    throw std::invalid_argument("Device::adopt: size mismatch");
  }
  if (following()) {
    // A follower already reads the registry's block.
    if (snapshot == fleet_->block()) return;
    detach();
  }
  // The snapshot supersedes every divergence: return the pooled state and
  // rebase the (now empty) delta on the new block.
  release_pooled_state();
  base_ = snapshot;
  shared_ = std::move(snapshot);
  params_version_ = shared_->version();
}

void Device::release_pooled_state() noexcept {
  if (has_resident_) {
    fleet_->release_resident(id_, std::move(resident_));
    resident_ = tensor::Tensor{};
    has_resident_ = false;
  }
  if (delta_valid_) invalidate_delta();
  if (delta_ != nullptr) fleet_->release_delta(id_, std::move(delta_));
  dirty_ = false;
}

void Device::rejoin() noexcept {
  release_pooled_state();
  shared_.reset();
  base_.reset();
}

std::span<float> Device::ensure_resident_for_overwrite() {
  if (!has_resident_) {
    resident_ = fleet_->acquire_resident(id_);
    has_resident_ = true;
  }
  // reset_for_overwrite: size without the zero-fill the caller's copy or
  // decode would immediately overwrite.
  resident_.reset_for_overwrite({param_count_});
  return resident_.data();
}

void Device::decode_resident() const {
  if (!delta_valid_) {
    throw std::logic_error("Device: no state to materialize (id " +
                           std::to_string(id_) + ")");
  }
  if (!has_resident_) {
    resident_ = fleet_->acquire_resident(id_);
    has_resident_ = true;
  }
  resident_.reset_for_overwrite({param_count_});
  const std::span<float> out = resident_.data();
  if (delta_->kind == transport::CompressionKind::kNone) {
    // Lossless mode stores the parameters verbatim.
    transport::decode_delta_into(*delta_, out);
  } else {
    transport::decode_delta_onto(*delta_, base_->span(), out);
  }
}

void Device::invalidate_delta() noexcept {
  fleet_->add_delta_bytes(-static_cast<std::int64_t>(delta_->bytes()));
  delta_valid_ = false;
}

void Device::settle() {
  if (!has_resident_) return;
  if (dirty_) {
    if (delta_ == nullptr) delta_ = fleet_->acquire_delta(id_);
    const std::size_t old_bytes = delta_valid_ ? delta_->bytes() : 0;
    const transport::CompressionConfig& at_rest = fleet_->config().at_rest;
    const std::span<float> values = resident_.data();
    if (at_rest.kind == transport::CompressionKind::kNone) {
      // Verbatim storage: decode reproduces these exact bits, so a
      // settled device resumes exactly where its training left off.
      transport::encode_delta(values, at_rest, *delta_);
    } else {
      // Quantized at rest: encode w - base in place (the buffer is about
      // to be returned anyway). The settled parameters are now the lossy
      // reconstruction — a content change, so the version must move.
      const std::span<const float> base = base_->span();
      for (std::size_t i = 0; i < values.size(); ++i) values[i] -= base[i];
      transport::encode_delta(values, at_rest, *delta_);
      params_version_ = SnapshotStore::global().next_version();
    }
    delta_valid_ = true;
    fleet_->add_delta_bytes(static_cast<std::int64_t>(delta_->bytes()) -
                            static_cast<std::int64_t>(old_bytes));
    dirty_ = false;
  }
  fleet_->release_resident(id_, std::move(resident_));
  resident_ = tensor::Tensor{};
  has_resident_ = false;
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
      opt_state_.clear();
      has_opt_state_ = false;
    } else if (has_opt_state_) {
      optimizer.load_state(opt_state_);
    } else {
      optimizer.reset();
    }
    optimizer.set_learning_rate(learning_rate);
    // Materialize into the pooled runtime (decodes the at-rest delta when
    // the device is settled-diverged).
    model.set_parameters(params());
    const bool dropout = fleet_->model_has_dropout();
    if (dropout) {
      if (!dropout_seeded_) {
        // Every model clone starts from the canonical initial stream, so a
        // device's first round draws what a fresh private model would.
        dropout_rng_ = fleet_->initial_dropout_rng();
        dropout_seeded_ = true;
      }
      model.set_dropout_rng(dropout_rng_);
    }
    stats = run_local_sgd(data_, *rt, local_steps, batch_size, rng, prox_mu,
                          clip_norm);
    // Copy the trained parameters back into resident state; settle()
    // de-materializes them to snapshot + delta after the upload.
    const std::span<float> dst = ensure_resident_for_overwrite();
    const std::span<const float> trained = model.parameters();
    std::copy(trained.begin(), trained.end(), dst.begin());
    dirty_ = true;
    shared_.reset();
    if (delta_valid_) invalidate_delta();
    if (dropout) dropout_rng_ = model.dropout_rng();
    if (!reset_optimizer) {
      optimizer.save_state(opt_state_);
      has_opt_state_ = true;
    }
  } catch (...) {
    if (acquired != nullptr) fleet_->release_runtime(acquired);
    throw;
  }
  if (acquired != nullptr) fleet_->release_runtime(acquired);

  // Oort: U_stat = |B| * sqrt( (1/|B|) sum loss^2 ), with |B| = d_m.
  stat_utility_ = static_cast<double>(data_size()) *
                  std::sqrt(std::max(0.0, stats.mean_sq_loss));
  // Local SGD moved w_m: cached selection scores are stale.
  params_version_ = SnapshotStore::global().next_version();
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
