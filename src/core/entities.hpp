// The three tiers of the hierarchy: Device, Edge, Cloud.
//
// A Device owns its data partition and the local model w_m; its train() is
// the I-step local SGD of Eq. (1)/(5). Edges and the cloud are parameter
// holders with FedAvg aggregation (Eq. 6/7). Device training is the
// simulator's unit of parallelism — all per-device state touched by
// train() is private to the device.
//
// A device is fleet-scale virtual state (see core/fleet.hpp): a base
// Snapshot plus an at-rest EncodedDelta, borrowing pooled buffers from its
// DeviceRegistry only while dense parameters are actually needed.
// Lifecycle: following -> shared snapshot -> resident (materialized) ->
// settled (snapshot + delta at rest) -> following again at the next
// lossless broadcast. A *following* device holds no snapshot reference at
// all: params(), params_version() and shares_snapshot() resolve through
// the registry's broadcast block, so a broadcast that swaps that block
// moves every follower at once. Every write detaches the device first —
// it pins the current block as its own base and is listed for the next
// DeviceRegistry::broadcast() to rejoin. adopt() shares an immutable
// published block (an edge download is a refcount bump); a resident buffer
// is checked out on the first write — set_params (a blend) or train (local
// SGD, run through a pooled DeviceRuntime). Version stamps come from the
// process-global SnapshotStore, so an unchanged version still guarantees
// unchanged content for the SimilarityCache. With the default lossless
// at-rest codec the float stream equals a private model's exactly (pinned
// by fleet_test's LazyTrainingOracle suite and pipeline_test's goldens).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/snapshot.hpp"
#include "data/dataset.hpp"
#include "parallel/rng.hpp"
#include "tensor/tensor.hpp"
#include "transport/compression.hpp"

namespace middlefl::core {

class DeviceRegistry;
class DeviceRuntime;

struct DeviceTrainStats {
  /// Mean per-sample cross-entropy across all local steps.
  double mean_loss = 0.0;
  /// Mean squared per-sample loss on the final local batch (the Oort
  /// statistical-utility ingredient).
  double mean_sq_loss = 0.0;
  std::size_t batches = 0;
};

class Device {
 public:
  /// Starts sharing `base` (O(1) memory) — as a follower when `base` is
  /// the registry's broadcast block — and borrows pooled state from
  /// `fleet` — which must be non-null, hold the model/optimizer
  /// prototypes before the device trains, and outlive the device —
  /// whenever dense parameters are needed. Throws std::invalid_argument
  /// on a null registry or base, or an empty data partition.
  Device(std::size_t id, data::DataView data, Snapshot base,
         DeviceRegistry* fleet);

  Device(Device&&) = default;
  Device& operator=(Device&&) = default;

  std::size_t id() const noexcept { return id_; }
  /// d_m: the number of local data samples (the FedAvg weight).
  std::size_t data_size() const noexcept { return data_.size(); }
  const data::DataView& data() const noexcept { return data_; }
  std::size_t param_count() const noexcept { return param_count_; }

  /// The current local model w_m: the registry's broadcast block while
  /// following, the shared snapshot when one is adopted, otherwise the
  /// resident buffer. A settled device materializes its at-rest delta
  /// here — call settle() when done to return the buffer to the pool.
  std::span<const float> params() const;
  /// Installs a private copy of `params` (the copy-on-write write path).
  void set_params(std::span<const float> params);
  /// Shares `snapshot` without copying and rebases on it: any resident
  /// buffer and at-rest delta are returned to the pool (the snapshot
  /// replaces them), and the device's version becomes the snapshot's.
  /// Adopting the registry's block is a no-op for a following device.
  void adopt(Snapshot snapshot);
  /// True while the device reads a shared snapshot (no private copy yet),
  /// including the registry's block while following.
  bool shares_snapshot() const noexcept {
    return following() || shared_ != nullptr;
  }
  /// True while the device follows its registry's broadcast block and
  /// holds no snapshot reference of its own.
  bool following() const noexcept { return base_ == nullptr; }
  /// Pins the registry's current block as this device's own base, so a
  /// later broadcast no longer moves it, and lists the device for the
  /// next DeviceRegistry::broadcast() to rejoin. Every write calls it
  /// first; a lossy broadcast calls it so a lost push leaves the device
  /// on the model it holds now. No-op when already detached.
  void detach();

  /// True while a dense parameter buffer is checked out.
  bool resident() const noexcept { return has_resident_; }
  /// De-materializes the device: encodes the resident parameters as the
  /// at-rest delta against the base snapshot (verbatim under the lossless
  /// default codec; q8/topk settle-out is lossy and bumps the version) and
  /// returns the buffer to the registry. No-op when not resident.
  void settle();
  /// Simulated storage footprint of the at-rest delta (0 when none).
  std::size_t at_rest_bytes() const noexcept {
    return delta_valid_ ? delta_->bytes() : 0;
  }

  /// Version stamp of the current parameters, changed on every mutation
  /// (set_params, adopt of a different snapshot, train). The
  /// SimilarityCache keys on it: an unchanged version guarantees an
  /// unchanged selection score. A follower carries its block's version.
  std::uint64_t params_version() const noexcept;

  /// Runs `local_steps` SGD iterations (Eq. 5) from the current parameters
  /// on minibatches of `batch_size` drawn with `rng`. When
  /// `reset_optimizer` is set, momentum/Adam state is cleared first (a
  /// fresh round starts from a freshly downloaded model); such a round's
  /// state is also not kept afterwards, so optimizer slots persist only
  /// across consecutive rounds trained without a reset (the simulator
  /// fixes the setting per run). `prox_mu` > 0
  /// adds a FedProx proximal term mu/2 |w - w_start|^2 anchored at the
  /// round's starting parameters, damping client drift on Non-IID data.
  /// `clip_norm` > 0 rescales each step's gradient to at most that L2
  /// norm before the optimizer update (global-norm clipping).
  ///
  /// Training runs through a pooled DeviceRuntime: pass `runtime` to reuse
  /// a checkout across many devices (the per-edge chains do); nullptr
  /// makes the device acquire and release one itself.
  DeviceTrainStats train(std::size_t local_steps, std::size_t batch_size,
                         double learning_rate, bool reset_optimizer,
                         parallel::Xoshiro256& rng, double prox_mu = 0.0,
                         double clip_norm = 0.0,
                         DeviceRuntime* runtime = nullptr);

  /// Oort statistical utility: d_m * sqrt(mean squared sample loss) from
  /// the most recent training round; nullopt before the first round (such
  /// devices are prioritized for exploration).
  std::optional<double> stat_utility() const noexcept { return stat_utility_; }
  /// Time step of the last participation (for staleness accounting).
  std::optional<std::size_t> last_trained_step() const noexcept {
    return last_trained_step_;
  }
  void mark_trained(std::size_t step) noexcept { last_trained_step_ = step; }
  /// Clears training history (used at global synchronization barriers in
  /// ablations; the default simulator keeps history across syncs).
  void clear_history() noexcept {
    stat_utility_.reset();
    last_trained_step_.reset();
  }

 private:
  friend class DeviceRegistry;

  /// Returns every pooled resource and drops the snapshot references:
  /// the device follows its registry's block again. The registry's
  /// broadcast and erase hooks.
  void rejoin() noexcept;
  /// Returns the resident buffer and the at-rest delta block to the
  /// registry's freelists.
  void release_pooled_state() noexcept;
  /// Checks a resident buffer out of the registry (or reuses the current
  /// one) sized for overwrite — reset_for_overwrite skips the zero-fill
  /// the subsequent copy/decode would waste.
  std::span<float> ensure_resident_for_overwrite();
  /// Materializes the dense parameters of a settled device from its
  /// at-rest delta into a resident buffer. Mutable path behind params().
  void decode_resident() const;
  /// Retires the at-rest delta's byte accounting (the encoded block is
  /// kept for reuse by the next settle()).
  void invalidate_delta() noexcept;

  std::size_t id_;
  data::DataView data_;
  std::optional<double> stat_utility_;
  std::optional<std::size_t> last_trained_step_;
  Snapshot shared_;
  std::uint64_t params_version_ = 0;
  DeviceRegistry* fleet_ = nullptr;
  std::size_t param_count_ = 0;
  /// Base snapshot the at-rest delta is encoded against; null exactly
  /// while following (the registry's block is the base then).
  Snapshot base_;
  /// At-rest divergence from base_; valid content iff delta_valid_ (the
  /// block itself is kept across invalidations for reuse).
  std::unique_ptr<transport::EncodedDelta> delta_;
  /// Dense parameters while checked out; mutable because params() const
  /// materializes on demand.
  mutable tensor::Tensor resident_;
  /// Persisted per-device stochastic training state, restored into the
  /// pooled runtime around each round so every device draws its own
  /// dropout masks and momentum trajectory, exactly as a private model
  /// and optimizer would.
  parallel::Xoshiro256 dropout_rng_;
  std::vector<float> opt_state_;
  // Flags last, packed into one word (the fleet holds millions of these).
  bool delta_valid_ = false;
  mutable bool has_resident_ = false;
  /// Resident buffer holds writes not yet encoded by settle().
  bool dirty_ = false;
  bool dropout_seeded_ = false;
  bool has_opt_state_ = false;
};

class Edge {
 public:
  Edge(std::size_t id, std::size_t param_count);

  std::size_t id() const noexcept { return id_; }
  std::span<const float> params() const noexcept { return snapshot_->span(); }
  /// Publishes an immutable copy of `params` as this edge's model.
  void set_params(std::span<const float> params);
  /// Shares an already-published block (e.g. the cloud's broadcast).
  void adopt(Snapshot snapshot);
  /// The current model as a shareable snapshot (O(1)).
  const Snapshot& snapshot() const noexcept { return snapshot_; }

  /// Accumulates participating-sample weight toward d_hat_n (Eq. 7).
  void add_participation(double weight) noexcept {
    participation_weight_ += weight;
  }
  double participation_weight() const noexcept {
    return participation_weight_;
  }
  void reset_participation() noexcept { participation_weight_ = 0.0; }

 private:
  std::size_t id_;
  Snapshot snapshot_;
  double participation_weight_ = 0.0;
};

class Cloud {
 public:
  explicit Cloud(std::size_t param_count);

  std::span<const float> params() const noexcept { return snapshot_->span(); }
  /// Publishes an immutable copy of `params` as the global model.
  void set_params(std::span<const float> params);
  /// Installs an already-published block as the global model.
  void adopt(Snapshot snapshot);
  /// The global model as a shareable snapshot: the broadcast after a cloud
  /// sync hands this one block to every edge and device.
  const Snapshot& snapshot() const noexcept { return snapshot_; }

  /// Version stamp of the current global model for the SimilarityCache;
  /// changes exactly when the parameters do (a new block is installed).
  std::uint64_t params_version() const noexcept {
    return snapshot_->version();
  }

 private:
  Snapshot snapshot_;
};

}  // namespace middlefl::core
