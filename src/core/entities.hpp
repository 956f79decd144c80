// The three tiers of the hierarchy: Device, Edge, Cloud.
//
// A Device is a client with its own data partition and local model w_m;
// its train() is the I-step local SGD of Eq. (1)/(5). Edges and the cloud
// are parameter holders with FedAvg aggregation (Eq. 6/7). Device training
// is the simulator's unit of parallelism — all per-device state touched by
// train() belongs to that device alone.
//
// A Device is a small handle (registry pointer + id) over the columns of
// its DeviceRegistry (see core/fleet.hpp): the device's state lives there,
// cold devices as a few column entries and detached ones in a pooled hot
// entry, and the handle is cheap to copy and pass by value. Lifecycle:
// following -> shared snapshot -> own copy -> following again at the next
// lossless broadcast. A *following* device holds no snapshot reference at
// all: params(), params_version() and shares_snapshot() resolve through
// the registry's broadcast block, so a broadcast that swaps that block
// moves every follower at once. Every write detaches the device first — it
// pins the current block in a hot entry and is listed for the next
// DeviceRegistry::broadcast() to rejoin. adopt() shares an immutable
// published block (an edge download is a refcount bump); the first write
// — set_params (a blend) or train (local SGD, run through a pooled
// DeviceRuntime) — gives the device its own copy, which later writes
// overwrite in place and reads return without copying. Version stamps come
// from the process-global SnapshotStore, so an unchanged version still
// guarantees unchanged content for the SimilarityCache. The float stream
// equals a private model's exactly (pinned by fleet_test's
// LazyTrainingOracle suite and pipeline_test's goldens).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/snapshot.hpp"
#include "data/dataset.hpp"
#include "parallel/rng.hpp"

namespace middlefl::core {

class DeviceRegistry;
class DeviceRuntime;
struct DeviceHotEntry;

struct DeviceTrainStats {
  /// Mean per-sample cross-entropy across all local steps.
  double mean_loss = 0.0;
  /// Mean squared per-sample loss on the final local batch (the Oort
  /// statistical-utility ingredient).
  double mean_sq_loss = 0.0;
  std::size_t batches = 0;
};

/// Handle to one device of a DeviceRegistry (DeviceRegistry::at).
/// The registry must outlive it and hold the model/optimizer prototypes
/// before the device trains.
class Device {
 public:
  std::size_t id() const noexcept { return id_; }
  /// d_m: the number of local data samples (the FedAvg weight).
  std::size_t data_size() const { return data().size(); }
  /// The device's data, built on demand from the registry's partition.
  data::DataView data() const;
  std::size_t param_count() const noexcept;

  /// The current local model w_m: the registry's broadcast block while
  /// following, the shared snapshot when one is adopted, otherwise the
  /// device's own copy. A plain read; the span stays valid until the
  /// device's next write, adopt or rejoin.
  std::span<const float> params() const noexcept;
  /// Writes `params` into the device's own copy (the copy-on-write write
  /// path: the first write on a sharing device makes that copy). `params`
  /// may be a span of the device's own copy.
  void set_params(std::span<const float> params);
  /// Shares `snapshot` without copying: the snapshot replaces any own
  /// copy, and the device's version becomes the snapshot's. Adopting the
  /// registry's block is a no-op for a following device.
  void adopt(Snapshot snapshot);
  /// True while the device reads a shared snapshot (no own copy),
  /// including the registry's block while following.
  bool shares_snapshot() const noexcept;
  /// True while the device follows its registry's broadcast block and
  /// holds no hot entry.
  bool following() const noexcept { return hot() == nullptr; }
  /// Pins the registry's current block in a hot entry for this device, so
  /// a later broadcast no longer moves it, and lists the device for the
  /// next DeviceRegistry::broadcast() to rejoin. Every write calls it
  /// first; a lossy broadcast calls it so a lost push leaves the device on
  /// the model it holds now. No-op when already detached.
  void detach();

  /// Version stamp of the current parameters, changed on every mutation
  /// (set_params, adopt of a different snapshot, train). The
  /// SimilarityCache keys on it: an unchanged version guarantees an
  /// unchanged selection score. A follower carries its block's version.
  std::uint64_t params_version() const noexcept;

  /// Runs `local_steps` SGD iterations (Eq. 5) from the current parameters
  /// on minibatches of `batch_size` drawn with `rng`. Momentum/Adam state
  /// is cleared first: every round starts from a freshly downloaded model,
  /// so a device carries no optimizer state between rounds.
  ///
  /// Training runs through a pooled DeviceRuntime: pass `runtime` to reuse
  /// a checkout across many devices (the per-edge chains do); nullptr
  /// makes the device acquire and release one itself.
  DeviceTrainStats train(std::size_t local_steps, std::size_t batch_size,
                         double learning_rate, parallel::Xoshiro256& rng,
                         DeviceRuntime* runtime = nullptr);

  /// Oort statistical utility: d_m * sqrt(mean squared sample loss) from
  /// the most recent training round; nullopt before the first round (such
  /// devices are prioritized for exploration), and always when the
  /// registry does not track it (DeviceRegistry::track_stat_utility).
  std::optional<double> stat_utility() const noexcept;

 private:
  friend class DeviceRegistry;
  Device(DeviceRegistry* fleet, std::size_t id) noexcept
      : fleet_(fleet), id_(id) {}

  /// The device's hot entry; null while following.
  DeviceHotEntry* hot() const noexcept;

  DeviceRegistry* fleet_;
  std::size_t id_;
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
