// Fleet-scale device management: the sharded DeviceRegistry and the pooled
// training runtimes behind every device's virtual state.
//
// A fully-materialized device would cost O(param_count) for the model plus
// the same again for gradients and optimizer slots — a few thousand
// devices would exhaust RAM long before the paper's millions-of-users
// regime. So a Device holds only (a) a refcounted core::Snapshot into the
// COW SnapshotStore and (b) a compact at-rest delta against that snapshot,
// encoded with the transport layer's q8/topk codecs (lossless verbatim
// storage by default). Dense parameters exist only while the device is
// selected for training in the current step: they materialize into a
// pooled scratch buffer checked out from this registry, and de-materialize
// back to snapshot + delta when the per-edge chain settles its members
// after aggregation. Peak RSS therefore scales with K * num_edges
// (selected devices per step), not with fleet size.
//
// The registry also holds the fleet's broadcast block: the global model of
// the last lossless device broadcast. A device that has not been written
// since that broadcast *follows* the block — it holds no snapshot of its
// own and reads the registry's. A write detaches the device (it pins the
// block and is listed in its shard's detached list), and broadcast()
// rejoins exactly the listed devices before swapping the block. A lossless
// broadcast therefore costs O(devices touched since the last one), not
// O(fleet), and leaves every device with the bytes and version stamp an
// adopt of the new block would have given it.
//
// The registry shards by device id (fixed power-of-two shard count, open
// addressing within a shard) so lookups, mobility updates and the per-edge
// task-graph chains touch devices without walking cold state, and so the
// freelists feeding materialization (resident buffers, recycled
// EncodedDelta blocks) are contended per shard, not globally. Sequential
// ids — the Simulation's layout — additionally hit a dense pointer table
// and skip probing entirely.
//
// Thread-safety contract: insert()/erase()/configure()/set_prototypes()
// are construction-time operations and broadcast() is a serial-point
// operation (no concurrent calls); at()/find()/block() are safe
// concurrently with each other and with the freelist, detach and counter
// methods, which the parallel edge chains call for disjoint devices.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/entities.hpp"
#include "data/sampler.hpp"
#include "nn/sequential.hpp"
#include "optim/optimizer.hpp"
#include "parallel/rng.hpp"
#include "tensor/tensor.hpp"
#include "transport/compression.hpp"

namespace middlefl::core {

/// Configuration of the device-state machinery, embedded in
/// SimulationConfig. The defaults keep the exact float stream of a private
/// per-device model: lossless at-rest storage round-trips every bit (pinned
/// by the pipeline_test goldens and fleet_test's LazyTrainingOracle).
struct FleetConfig {
  /// At-rest storage codec for a device's divergence from its base
  /// snapshot. kNone (default) stores the parameters verbatim —
  /// bitwise-lossless. kQuant8/kTopK bound memory harder but make
  /// settle-out lossy; opt-in per scenario (see ARCHITECTURE.md for when
  /// that is safe).
  transport::CompressionConfig at_rest{};
  /// Registry shard count, rounded up to a power of two; 0 = auto (64).
  std::size_t shards = 0;
};

/// One pooled training context: a scratch model (parameters + gradients),
/// an optimizer instance and a minibatch buffer. A per-edge chain checks
/// one out for the duration of its LocalTrain phase and runs every
/// selected member through it, so training memory is O(chains), not
/// O(devices).
class DeviceRuntime {
 public:
  nn::Sequential& model() noexcept { return *model_; }
  optim::Optimizer& optimizer() noexcept { return *optimizer_; }
  data::Minibatch& batch() noexcept { return batch_; }

 private:
  friend class DeviceRegistry;
  DeviceRuntime() = default;

  std::unique_ptr<nn::Sequential> model_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  data::Minibatch batch_;
};

/// Sharded home of every Device plus the pooled resources devices borrow:
/// resident parameter buffers, recycled at-rest delta blocks and training
/// runtimes. Also the fleet's accounting point (materializations, resident
/// devices, at-rest bytes) feeding the obs gauges.
class DeviceRegistry {
 public:
  DeviceRegistry() { configure(FleetConfig{}); }

  /// (Re)applies `config`; only valid while the registry is empty.
  void configure(const FleetConfig& config);
  const FleetConfig& config() const noexcept { return cfg_; }

  /// Installs the model/optimizer prototypes pooled runtimes are cloned
  /// from. Required before acquire_runtime() and before devices train.
  /// The prototype model also fixes param_count() and the canonical
  /// initial dropout stream every device starts from.
  void set_prototypes(const nn::Sequential& model,
                      const optim::Optimizer& optimizer);
  bool has_prototypes() const noexcept { return proto_model_ != nullptr; }
  std::size_t param_count() const noexcept { return param_count_; }
  /// True when the prototype model contains Dropout layers, i.e. when the
  /// per-device dropout RNG stream must be saved/restored around pooled
  /// training (see Device::train).
  bool model_has_dropout() const noexcept { return has_dropout_; }
  const parallel::Xoshiro256& initial_dropout_rng() const;

  // --- Broadcast block ----------------------------------------------------
  /// The block every following device reads; null before the first
  /// broadcast().
  const Snapshot& block() const noexcept { return block_; }
  /// The lossless device broadcast: rejoins every device detached since
  /// the last call (returning its resident buffer and at-rest delta to the
  /// freelists exactly as Device::adopt does, in ascending id per shard),
  /// clears the detached lists and installs `block` as the block every
  /// device follows — the same end state as adopting `block` into every
  /// device, at O(detached) cost. Throws std::invalid_argument on a null
  /// block or, once prototypes are set, a size mismatch.
  void broadcast(Snapshot block);
  /// Devices the last broadcast() rejoined: the part of the fleet it had
  /// to touch (the `fleet.detached_devices` gauge).
  std::size_t detached_devices() const noexcept { return detached_devices_; }

  // --- Device table -------------------------------------------------------
  /// Takes ownership of `device`, keyed by device.id(). Throws
  /// std::invalid_argument on a duplicate id.
  Device& insert(Device device);
  /// Removes the device with `id`, returning its pooled state to the
  /// freelists. Returns false when absent.
  bool erase(std::size_t id);
  Device* find(std::size_t id) noexcept;
  const Device* find(std::size_t id) const noexcept;
  /// Throws std::out_of_range when absent.
  Device& at(std::size_t id);
  const Device& at(std::size_t id) const;
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t shard_of(std::size_t id) const noexcept {
    return hash_id(id) & shard_mask_;
  }

  // --- Pooled training runtimes ------------------------------------------
  /// Checks a runtime out (creating one from the prototypes on pool
  /// exhaustion). Pair with release_runtime.
  DeviceRuntime* acquire_runtime();
  void release_runtime(DeviceRuntime* runtime);

  // --- Per-shard freelists (device materialization) ----------------------
  /// Checks out a resident parameter buffer for device `id` (contents
  /// unspecified; the caller fills it via Tensor::reset_for_overwrite).
  /// Counts one materialization and one resident device.
  tensor::Tensor acquire_resident(std::size_t id);
  void release_resident(std::size_t id, tensor::Tensor buffer);
  /// Recycled at-rest delta block for device `id` (cleared).
  std::unique_ptr<transport::EncodedDelta> acquire_delta(std::size_t id);
  void release_delta(std::size_t id,
                     std::unique_ptr<transport::EncodedDelta> delta);

  // --- Fleet accounting (relaxed atomics; exact at serial points) --------
  std::uint64_t materializations() const noexcept {
    return materializations_.load(std::memory_order_relaxed);
  }
  std::size_t resident_devices() const noexcept {
    const auto now = resident_now_.load(std::memory_order_relaxed);
    return now > 0 ? static_cast<std::size_t>(now) : 0;
  }
  /// High-water mark of concurrently resident devices since the last
  /// reset_resident_peak() (the per-step gauge).
  std::size_t resident_peak() const noexcept {
    return resident_peak_.load(std::memory_order_relaxed);
  }
  void reset_resident_peak() noexcept {
    resident_peak_.store(resident_devices(), std::memory_order_relaxed);
  }
  std::size_t delta_bytes_at_rest() const noexcept {
    const auto bytes = delta_bytes_.load(std::memory_order_relaxed);
    return bytes > 0 ? static_cast<std::size_t>(bytes) : 0;
  }
  /// Called by devices when an at-rest delta is installed (+bytes) or
  /// invalidated (-bytes).
  void add_delta_bytes(std::int64_t delta) noexcept {
    delta_bytes_.fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  friend class Device;

  /// Lists device `id` for the next broadcast() to rejoin. Called by
  /// Device::detach; concurrent chains detach disjoint devices.
  void note_detached(std::size_t id);

  struct Entry {
    static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
    static constexpr std::size_t kTombstone = static_cast<std::size_t>(-2);
    std::size_t id = 0;
    std::size_t slot = kEmpty;
  };

  struct Shard {
    std::deque<Device> slots;             // stable addresses
    std::vector<std::size_t> free_slots;  // recycled (erased) slot indices
    std::vector<Entry> table;             // open addressing: id -> slot
    std::size_t occupied = 0;             // live entries
    std::size_t tombstones = 0;
    std::mutex freelist_mutex;  // guards the three lists below
    std::vector<tensor::Tensor> resident_free;
    std::vector<std::unique_ptr<transport::EncodedDelta>> delta_free;
    std::vector<std::size_t> detached;  // ids detached since the broadcast
  };

  static std::uint64_t hash_id(std::size_t id) noexcept {
    return parallel::splitmix64(static_cast<std::uint64_t>(id));
  }
  Entry* probe(Shard& shard, std::size_t id) noexcept;
  void rehash(Shard& shard, std::size_t capacity);

  FleetConfig cfg_;
  std::size_t shard_mask_ = 0;
  // deque: Shard is immovable (mutex) and the count is fixed by configure.
  std::deque<Shard> shards_;
  std::size_t size_ = 0;
  Snapshot block_;
  std::size_t detached_devices_ = 0;
  // Dense id -> device fast path for the sequential-id layout the
  // Simulation produces; entries are only added for ids that extend or fit
  // the current range (sparse churned ids fall back to probing).
  std::vector<Device*> dense_;

  std::unique_ptr<nn::Sequential> proto_model_;
  std::unique_ptr<optim::Optimizer> proto_optimizer_;
  std::size_t param_count_ = 0;
  bool has_dropout_ = false;

  std::mutex runtime_mutex_;
  std::vector<std::unique_ptr<DeviceRuntime>> runtime_pool_;
  std::vector<DeviceRuntime*> runtime_free_;

  std::atomic<std::uint64_t> materializations_{0};
  std::atomic<std::int64_t> resident_now_{0};
  std::atomic<std::size_t> resident_peak_{0};
  std::atomic<std::int64_t> delta_bytes_{0};
};

}  // namespace middlefl::core
