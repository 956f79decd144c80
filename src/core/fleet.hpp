// Fleet-scale device management: the DeviceRegistry — per-field columns for
// every device, hot entries for the detached ones — and the pooled training
// runtimes behind every device's virtual state.
//
// A fully-materialized device would cost O(param_count) for the model plus
// the same again for gradients and optimizer slots — a few thousand
// devices would exhaust RAM long before the paper's millions-of-users
// regime. So a device reads a refcounted core::Snapshot of the COW
// SnapshotStore until it is written, and only a written device holds one
// dense copy of its own parameters (Algorithm 1's carried model w_m).
// Training runs through a pooled runtime checked out per edge chain, so
// gradients and optimizer slots cost O(chains), and own copies cost
// O(devices written since the last lossless broadcast), not O(fleet).
//
// The registry also holds the fleet's broadcast block: the global model of
// the last lossless device broadcast. A device that has not been written
// since that broadcast *follows* the block — it holds no snapshot of its
// own and reads the registry's. A write detaches the device (it pins the
// block in a hot entry and is listed in its shard's detached list), and
// broadcast() rejoins exactly the listed devices before swapping the
// block. A lossless broadcast therefore costs O(devices touched since the
// last one), not O(fleet), and leaves every device with the bytes and
// version stamp an adopt of the new block would have given it.
//
// Storage is column-wise over the dense ids 0..n-1, all made present by
// set_data() with one fill per column (no per-device call), so a fleet is
// built in O(columns) and follows the first broadcast()'s block. A cold
// (following) device is a 4-byte hot slot of 0 — plus, only when selection reads
// metadata, its stat utility (8) and a flags byte — and its data view is
// rebuilt on demand from the registry's data::Partition. So a cold device
// costs 4 bytes under random selection and 13 under metadata selection.
// Only a detached device holds a DeviceHotEntry (a shared snapshot or its
// own parameter buffer, and a version), taken at detach and returned at
// rejoin. A device carries nothing else between rounds: every round resets
// the optimizer. Device is a (registry, id) handle over these columns.
//
// Hot entries live in a slab of fixed-size chunks whose directory is sized
// once by set_data() for one slot per device, so an entry never moves and
// a slot resolves to its entry without a lock. Fresh slots come from one
// atomic counter; shards (a fixed power-of-two count, keyed by
// splitmix64(id)) keep the freed slots and the detached lists, each behind
// the shard's mutex, so the parallel edge chains contend per shard, not
// globally. A shard takes a fresh slot only when its free list is empty,
// so it never holds more slots than it has devices: the slab never
// outgrows its directory.
//
// Thread-safety contract: configure()/track_stat_utility()/set_data()/
// set_prototypes() are construction-time and broadcast() a serial point
// (no concurrent calls); at() and the Device methods are safe concurrently
// for disjoint devices, as the per-edge chains use them, together with the
// runtime pool and the counters.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/entities.hpp"
#include "data/partition.hpp"
#include "data/sampler.hpp"
#include "nn/sequential.hpp"
#include "optim/optimizer.hpp"
#include "parallel/rng.hpp"
#include "tensor/tensor.hpp"

namespace middlefl::core {

/// Configuration of the device-state machinery, embedded in
/// SimulationConfig.
struct FleetConfig {
  /// Registry shard count, rounded up to a power of two; 0 = auto (64).
  std::size_t shards = 0;
};

/// The state of one detached device, in a registry slab slot recycled per
/// shard: a shared snapshot, or the device's own parameter buffer.
struct DeviceHotEntry {
  /// Non-null while the device reads a shared snapshot (the block pinned
  /// at detach, or the last adopted one); null while it reads `own`.
  Snapshot shared;
  /// The device's own parameters while `shared` is null. The buffer keeps
  /// its capacity when the slot is freed, so a recycled entry's next write
  /// does not allocate.
  std::vector<float> own;
  std::uint64_t params_version = 0;
};

/// One pooled training context: a scratch model (parameters + gradients),
/// an optimizer instance, and the buffers one local step writes (the
/// minibatch, the loss gradient, the final batch's per-sample losses). A
/// per-edge chain checks one out for the duration of its LocalTrain phase
/// and runs every selected member through it, so training memory is
/// O(chains), not O(devices), and the step buffers stop allocating once
/// warm.
class DeviceRuntime {
 public:
  nn::Sequential& model() noexcept { return *model_; }
  optim::Optimizer& optimizer() noexcept { return *optimizer_; }
  data::Minibatch& batch() noexcept { return batch_; }
  /// d(loss)/d(logits) of the current step.
  tensor::Tensor& loss_grad() noexcept { return loss_grad_; }
  /// Per-sample losses of a round's final batch (the Oort utility input).
  std::vector<float>& sample_losses() noexcept { return sample_losses_; }

 private:
  friend class DeviceRegistry;
  DeviceRuntime() = default;

  std::unique_ptr<nn::Sequential> model_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  data::Minibatch batch_;
  tensor::Tensor loss_grad_;
  std::vector<float> sample_losses_;
};

/// Column store of every device plus the pooled resources devices borrow:
/// hot entries and training runtimes. Also the fleet's accounting point
/// (materializations, devices holding their own copy) feeding the obs
/// gauges.
class DeviceRegistry {
 public:
  DeviceRegistry() { configure(FleetConfig{}); }

  /// (Re)applies `config`; only valid while the registry is empty.
  void configure(const FleetConfig& config);

  /// Installs the model/optimizer prototypes pooled runtimes are cloned
  /// from. Required before acquire_runtime() and before devices train.
  /// The prototype model also fixes param_count().
  void set_prototypes(const nn::Sequential& model,
                      const optim::Optimizer& optimizer);
  bool has_prototypes() const noexcept { return proto_model_ != nullptr; }
  std::size_t param_count() const noexcept { return param_count_; }

  // --- Device data --------------------------------------------------------
  /// Installs the dataset and partition device data views are built from
  /// and makes devices 0..n-1 of the partition present, each a cold
  /// follower of the broadcast block; only valid while the registry is
  /// empty. The registry keeps its own copy of `partition` (O(1) in the
  /// window layout), fills the columns for its devices and sizes the
  /// hot-entry slab's directory; `base` must outlive the registry. Throws
  /// std::invalid_argument naming the first device whose partition is
  /// empty, std::out_of_range on a list-layout index past `base` and
  /// std::length_error on more devices than a 4-byte slot can name.
  void set_data(const data::Dataset& base, data::Partition partition);
  /// Whether devices keep the stat-utility and flags columns (on by
  /// default). Off, Device::train skips the utility write and
  /// Device::stat_utility() is always nullopt: 9 bytes per device saved
  /// for selection that never reads candidate metadata. Only valid while
  /// the registry is empty, i.e. before set_data() fills it.
  void track_stat_utility(bool track);
  bool tracks_stat_utility() const noexcept { return track_stat_utility_; }
  /// Device `id`'s data, built on demand: a window view, or a borrowed
  /// view of the partition's index list (no copy).
  data::DataView data_view(std::size_t id) const;

  // --- Broadcast block ----------------------------------------------------
  /// The block every following device reads; null before the first
  /// broadcast().
  const Snapshot& block() const noexcept { return block_; }
  /// The lossless device broadcast: rejoins every device detached since
  /// the last call (dropping its own copy from the count exactly as
  /// Device::adopt does, and returning its hot entry to the pool), clears
  /// the detached lists and installs `block` as the block every device
  /// follows — the same end state as adopting `block` into every device,
  /// at O(detached) cost.
  /// Throws std::invalid_argument on a null block or, once prototypes are
  /// set, a size mismatch.
  void broadcast(Snapshot block);
  /// Devices the last broadcast() rejoined: the part of the fleet it had
  /// to touch (the `fleet.detached_devices` gauge).
  std::size_t detached_devices() const noexcept { return detached_devices_; }
  /// Devices holding a hot entry now (those detached since the last
  /// broadcast). Serial-point read.
  std::size_t hot_entries() const;

  // --- Device table -------------------------------------------------------
  /// A handle to device `id`; throws std::out_of_range when absent and
  /// std::logic_error before the first broadcast() (a device reads the
  /// block until it is written).
  Device at(std::size_t id);
  std::size_t size() const noexcept { return hot_.size(); }
  bool empty() const noexcept { return hot_.empty(); }

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t shard_of(std::size_t id) const noexcept {
    return parallel::splitmix64(static_cast<std::uint64_t>(id)) & shard_mask_;
  }

  // --- Pooled training runtimes ------------------------------------------
  /// Checks a runtime out (creating one from the prototypes on pool
  /// exhaustion). Pair with release_runtime.
  DeviceRuntime* acquire_runtime();
  void release_runtime(DeviceRuntime* runtime);

  // --- Fleet accounting (relaxed atomics; exact at serial points) --------
  /// Writes that gave a device its own copy: the first set_params or train
  /// on a following or snapshot-sharing device.
  std::uint64_t materializations() const noexcept {
    return materializations_.load(std::memory_order_relaxed);
  }
  /// Devices holding their own copy now.
  std::size_t resident_devices() const noexcept {
    const auto now = resident_now_.load(std::memory_order_relaxed);
    return now > 0 ? static_cast<std::size_t>(now) : 0;
  }
  /// High-water mark of resident_devices() since the last
  /// reset_resident_peak() (the per-step gauge).
  std::size_t resident_peak() const noexcept {
    return resident_peak_.load(std::memory_order_relaxed);
  }
  void reset_resident_peak() noexcept {
    resident_peak_.store(resident_devices(), std::memory_order_relaxed);
  }

 private:
  friend class Device;

  // flags_ bits.
  static constexpr std::uint8_t kHasStatUtility = 1;

  struct Shard {
    std::mutex mutex;  // guards everything below
    std::vector<std::size_t> detached;  // ids detached since the broadcast
    std::vector<std::uint32_t> hot_free;  // freed slab slots
  };

  /// Hot entries by slot: chunks of kChunkEntries behind a directory sized
  /// once by reset(), so an entry never moves. A fresh slot's chunk is
  /// allocated once, by the first thread that reaches it.
  class HotSlab {
   public:
    HotSlab() = default;
    HotSlab(const HotSlab&) = delete;
    HotSlab& operator=(const HotSlab&) = delete;
    ~HotSlab() { reset(0); }

    /// Frees every chunk and sizes the directory for `capacity` slots.
    /// Not thread-safe.
    void reset(std::size_t capacity);
    /// A slot never handed out since reset(). Thread-safe. Throws
    /// std::logic_error past the capacity.
    std::uint32_t allocate();
    /// Slot `slot`'s entry; the slot must have been allocated.
    DeviceHotEntry& operator[](std::uint32_t slot) const noexcept {
      return chunks_[slot / kChunkEntries].load(std::memory_order_acquire)
          [slot % kChunkEntries];
    }
    /// Slots handed out since reset().
    std::size_t allocated() const noexcept {
      return std::min<std::size_t>(next_.load(std::memory_order_relaxed),
                                   capacity_);
    }

   private:
    static constexpr std::size_t kChunkEntries = 256;

    std::unique_ptr<std::atomic<DeviceHotEntry*>[]> chunks_;
    std::size_t num_chunks_ = 0;
    std::size_t capacity_ = 0;
    std::atomic<std::uint32_t> next_{0};
    std::mutex mutex_;  // serializes chunk allocation
  };

  /// Device `id`'s hot entry; null while it follows the block.
  DeviceHotEntry* hot_entry(std::size_t id) const noexcept {
    const std::uint32_t slot = hot_[id];
    return slot == 0 ? nullptr : &slab_[slot - 1];
  }
  /// Gives device `id` a hot entry sharing `base` and lists it for the
  /// next broadcast() to rejoin. Device::detach; concurrent chains attach
  /// disjoint devices.
  DeviceHotEntry& attach_hot(std::size_t id, Snapshot base);
  /// Copies `params` into `entry`'s own buffer (no copy when `params` is
  /// that buffer) and drops its shared snapshot. A sharing entry counts
  /// one materialization and one more resident device.
  void write_own(DeviceHotEntry& entry, std::span<const float> params);
  /// Points `entry` at `snapshot`; an entry that held its own copy counts
  /// one resident device fewer (its buffer keeps its capacity).
  void share(DeviceHotEntry& entry, Snapshot snapshot) noexcept;

  std::size_t shard_mask_ = 0;
  // deque: Shard is immovable (mutex) and the count is fixed by configure.
  std::deque<Shard> shards_;
  HotSlab slab_;
  Snapshot block_;
  std::size_t detached_devices_ = 0;

  const data::Dataset* data_ = nullptr;
  data::Partition partition_;

  // The columns, indexed by device id. The last two are empty unless
  // track_stat_utility_.
  std::vector<std::uint32_t> hot_;  // 0 while following, else slot + 1
  std::vector<double> stat_utility_;  // valid iff kHasStatUtility
  std::vector<std::uint8_t> flags_;
  bool track_stat_utility_ = true;

  std::unique_ptr<nn::Sequential> proto_model_;
  std::unique_ptr<optim::Optimizer> proto_optimizer_;
  std::size_t param_count_ = 0;

  std::mutex runtime_mutex_;
  std::vector<std::unique_ptr<DeviceRuntime>> runtime_pool_;
  std::vector<DeviceRuntime*> runtime_free_;

  std::atomic<std::uint64_t> materializations_{0};
  std::atomic<std::int64_t> resident_now_{0};
  std::atomic<std::size_t> resident_peak_{0};
};

}  // namespace middlefl::core
