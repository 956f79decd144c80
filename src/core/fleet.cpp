#include "core/fleet.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace middlefl::core {
namespace {

constexpr std::size_t kDefaultShards = 64;

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

void DeviceRegistry::HotSlab::reset(std::size_t capacity) {
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    delete[] chunks_[c].load(std::memory_order_relaxed);
  }
  num_chunks_ = (capacity + kChunkEntries - 1) / kChunkEntries;
  // Value-initialized: every chunk pointer starts null.
  chunks_ = num_chunks_ == 0
                ? nullptr
                : std::make_unique<std::atomic<DeviceHotEntry*>[]>(num_chunks_);
  capacity_ = capacity;
  next_.store(0, std::memory_order_relaxed);
}

std::uint32_t DeviceRegistry::HotSlab::allocate() {
  const std::uint32_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    throw std::logic_error("DeviceRegistry: hot-entry slab full at " +
                           std::to_string(capacity_) + " slots");
  }
  std::atomic<DeviceHotEntry*>& chunk = chunks_[slot / kChunkEntries];
  if (chunk.load(std::memory_order_acquire) == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (chunk.load(std::memory_order_relaxed) == nullptr) {
      chunk.store(new DeviceHotEntry[kChunkEntries], std::memory_order_release);
    }
  }
  return slot;
}

void DeviceRegistry::configure(const FleetConfig& config) {
  if (!empty()) {
    throw std::logic_error(
        "DeviceRegistry::configure: registry already holds devices");
  }
  const std::size_t requested =
      config.shards == 0 ? kDefaultShards : config.shards;
  const std::size_t shards = round_up_pow2(requested);
  shards_.clear();
  // deque grows in place: Shard holds a mutex and cannot be moved.
  for (std::size_t s = 0; s < shards; ++s) shards_.emplace_back();
  shard_mask_ = shards - 1;
}

void DeviceRegistry::set_prototypes(const nn::Sequential& model,
                                    const optim::Optimizer& optimizer) {
  proto_model_ = model.clone();
  proto_optimizer_ = optimizer.clone_config();
  param_count_ = proto_model_->param_count();
  {
    std::lock_guard<std::mutex> lock(runtime_mutex_);
    runtime_pool_.clear();
    runtime_free_.clear();
  }
}

void DeviceRegistry::set_data(const data::Dataset& base,
                              data::Partition partition) {
  if (!empty()) {
    throw std::logic_error(
        "DeviceRegistry::set_data: registry already holds devices");
  }
  const auto empty_partition = [](std::size_t id) {
    return std::invalid_argument("Device " + std::to_string(id) +
                                 ": empty data partition");
  };
  // Every window has the same size, so one check covers the layout.
  if (partition.window_devices > 0 &&
      (partition.window_size == 0 || base.size() == 0)) {
    throw empty_partition(0);
  }
  for (std::size_t id = 0; id < partition.device_indices.size(); ++id) {
    const std::vector<std::size_t>& list = partition.device_indices[id];
    if (list.empty()) throw empty_partition(id);
    for (const std::size_t i : list) {
      if (i >= base.size()) {
        throw std::out_of_range("DeviceRegistry::set_data: index " +
                                std::to_string(i) + " exceeds dataset size " +
                                std::to_string(base.size()));
      }
    }
  }
  // hot_ names slot s as s + 1, and there is at most one slot per device.
  if (partition.num_devices() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DeviceRegistry::set_data: " +
                            std::to_string(partition.num_devices()) +
                            " devices past the 4-byte slot range");
  }
  data_ = &base;
  partition_ = std::move(partition);
  const std::size_t n = partition_.num_devices();
  slab_.reset(n);
  // Every device is born a cold follower: no hot entry, no utility yet.
  hot_.assign(n, 0);
  if (track_stat_utility_) {
    stat_utility_.assign(n, 0.0);
    flags_.assign(n, 0);
  }
}

void DeviceRegistry::track_stat_utility(bool track) {
  if (!empty()) {
    throw std::logic_error(
        "DeviceRegistry::track_stat_utility: registry already holds devices");
  }
  track_stat_utility_ = track;
}

data::DataView DeviceRegistry::data_view(std::size_t id) const {
  if (partition_.window_devices > 0) return partition_.view(*data_, id);
  return data::DataView::borrow(*data_, partition_.device_indices[id]);
}

void DeviceRegistry::broadcast(Snapshot block) {
  if (block == nullptr) {
    throw std::invalid_argument("DeviceRegistry::broadcast: null block");
  }
  if (has_prototypes() && block->size() != param_count_) {
    throw std::invalid_argument("DeviceRegistry::broadcast: size mismatch");
  }
  std::size_t rejoined = 0;
  // A serial point: no chain touches the shards' lists concurrently.
  for (Shard& shard : shards_) {
    for (const std::size_t id : shard.detached) {
      const std::uint32_t slot = hot_[id] - 1;
      DeviceHotEntry& entry = slab_[slot];
      if (entry.shared == nullptr) {
        resident_now_.fetch_sub(1, std::memory_order_relaxed);
      }
      entry.shared.reset();
      hot_[id] = 0;
      shard.hot_free.push_back(slot);
    }
    rejoined += shard.detached.size();
    shard.detached.clear();
  }
  block_ = std::move(block);
  detached_devices_ = rejoined;
}

std::size_t DeviceRegistry::hot_entries() const {
  std::size_t live = slab_.allocated();
  for (const Shard& shard : shards_) live -= shard.hot_free.size();
  return live;
}

DeviceHotEntry& DeviceRegistry::attach_hot(std::size_t id, Snapshot base) {
  Shard& shard = shards_[shard_of(id)];
  std::uint32_t slot = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.hot_free.empty()) {
      slot = slab_.allocate();
    } else {
      slot = shard.hot_free.back();
      shard.hot_free.pop_back();
    }
    // Listed only once it has a slot, so broadcast() never meets a
    // listed device without one.
    shard.detached.push_back(id);
  }
  DeviceHotEntry& entry = slab_[slot];
  entry.params_version = base->version();
  entry.shared = std::move(base);
  hot_[id] = slot + 1;
  return entry;
}

void DeviceRegistry::write_own(DeviceHotEntry& entry,
                               std::span<const float> params) {
  // assign reuses the capacity the buffer kept from its last device; a
  // span of the buffer itself already holds the values.
  if (params.data() != entry.own.data()) {
    entry.own.assign(params.begin(), params.end());
  }
  if (entry.shared == nullptr) return;
  entry.shared.reset();
  materializations_.fetch_add(1, std::memory_order_relaxed);
  const auto now = resident_now_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (now > 0) {
    // Lock-free high-water mark; races only ever lower the observed peak
    // by transient amounts and the serial per-step read is exact.
    auto peak = resident_peak_.load(std::memory_order_relaxed);
    const auto now_u = static_cast<std::size_t>(now);
    while (now_u > peak && !resident_peak_.compare_exchange_weak(
                               peak, now_u, std::memory_order_relaxed)) {
    }
  }
}

void DeviceRegistry::share(DeviceHotEntry& entry, Snapshot snapshot) noexcept {
  if (entry.shared == nullptr) {
    resident_now_.fetch_sub(1, std::memory_order_relaxed);
  }
  entry.shared = std::move(snapshot);
}

Device DeviceRegistry::at(std::size_t id) {
  if (id >= size()) {
    throw std::out_of_range("DeviceRegistry::at: no device with id " +
                            std::to_string(id));
  }
  if (block_ == nullptr) {
    throw std::logic_error(
        "DeviceRegistry::at: no block to follow before the first broadcast");
  }
  return Device(this, id);
}

DeviceRuntime* DeviceRegistry::acquire_runtime() {
  std::lock_guard<std::mutex> lock(runtime_mutex_);
  if (!runtime_free_.empty()) {
    DeviceRuntime* runtime = runtime_free_.back();
    runtime_free_.pop_back();
    return runtime;
  }
  if (proto_model_ == nullptr || proto_optimizer_ == nullptr) {
    throw std::logic_error(
        "DeviceRegistry::acquire_runtime: prototypes not set");
  }
  auto runtime = std::unique_ptr<DeviceRuntime>(new DeviceRuntime());
  runtime->model_ = proto_model_->clone();
  runtime->optimizer_ = proto_optimizer_->clone_config();
  runtime_pool_.push_back(std::move(runtime));
  return runtime_pool_.back().get();
}

void DeviceRegistry::release_runtime(DeviceRuntime* runtime) {
  if (runtime == nullptr) return;
  std::lock_guard<std::mutex> lock(runtime_mutex_);
  runtime_free_.push_back(runtime);
}

}  // namespace middlefl::core
