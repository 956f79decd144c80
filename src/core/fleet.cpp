#include "core/fleet.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/dropout.hpp"

namespace middlefl::core {
namespace {

constexpr std::size_t kDefaultShards = 64;
constexpr std::size_t kInitialTableCapacity = 16;
/// Dense fast-path cap: sequential Simulation ids always qualify; a churn
/// test inserting huge sparse ids must not force an O(max_id) table.
constexpr std::size_t kDenseCap = std::size_t{1} << 26;

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

void DeviceRegistry::configure(const FleetConfig& config) {
  if (size_ != 0) {
    throw std::logic_error(
        "DeviceRegistry::configure: registry already holds devices");
  }
  cfg_ = config;
  const std::size_t requested =
      cfg_.shards == 0 ? kDefaultShards : cfg_.shards;
  const std::size_t shards = round_up_pow2(requested);
  shards_.clear();
  // deque grows in place: Shard holds a mutex and cannot be moved.
  for (std::size_t s = 0; s < shards; ++s) shards_.emplace_back();
  shard_mask_ = shards - 1;
  dense_.clear();
}

void DeviceRegistry::set_prototypes(const nn::Sequential& model,
                                    const optim::Optimizer& optimizer) {
  proto_model_ = model.clone();
  proto_optimizer_ = optimizer.clone_config();
  param_count_ = proto_model_->param_count();
  has_dropout_ = proto_model_->has_dropout();
  {
    std::lock_guard<std::mutex> lock(runtime_mutex_);
    runtime_pool_.clear();
    runtime_free_.clear();
  }
}

const parallel::Xoshiro256& DeviceRegistry::initial_dropout_rng() const {
  if (proto_model_ == nullptr) {
    throw std::logic_error(
        "DeviceRegistry::initial_dropout_rng: prototypes not set");
  }
  return proto_model_->dropout_rng();
}

void DeviceRegistry::broadcast(Snapshot block) {
  if (block == nullptr) {
    throw std::invalid_argument("DeviceRegistry::broadcast: null block");
  }
  if (has_prototypes() && block->size() != param_count_) {
    throw std::invalid_argument("DeviceRegistry::broadcast: size mismatch");
  }
  std::size_t rejoined = 0;
  for (Shard& shard : shards_) {
    // Ascending ids: the freelists receive the releases in the order an
    // adopt loop over the whole fleet would produce.
    std::sort(shard.detached.begin(), shard.detached.end());
    for (const std::size_t id : shard.detached) {
      // Erased ids resolve to nothing; an id erased and re-inserted can
      // be listed twice and is rejoined once.
      Device* device = find(id);
      if (device == nullptr || device->following()) continue;
      device->rejoin();
      ++rejoined;
    }
    shard.detached.clear();
  }
  block_ = std::move(block);
  detached_devices_ = rejoined;
}

void DeviceRegistry::note_detached(std::size_t id) {
  Shard& shard = shards_[shard_of(id)];
  std::lock_guard<std::mutex> lock(shard.freelist_mutex);
  shard.detached.push_back(id);
}

DeviceRegistry::Entry* DeviceRegistry::probe(Shard& shard,
                                             std::size_t id) noexcept {
  if (shard.table.empty()) return nullptr;
  const std::size_t mask = shard.table.size() - 1;
  std::size_t idx = static_cast<std::size_t>(hash_id(id)) & mask;
  for (;;) {
    Entry& entry = shard.table[idx];
    if (entry.slot == Entry::kEmpty) return nullptr;
    if (entry.slot != Entry::kTombstone && entry.id == id) return &entry;
    idx = (idx + 1) & mask;
  }
}

void DeviceRegistry::rehash(Shard& shard, std::size_t capacity) {
  std::vector<Entry> old = std::move(shard.table);
  shard.table.assign(capacity, Entry{});
  shard.tombstones = 0;
  const std::size_t mask = capacity - 1;
  for (const Entry& entry : old) {
    if (entry.slot == Entry::kEmpty || entry.slot == Entry::kTombstone) {
      continue;
    }
    std::size_t idx = static_cast<std::size_t>(hash_id(entry.id)) & mask;
    while (shard.table[idx].slot != Entry::kEmpty) idx = (idx + 1) & mask;
    shard.table[idx] = entry;
  }
}

Device& DeviceRegistry::insert(Device device) {
  const std::size_t id = device.id();
  Shard& shard = shards_[shard_of(id)];
  if (probe(shard, id) != nullptr) {
    throw std::invalid_argument("DeviceRegistry::insert: duplicate device id " +
                                std::to_string(id));
  }
  // Keep occupancy (live + tombstones) under ~70% so probes stay short.
  if (shard.table.empty()) {
    rehash(shard, kInitialTableCapacity);
  } else if ((shard.occupied + shard.tombstones + 1) * 10 >=
             shard.table.size() * 7) {
    rehash(shard, shard.table.size() * 2);
  }

  std::size_t slot;
  if (!shard.free_slots.empty()) {
    slot = shard.free_slots.back();
    shard.free_slots.pop_back();
    shard.slots[slot] = std::move(device);
  } else {
    slot = shard.slots.size();
    shard.slots.push_back(std::move(device));
  }

  const std::size_t mask = shard.table.size() - 1;
  std::size_t idx = static_cast<std::size_t>(hash_id(id)) & mask;
  while (shard.table[idx].slot != Entry::kEmpty &&
         shard.table[idx].slot != Entry::kTombstone) {
    idx = (idx + 1) & mask;
  }
  if (shard.table[idx].slot == Entry::kTombstone) --shard.tombstones;
  shard.table[idx] = Entry{id, slot};
  ++shard.occupied;
  ++size_;

  Device& stored = shard.slots[slot];
  if (id < kDenseCap) {
    if (id >= dense_.size()) dense_.resize(id + 1, nullptr);
    dense_[id] = &stored;
  }
  // A device born on another block is detached from the start.
  if (!stored.following()) shard.detached.push_back(id);
  return stored;
}

bool DeviceRegistry::erase(std::size_t id) {
  Shard& shard = shards_[shard_of(id)];
  Entry* entry = probe(shard, id);
  if (entry == nullptr) return false;
  const std::size_t slot = entry->slot;
  entry->slot = Entry::kTombstone;
  ++shard.tombstones;
  --shard.occupied;
  --size_;
  if (id < dense_.size()) dense_[id] = nullptr;

  // Return the device's pooled state, then shrink it to a zombie: the
  // deque slot cannot be destroyed individually, but a moved-from Device
  // holds no heap state worth keeping. An id left on a detached list is
  // skipped by the next broadcast (find() no longer resolves it).
  shard.slots[slot].rejoin();
  Device zombie = std::move(shard.slots[slot]);
  static_cast<void>(zombie);
  shard.free_slots.push_back(slot);
  return true;
}

Device* DeviceRegistry::find(std::size_t id) noexcept {
  if (id < dense_.size() && dense_[id] != nullptr) return dense_[id];
  Shard& shard = shards_[shard_of(id)];
  Entry* entry = probe(shard, id);
  return entry == nullptr ? nullptr : &shard.slots[entry->slot];
}

const Device* DeviceRegistry::find(std::size_t id) const noexcept {
  return const_cast<DeviceRegistry*>(this)->find(id);
}

Device& DeviceRegistry::at(std::size_t id) {
  Device* device = find(id);
  if (device == nullptr) {
    throw std::out_of_range("DeviceRegistry::at: no device with id " +
                            std::to_string(id));
  }
  return *device;
}

const Device& DeviceRegistry::at(std::size_t id) const {
  return const_cast<DeviceRegistry*>(this)->at(id);
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

tensor::Tensor DeviceRegistry::acquire_resident(std::size_t id) {
  Shard& shard = shards_[shard_of(id)];
  tensor::Tensor buffer;
  {
    std::lock_guard<std::mutex> lock(shard.freelist_mutex);
    if (!shard.resident_free.empty()) {
      buffer = std::move(shard.resident_free.back());
      shard.resident_free.pop_back();
    }
  }
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
  return buffer;
}

void DeviceRegistry::release_resident(std::size_t id, tensor::Tensor buffer) {
  resident_now_.fetch_sub(1, std::memory_order_relaxed);
  Shard& shard = shards_[shard_of(id)];
  std::lock_guard<std::mutex> lock(shard.freelist_mutex);
  shard.resident_free.push_back(std::move(buffer));
}

std::unique_ptr<transport::EncodedDelta> DeviceRegistry::acquire_delta(
    std::size_t id) {
  Shard& shard = shards_[shard_of(id)];
  {
    std::lock_guard<std::mutex> lock(shard.freelist_mutex);
    if (!shard.delta_free.empty()) {
      auto delta = std::move(shard.delta_free.back());
      shard.delta_free.pop_back();
      delta->clear();
      return delta;
    }
  }
  return std::make_unique<transport::EncodedDelta>();
}

void DeviceRegistry::release_delta(
    std::size_t id, std::unique_ptr<transport::EncodedDelta> delta) {
  if (delta == nullptr) return;
  Shard& shard = shards_[shard_of(id)];
  std::lock_guard<std::mutex> lock(shard.freelist_mutex);
  shard.delta_free.push_back(std::move(delta));
}

}  // namespace middlefl::core
