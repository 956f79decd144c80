// Version-keyed cache of Eq. 11 selection utilities.
//
// A device's selection score U(w_c, w_m - w_c) only changes when the device
// itself trains (w_m moves) or the cloud synchronizes (w_c moves). The
// simulator previously recomputed the score from scratch for EVERY
// connected candidate at EVERY edge on EVERY step — with ~100 devices and K
// selected per edge, roughly half those sweeps over the full parameter
// vector were redundant. The cache keys each entry on the pair
// (device parameter version, cloud parameter version); versions are bumped
// by Device/Cloud on every mutation, so staleness is impossible by
// construction and no explicit invalidation hooks are needed.
//
// Concurrency: per-edge task chains run selection for different edges at
// the same time, but a device belongs to exactly one edge per step, so all
// entry reads/writes stay disjoint. The only shared mutation is the
// hit/miss counters, which are relaxed atomics — totals at serial points
// are scheduling-independent because integer addition commutes. resize()
// and clear() are serial-only operations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace middlefl::core {

class SimilarityCache {
 public:
  /// Prepares entries for device ids [0, num_devices); existing entries
  /// are preserved when growing. Serial-only: store() never grows the
  /// table, since it runs inside the parallel chains.
  void resize(std::size_t num_devices) { entries_.resize(num_devices); }

  std::size_t size() const noexcept { return entries_.size(); }

  /// Returns the cached utility when the entry matches both versions.
  std::optional<double> lookup(std::size_t device_id,
                               std::uint64_t device_version,
                               std::uint64_t cloud_version) const noexcept {
    if (device_id >= entries_.size()) return std::nullopt;
    const Entry& entry = entries_[device_id];
    if (entry.valid && entry.device_version == device_version &&
        entry.cloud_version == cloud_version) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return entry.value;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  /// Records a score; a no-op for ids past the sized range.
  void store(std::size_t device_id, std::uint64_t device_version,
             std::uint64_t cloud_version, double value) noexcept {
    if (device_id >= entries_.size()) return;
    entries_[device_id] =
        Entry{device_version, cloud_version, value, /*valid=*/true};
  }

  /// Drops every entry (e.g. when the model is swapped wholesale).
  void clear() noexcept {
    for (Entry& entry : entries_) entry.valid = false;
  }

  // Hit/miss counters since construction (throughput introspection).
  std::size_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::size_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::uint64_t device_version = 0;
    std::uint64_t cloud_version = 0;
    double value = 0.0;
    bool valid = false;
  };
  std::vector<Entry> entries_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

}  // namespace middlefl::core
