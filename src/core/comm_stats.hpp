// Communication accounting for the three-layer hierarchy.
//
// HFL exists to trade wide-area (cloud) traffic for cheap edge-local
// traffic; the counters below let benches report that trade-off per
// algorithm. One "model transfer" = one model crossing a link — attempts,
// including transfers later dropped by a loss policy. MIDDLE's on-device
// aggregation is free: the carried local model is already on the device
// (the transport layer's carry link counts it separately and charges zero
// bytes) — only FedMes pays an extra edge download for its overlap trick.
//
// This struct is a view, not a second ledger: Simulation::comm_stats()
// reads each count off the matching transport link's transfer counter
// (wireless_down, wireless_up, wan_up, wan_down, broadcast). Real
// wire-byte accounting — per link, loss- and compression-aware — lives in
// transport::Transport::bytes_by_link().
#pragma once

#include <cstddef>

namespace middlefl::core {

struct CommStats {
  /// Edge -> device model downloads (every selected device, plus FedMes'
  /// extra previous-edge download).
  std::size_t device_downloads = 0;
  /// Device -> edge model uploads (every selected device).
  std::size_t device_uploads = 0;
  /// Edge -> cloud uploads at synchronization points.
  std::size_t edge_uploads = 0;
  /// Cloud -> edge model pushes at synchronization points.
  std::size_t edge_downloads = 0;
  /// Cloud -> device broadcast pushes at synchronization points.
  std::size_t device_broadcasts = 0;

  std::size_t total_transfers() const noexcept {
    return device_downloads + device_uploads + edge_uploads +
           edge_downloads + device_broadcasts;
  }

  /// Wireless (device <-> edge) transfers.
  std::size_t wireless_transfers() const noexcept {
    return device_downloads + device_uploads + device_broadcasts;
  }

  /// Wide-area (edge <-> cloud) transfers — the expensive link HFL tries
  /// to minimize.
  std::size_t wan_transfers() const noexcept {
    return edge_uploads + edge_downloads;
  }

  /// Nominal bytes for a model of `param_count` float32 parameters,
  /// assuming every counted transfer carried the full uncompressed model.
  /// This is the algorithm-comparison figure of merit (all baselines pay
  /// the same per-transfer cost); for actual wire bytes under loss,
  /// compression or latency policies, read
  /// Simulation::transport().bytes_by_link() instead.
  std::size_t total_bytes(std::size_t param_count) const noexcept {
    return total_transfers() * param_count * sizeof(float);
  }

  CommStats& operator+=(const CommStats& other) noexcept {
    device_downloads += other.device_downloads;
    device_uploads += other.device_uploads;
    edge_uploads += other.edge_uploads;
    edge_downloads += other.edge_downloads;
    device_broadcasts += other.device_broadcasts;
    return *this;
  }
};

}  // namespace middlefl::core
