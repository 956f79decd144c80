// The hierarchical transport substrate: one Link per channel of the
// device-edge-cloud topology, built from a per-link policy config.
//
// The Simulation routes every model transfer through these links; metrics
// and benches read traffic per channel here instead of maintaining ad-hoc
// counters. bytes_by_link() is the single source of truth for wire-level
// byte accounting (compression-aware, unlike the transfer-count estimate
// in core::CommStats::total_bytes()).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "transport/link.hpp"

namespace middlefl::obs {
class MetricsRegistry;
}

namespace middlefl::transport {

/// Per-link policies for the whole hierarchy. Defaults describe perfect
/// links everywhere: lossless, uncompressed, zero latency.
struct TransportConfig {
  /// Edge -> device model download at the start of a round.
  LinkPolicy wireless_down;
  /// Device -> edge model upload after local training. Supports
  /// latency_steps: delayed uploads are aggregated by the edge on arrival.
  LinkPolicy wireless_up;
  /// Edge -> cloud upload at synchronization. Supports latency_steps:
  /// stale edge models join a later cloud aggregation.
  LinkPolicy wan_up;
  /// Cloud -> edge push at synchronization.
  LinkPolicy wan_down;
  /// Cloud -> device broadcast at synchronization.
  LinkPolicy broadcast;
  // The intra-device carry link has no policy here: it is always built
  // from the default (free) LinkPolicy.
};

class Transport {
 public:
  /// `uplink_shards` sizes the wireless-uplink delay queue, one shard per
  /// edge, so per-edge parallel stages can enqueue without locks.
  Transport(const TransportConfig& config, std::size_t uplink_shards);

  Link& link(LinkKind kind) { return links_[index(kind)]; }
  const Link& link(LinkKind kind) const { return links_[index(kind)]; }

  Link& wireless_down() { return link(LinkKind::kWirelessDown); }
  Link& wireless_up() { return link(LinkKind::kWirelessUp); }
  Link& wan_up() { return link(LinkKind::kWanUp); }
  Link& wan_down() { return link(LinkKind::kWanDown); }
  Link& broadcast() { return link(LinkKind::kBroadcast); }
  Link& carry() { return link(LinkKind::kCarry); }

  LinkStats stats(LinkKind kind) const { return link(kind).stats(); }

  struct LinkReport {
    LinkKind kind = LinkKind::kCarry;
    LinkStats stats;
    std::size_t in_flight = 0;
  };

  /// One coherent wire-accounting report across every link, in
  /// kAllLinkKinds order.
  std::vector<LinkReport> bytes_by_link() const;

  /// Total delivered wire bytes across all links (carry is free).
  std::size_t total_bytes() const;

  /// Payloads still in delay queues anywhere in the hierarchy.
  std::size_t total_in_flight() const;

  /// Publishes the current per-link totals as gauges named
  /// "transport.<link>.{transfers,dropped,bytes,in_flight}". Absolute
  /// values (idempotent), so call at any serial point — typically once
  /// before a metrics export.
  void export_metrics(obs::MetricsRegistry& metrics) const;

 private:
  static std::size_t index(LinkKind kind) {
    return static_cast<std::size_t>(kind);
  }

  std::array<Link, std::size(kAllLinkKinds)> links_;  // kAllLinkKinds order
};

}  // namespace middlefl::transport
