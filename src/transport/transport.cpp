#include "transport/transport.hpp"

#include <string>

#include "obs/metrics_registry.hpp"

namespace middlefl::transport {

// The WAN uplink shares the uplink shard count: the edge chains publish
// from inside their own task (shard n = edge n, lock-free).
Transport::Transport(const TransportConfig& config, std::size_t uplink_shards)
    : links_{{Link(LinkKind::kWirelessDown, config.wireless_down),
              Link(LinkKind::kWirelessUp, config.wireless_up, uplink_shards),
              Link(LinkKind::kWanUp, config.wan_up, uplink_shards),
              Link(LinkKind::kWanDown, config.wan_down),
              Link(LinkKind::kBroadcast, config.broadcast),
              Link(LinkKind::kCarry, LinkPolicy{})}} {}

std::vector<Transport::LinkReport> Transport::bytes_by_link() const {
  std::vector<LinkReport> report;
  report.reserve(std::size(kAllLinkKinds));
  for (LinkKind kind : kAllLinkKinds) {
    report.push_back(
        LinkReport{kind, link(kind).stats(), link(kind).in_flight()});
  }
  return report;
}

std::size_t Transport::total_bytes() const {
  std::size_t total = 0;
  for (LinkKind kind : kAllLinkKinds) total += link(kind).stats().bytes;
  return total;
}

std::size_t Transport::total_in_flight() const {
  std::size_t total = 0;
  for (LinkKind kind : kAllLinkKinds) total += link(kind).in_flight();
  return total;
}

void Transport::export_metrics(obs::MetricsRegistry& metrics) const {
  for (LinkKind kind : kAllLinkKinds) {
    const std::string prefix = std::string("transport.") + to_string(kind);
    const LinkStats stats = link(kind).stats();
    metrics.set(metrics.gauge(prefix + ".transfers"),
                static_cast<double>(stats.transfers));
    metrics.set(metrics.gauge(prefix + ".dropped"),
                static_cast<double>(stats.dropped));
    metrics.set(metrics.gauge(prefix + ".bytes"),
                static_cast<double>(stats.bytes));
    metrics.set(metrics.gauge(prefix + ".in_flight"),
                static_cast<double>(link(kind).in_flight()));
  }
}

}  // namespace middlefl::transport
