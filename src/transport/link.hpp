// The links of the device-edge-cloud hierarchy.
//
// Every model transfer in the simulator flows through Link::send(): the
// link applies its policy (loss probability, lossy compression, optional
// deterministic latency-in-steps) and accounts the traffic. A fan-out of
// one model to many receivers over a perfect link (the cloud's lossless
// device broadcast) is accounted in O(1) by Link::send_identical(), with
// exactly the counters `count` send() calls would leave. One Link class
// serves every channel of the paper's architecture; its LinkKind names the
// channel:
//
//   wireless_down/up  device <-> edge radio (cheap, lossy, compressible)
//   wan_up/down       edge <-> cloud backhaul (the expensive link HFL avoids)
//   broadcast         cloud -> device push at sync (wireless last hop)
//   carry             the model a moving device carries in its own memory
//                     (free: zero wire bytes; its policy is locked to the
//                     default — no loss, no compression, no latency)
//
// Concurrency contract: send() is safe to call from parallel simulation
// stages — counters are relaxed atomics, whose totals are scheduling-
// independent because integer addition commutes — EXCEPT that sends with a
// latency policy enqueue into a shard of the delay queue, and a given
// shard must only ever be touched by one parallel task at a time (the
// simulator shards the uplink queue by destination edge, matching its
// one-task-per-edge aggregation grain). drain() is not thread-safe across
// the same shard for the same reason.
//
// Determinism contract: loss draws consume the caller-provided RNG stream
// (keyed by entity and step), never internal state, so outcomes are
// independent of thread scheduling; queued payloads are delivered in FIFO
// send order per shard.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "parallel/rng.hpp"
#include "transport/compression.hpp"

namespace middlefl::transport {

enum class LinkKind {
  kWirelessDown,  // edge -> device model download
  kWirelessUp,    // device -> edge model upload
  kWanUp,         // edge -> cloud model upload at sync
  kWanDown,       // cloud -> edge model push at sync
  kBroadcast,     // cloud -> device broadcast at sync (wireless last hop)
  kCarry,         // intra-device: the carried local model under mobility
};

inline constexpr LinkKind kAllLinkKinds[] = {
    LinkKind::kWirelessDown, LinkKind::kWirelessUp, LinkKind::kWanUp,
    LinkKind::kWanDown,      LinkKind::kBroadcast,  LinkKind::kCarry,
};

std::string to_string(LinkKind kind);

/// Per-link behaviour knobs. Defaults are a perfect link: lossless,
/// uncompressed, zero latency — under which send() degenerates to a counted
/// pass-through and runs are bitwise identical to a transport-free loop.
struct LinkPolicy {
  /// Probability that a send is lost in transit, in [0, 1].
  double loss_prob = 0.0;
  /// Lossy compression applied to the payload (delta-coded against the
  /// reference passed at send time when one is provided).
  CompressionConfig compression;
  /// Deterministic delivery delay in simulation steps: a payload sent at
  /// step t becomes available to drain() at step t + latency_steps. Only
  /// uplink-direction links (kWirelessUp, kWanUp) support latency — a
  /// delayed download has no receiver to wait in this synchronous
  /// simulator.
  std::size_t latency_steps = 0;
};

/// Monotonic traffic counters, snapshot via Link::stats().
struct LinkStats {
  std::size_t transfers = 0;  // attempted sends (including lost ones)
  std::size_t dropped = 0;    // sends lost to loss_prob
  std::size_t bytes = 0;      // wire bytes of delivered/queued payloads

  std::size_t delivered() const noexcept { return transfers - dropped; }

  LinkStats& operator+=(const LinkStats& other) noexcept {
    transfers += other.transfers;
    dropped += other.dropped;
    bytes += other.bytes;
    return *this;
  }
  /// Delta between two snapshots of the same link (stage accounting).
  LinkStats operator-(const LinkStats& earlier) const noexcept {
    return LinkStats{transfers - earlier.transfers, dropped - earlier.dropped,
                     bytes - earlier.bytes};
  }
};

/// Outcome of one send().
struct Delivery {
  /// Payload usable by the receiver right now. False when the send was
  /// lost (dropped) or is still in flight (queued).
  bool delivered = false;
  /// Sitting in the delay queue; will surface through drain() later.
  bool queued = false;
  /// The received model: the sender's span when the link is uncompressed
  /// (zero-copy), or a view of the reconstruction pushed into
  /// SendContext::arena.
  std::span<const float> payload{};
  /// Wire bytes this send put on the link (0 when dropped).
  std::size_t bytes = 0;
};

/// A payload surfacing from the delay queue.
struct Arrival {
  std::vector<float> payload;
  /// Aggregation weight recorded at send time (SendContext::weight).
  double weight = 0.0;
  std::size_t sent_step = 0;
};

/// Per-send inputs. Everything is optional under the default policy.
struct SendContext {
  /// Loss draw source; required when the link's loss_prob > 0. The link
  /// consumes exactly one uniform() per send with loss enabled.
  parallel::Xoshiro256* rng = nullptr;
  /// Delta-compression reference (both endpoints must know it). Empty =
  /// compress the raw payload.
  std::span<const float> reference{};
  /// Receives reconstruction buffers when compression is on, keeping the
  /// returned payload span alive; required when the link compresses.
  std::vector<std::vector<float>>* arena = nullptr;
  /// Current simulation step (latency bookkeeping).
  std::size_t step = 0;
  /// Delay-queue shard; see the concurrency contract above.
  std::size_t shard = 0;
  /// Metadata carried with a queued payload (e.g. FedAvg weight).
  double weight = 0.0;
};

class Link {
 public:
  /// `shards` sizes the delay queue (0 counts as 1). Throws
  /// std::invalid_argument for a loss_prob outside [0, 1] or a top-k
  /// fraction outside (0, 1] (NaN included), latency on a
  /// download-direction link, or any non-default policy on the carry link.
  Link(LinkKind kind, const LinkPolicy& policy, std::size_t shards = 1);

  LinkKind kind() const noexcept { return kind_; }
  const LinkPolicy& policy() const noexcept { return policy_; }

  /// Counter snapshot; totals are exact at serial points (stage
  /// boundaries) regardless of how many threads sent concurrently, so a
  /// before/after pair around a whole parallel section is that section's
  /// exact traffic.
  LinkStats stats() const noexcept {
    return LinkStats{transfers_.load(std::memory_order_relaxed),
                     dropped_.load(std::memory_order_relaxed),
                     bytes_.load(std::memory_order_relaxed)};
  }

  /// Pushes `payload` through the link: draws the loss outcome, applies
  /// compression, accounts bytes, and either hands the result back
  /// (delivered), swallows it (dropped) or queues it for a later step.
  Delivery send(std::span<const float> payload, const SendContext& ctx);

  /// Accounts `count` sends of the same `payload` in O(1). On a perfect
  /// link every one of them would be delivered as the sender's own span,
  /// so the receivers can share `payload` itself. Throws std::logic_error
  /// when the policy has loss, compression or latency: those need
  /// per-send draws or reconstructions, i.e. send().
  void send_identical(std::span<const float> payload, std::size_t count);

  /// Removes and returns the queued payloads of `shard` whose delivery
  /// step has been reached, in FIFO send order.
  std::vector<Arrival> drain(std::size_t step, std::size_t shard = 0);

  /// Payloads still sitting in the delay queue (all shards).
  std::size_t in_flight() const noexcept;

 private:
  /// Wire cost of a delivered payload carried as `carried_bytes` (4 per
  /// float when uncompressed): zero on the carry link — the model never
  /// leaves the device.
  std::size_t wire_bytes(std::size_t carried_bytes) const noexcept {
    return kind_ == LinkKind::kCarry ? 0 : carried_bytes;
  }

  struct Queued {
    std::vector<float> payload;
    double weight = 0.0;
    std::size_t sent_step = 0;
    std::size_t deliver_step = 0;
  };

  LinkKind kind_;
  LinkPolicy policy_;
  std::vector<std::vector<Queued>> queues_;  // one per shard
  std::atomic<std::size_t> transfers_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace middlefl::transport
