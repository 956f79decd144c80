#include "transport/link.hpp"

#include <stdexcept>
#include <utility>

namespace middlefl::transport {

std::string to_string(LinkKind kind) {
  switch (kind) {
    case LinkKind::kWirelessDown:
      return "wireless_down";
    case LinkKind::kWirelessUp:
      return "wireless_up";
    case LinkKind::kWanUp:
      return "wan_up";
    case LinkKind::kWanDown:
      return "wan_down";
    case LinkKind::kBroadcast:
      return "broadcast";
    case LinkKind::kCarry:
      return "carry";
  }
  return "unknown";
}

Link::Link(LinkKind kind, const LinkPolicy& policy, std::size_t shards)
    : kind_(kind), policy_(policy), queues_(shards == 0 ? 1 : shards) {
  // Range checks are written so NaN fails them.
  if (!(policy_.loss_prob >= 0.0 && policy_.loss_prob <= 1.0)) {
    throw std::invalid_argument("Link(" + to_string(kind) +
                                "): loss_prob must be in [0, 1]");
  }
  const double fraction = policy_.compression.top_k_fraction;
  if (policy_.compression.kind == CompressionKind::kTopK &&
      !(fraction > 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("Link(" + to_string(kind) +
                                "): top_k_fraction must be in (0, 1]");
  }
  if (policy_.latency_steps > 0 && kind != LinkKind::kWirelessUp &&
      kind != LinkKind::kWanUp) {
    throw std::invalid_argument(
        "Link(" + to_string(kind) +
        "): latency is only supported on uplink-direction links "
        "(wireless_up, wan_up)");
  }
  // (Latency on the carry link is already refused above.)
  if (kind == LinkKind::kCarry &&
      (policy_.loss_prob != 0.0 ||
       policy_.compression.kind != CompressionKind::kNone)) {
    throw std::invalid_argument(
        "Link(carry): the carried model lives in the device's own memory — "
        "its policy must be lossless, uncompressed, zero-latency");
  }
}

Delivery Link::send(std::span<const float> payload, const SendContext& ctx) {
  transfers_.fetch_add(1, std::memory_order_relaxed);

  if (policy_.loss_prob > 0.0) {
    if (ctx.rng == nullptr) {
      throw std::invalid_argument("Link::send(" + to_string(kind_) +
                                  "): loss_prob > 0 requires an RNG stream");
    }
    if (ctx.rng->uniform() < policy_.loss_prob) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return Delivery{};  // lost in transit: no bytes, no payload
    }
  }

  // What the wire carries: the raw float32 payload, or its compressed form
  // (reconstructed immediately — the simulator never moves real packets).
  std::span<const float> received = payload;
  std::size_t carried = payload.size() * sizeof(float);
  if (policy_.compression.kind != CompressionKind::kNone) {
    CompressedUpdate update =
        ctx.reference.empty()
            ? compress_update(payload, policy_.compression)
            : compress_model(payload, ctx.reference, policy_.compression);
    carried = update.bytes;
    if (policy_.latency_steps == 0) {
      if (ctx.arena == nullptr) {
        throw std::invalid_argument(
            "Link::send(" + to_string(kind_) +
            "): compression requires an arena to own the reconstruction");
      }
      ctx.arena->push_back(std::move(update.reconstruction));
      received = ctx.arena->back();
    } else {
      // Queued sends own their payload; no arena needed.
      received = {};
      const std::size_t cost = wire_bytes(carried);
      bytes_.fetch_add(cost, std::memory_order_relaxed);
      queues_.at(ctx.shard).push_back(
          Queued{std::move(update.reconstruction), ctx.weight, ctx.step,
                 ctx.step + policy_.latency_steps});
      return Delivery{.delivered = false, .queued = true, .bytes = cost};
    }
  } else if (policy_.latency_steps > 0) {
    const std::size_t cost = wire_bytes(carried);
    bytes_.fetch_add(cost, std::memory_order_relaxed);
    queues_.at(ctx.shard).push_back(
        Queued{std::vector<float>(payload.begin(), payload.end()), ctx.weight,
               ctx.step, ctx.step + policy_.latency_steps});
    return Delivery{.delivered = false, .queued = true, .bytes = cost};
  }

  const std::size_t cost = wire_bytes(carried);
  bytes_.fetch_add(cost, std::memory_order_relaxed);
  return Delivery{
      .delivered = true, .queued = false, .payload = received, .bytes = cost};
}

void Link::send_identical(std::span<const float> payload, std::size_t count) {
  if (policy_.loss_prob > 0.0 ||
      policy_.compression.kind != CompressionKind::kNone ||
      policy_.latency_steps > 0) {
    throw std::logic_error(
        "Link::send_identical(" + to_string(kind_) +
        "): only a lossless, uncompressed, zero-latency link delivers "
        "identical sends");
  }
  const std::size_t cost = wire_bytes(payload.size() * sizeof(float));
  transfers_.fetch_add(count, std::memory_order_relaxed);
  bytes_.fetch_add(count * cost, std::memory_order_relaxed);
}

std::vector<Arrival> Link::drain(std::size_t step, std::size_t shard) {
  auto& queue = queues_.at(shard);
  std::vector<Arrival> due;
  if (queue.empty()) return due;
  std::vector<Queued> keep;
  keep.reserve(queue.size());
  for (auto& item : queue) {
    if (item.deliver_step <= step) {
      due.push_back(
          Arrival{std::move(item.payload), item.weight, item.sent_step});
    } else {
      keep.push_back(std::move(item));
    }
  }
  queue = std::move(keep);
  return due;
}

std::size_t Link::in_flight() const noexcept {
  std::size_t total = 0;
  for (const auto& queue : queues_) total += queue.size();
  return total;
}

}  // namespace middlefl::transport
