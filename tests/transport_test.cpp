// Unit tests for the typed transport layer: link policies (loss,
// compression, latency), byte accounting, and the Transport registry.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "parallel/rng.hpp"
#include "transport/link.hpp"
#include "transport/transport.hpp"

namespace {

using middlefl::parallel::Xoshiro256;
using middlefl::transport::Arrival;
using middlefl::transport::CompressionConfig;
using middlefl::transport::CompressionKind;
using middlefl::transport::Delivery;
using middlefl::transport::kAllLinkKinds;
using middlefl::transport::Link;
using middlefl::transport::LinkKind;
using middlefl::transport::LinkPolicy;
using middlefl::transport::LinkStats;
using middlefl::transport::SendContext;
using middlefl::transport::Transport;
using middlefl::transport::TransportConfig;

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), 1.0f);
  return v;
}

TEST(Link, DefaultPolicyIsCountedPassThrough) {
  Link link(LinkKind::kWirelessDown, LinkPolicy{});
  const auto payload = ramp(8);
  const Delivery d = link.send(payload, SendContext{});
  EXPECT_TRUE(d.delivered);
  EXPECT_FALSE(d.queued);
  // Zero-copy: the receiver sees the sender's buffer.
  EXPECT_EQ(d.payload.data(), payload.data());
  EXPECT_EQ(d.bytes, 8 * sizeof(float));

  const LinkStats stats = link.stats();
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.bytes, 8 * sizeof(float));
  EXPECT_EQ(stats.delivered(), 1u);
}

TEST(Link, LossDropsDeterministically) {
  LinkPolicy policy;
  policy.loss_prob = 0.5;
  Link link(LinkKind::kWirelessUp, policy);
  const auto payload = ramp(4);

  std::size_t delivered = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    Xoshiro256 rng(i);
    SendContext ctx;
    ctx.rng = &rng;
    if (link.send(payload, ctx).delivered) ++delivered;
  }
  const LinkStats stats = link.stats();
  EXPECT_EQ(stats.transfers, 200u);
  EXPECT_EQ(stats.dropped, 200u - delivered);
  // ~half lost; with 200 draws a [60, 140] window is astronomically safe.
  EXPECT_GT(delivered, 60u);
  EXPECT_LT(delivered, 140u);
  // Dropped sends put no bytes on the wire.
  EXPECT_EQ(stats.bytes, delivered * 4 * sizeof(float));

  // Same seeds, fresh link: identical outcomes.
  Link replay(LinkKind::kWirelessUp, policy);
  std::size_t replay_delivered = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    Xoshiro256 rng(i);
    SendContext ctx;
    ctx.rng = &rng;
    if (replay.send(payload, ctx).delivered) ++replay_delivered;
  }
  EXPECT_EQ(delivered, replay_delivered);
}

TEST(Link, LossRequiresRng) {
  LinkPolicy policy;
  policy.loss_prob = 0.5;
  Link link(LinkKind::kWirelessUp, policy);
  const auto payload = ramp(4);
  EXPECT_THROW(link.send(payload, SendContext{}), std::invalid_argument);
}

TEST(Link, CompressionChargesWireBytesAndReconstructs) {
  LinkPolicy policy;
  policy.compression = CompressionConfig{CompressionKind::kQuant8, 0.1};
  Link link(LinkKind::kWirelessUp, policy);
  const auto payload = ramp(16);
  const auto reference = std::vector<float>(16, 1.0f);

  std::vector<std::vector<float>> arena;
  SendContext ctx;
  ctx.reference = reference;
  ctx.arena = &arena;
  const Delivery d = link.send(payload, ctx);
  ASSERT_TRUE(d.delivered);
  // q8 wire model: one byte per coordinate plus the float32 scale.
  EXPECT_EQ(d.bytes, 16u + 4u);
  EXPECT_EQ(link.stats().bytes, 16u + 4u);
  // The receiver gets the lossy reconstruction owned by the arena, not the
  // sender's buffer.
  ASSERT_EQ(arena.size(), 1u);
  EXPECT_EQ(d.payload.data(), arena.back().data());
  ASSERT_EQ(d.payload.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_NEAR(d.payload[i], payload[i], 0.1f) << i;
  }
}

TEST(Link, CompressionRequiresArena) {
  LinkPolicy policy;
  policy.compression = CompressionConfig{CompressionKind::kQuant8, 0.1};
  Link link(LinkKind::kWirelessUp, policy);
  const auto payload = ramp(4);
  EXPECT_THROW(link.send(payload, SendContext{}), std::invalid_argument);
}

TEST(Link, LatencyQueuesAndDrainsFifo) {
  LinkPolicy policy;
  policy.latency_steps = 2;
  Link link(LinkKind::kWirelessUp, policy, /*shards=*/2);

  const auto first = ramp(4);
  const auto second = ramp(4);
  SendContext ctx;
  ctx.step = 1;
  ctx.shard = 1;
  ctx.weight = 10.0;
  Delivery d = link.send(first, ctx);
  EXPECT_FALSE(d.delivered);
  EXPECT_TRUE(d.queued);
  EXPECT_EQ(d.bytes, 4 * sizeof(float));  // charged at send time
  ctx.weight = 20.0;
  link.send(second, ctx);
  EXPECT_EQ(link.in_flight(), 2u);

  // Not due yet, and the other shard holds nothing.
  EXPECT_TRUE(link.drain(2, 1).empty());
  EXPECT_TRUE(link.drain(100, 0).empty());
  EXPECT_EQ(link.in_flight(), 2u);

  const std::vector<Arrival> due = link.drain(3, 1);
  ASSERT_EQ(due.size(), 2u);  // FIFO send order
  EXPECT_EQ(due[0].weight, 10.0);
  EXPECT_EQ(due[1].weight, 20.0);
  EXPECT_EQ(due[0].sent_step, 1u);
  EXPECT_EQ(due[0].payload, first);
  EXPECT_EQ(link.in_flight(), 0u);
}

TEST(Link, LatencyRejectedOnDownlinks) {
  LinkPolicy policy;
  policy.latency_steps = 1;
  EXPECT_THROW(Link(LinkKind::kWirelessDown, policy),
               std::invalid_argument);
  EXPECT_THROW(Link(LinkKind::kWanDown, policy), std::invalid_argument);
  EXPECT_NO_THROW(Link(LinkKind::kWirelessUp, policy));
  EXPECT_NO_THROW(Link(LinkKind::kWanUp, policy));
}

TEST(Link, RejectsOutOfRangeLoss) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double loss : {1.5, -0.1, nan}) {
    LinkPolicy policy;
    policy.loss_prob = loss;
    EXPECT_THROW(Link(LinkKind::kWirelessUp, policy), std::invalid_argument)
        << "loss_prob " << loss;
  }
  // A top-k fraction outside (0, 1] fails at construction, not at the
  // first send.
  for (const double fraction : {0.0, 1.5, nan}) {
    LinkPolicy policy;
    policy.compression = {CompressionKind::kTopK, fraction};
    EXPECT_THROW(Link(LinkKind::kWirelessUp, policy), std::invalid_argument)
        << "top_k_fraction " << fraction;
  }
  LinkPolicy full;
  full.compression = {CompressionKind::kTopK, 1.0};
  EXPECT_NO_THROW(Link(LinkKind::kWirelessUp, full));
}

TEST(Link, SendIdenticalAccountsLikeRepeatedSends) {
  const auto payload = ramp(8);
  Link one_by_one(LinkKind::kBroadcast, LinkPolicy{});
  for (int i = 0; i < 5; ++i) one_by_one.send(payload, SendContext{});
  Link batched(LinkKind::kBroadcast, LinkPolicy{});
  batched.send_identical(payload, 5);
  EXPECT_EQ(batched.stats().transfers, one_by_one.stats().transfers);
  EXPECT_EQ(batched.stats().dropped, 0u);
  EXPECT_EQ(batched.stats().bytes, one_by_one.stats().bytes);

  Link carry(LinkKind::kCarry, LinkPolicy{});
  carry.send_identical(payload, 3);
  EXPECT_EQ(carry.stats().transfers, 3u);
  EXPECT_EQ(carry.stats().bytes, 0u);

  // Anything that needs a per-send draw or reconstruction is refused.
  LinkPolicy lossy;
  lossy.loss_prob = 0.1;
  LinkPolicy compressed;
  compressed.compression = CompressionConfig{CompressionKind::kQuant8, 0.1};
  LinkPolicy delayed;
  delayed.latency_steps = 1;
  EXPECT_THROW(Link(LinkKind::kBroadcast, lossy)
                   .send_identical(payload, 2),
               std::logic_error);
  EXPECT_THROW(Link(LinkKind::kBroadcast, compressed)
                   .send_identical(payload, 2),
               std::logic_error);
  EXPECT_THROW(Link(LinkKind::kWirelessUp, delayed)
                   .send_identical(payload, 2),
               std::logic_error);
}

TEST(CarryLinkTest, FreeCountedAndPolicyLocked) {
  Link carry(LinkKind::kCarry, LinkPolicy{});
  const auto payload = ramp(8);
  const Delivery d = carry.send(payload, SendContext{});
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.payload.data(), payload.data());
  EXPECT_EQ(d.bytes, 0u);  // the model never leaves the device
  EXPECT_EQ(carry.stats().transfers, 1u);
  EXPECT_EQ(carry.stats().bytes, 0u);

  LinkPolicy lossy;
  lossy.loss_prob = 0.1;
  EXPECT_THROW(Link(LinkKind::kCarry, lossy), std::invalid_argument);
  LinkPolicy compressed;
  compressed.compression = CompressionConfig{CompressionKind::kQuant8, 0.1};
  EXPECT_THROW(Link(LinkKind::kCarry, compressed), std::invalid_argument);
  LinkPolicy delayed;
  delayed.latency_steps = 1;
  EXPECT_THROW(Link(LinkKind::kCarry, delayed), std::invalid_argument);
  // The same policies are legal on a wireless link: the lock is the
  // carry kind's alone.
  EXPECT_NO_THROW(Link(LinkKind::kWirelessUp, lossy));
  EXPECT_NO_THROW(Link(LinkKind::kWirelessUp, compressed));
}

TEST(TransportTest, BuildsAllLinksAndReports) {
  TransportConfig config;
  config.wireless_up.loss_prob = 0.25;
  Transport transport(config, /*uplink_shards=*/3);

  for (const LinkKind kind : kAllLinkKinds) {
    EXPECT_EQ(transport.link(kind).kind(), kind) << to_string(kind);
  }
  EXPECT_EQ(transport.wireless_up().policy().loss_prob, 0.25);

  const auto payload = ramp(4);
  transport.wireless_down().send(payload, SendContext{});
  transport.wan_up().send(payload, SendContext{});
  transport.wan_up().send(payload, SendContext{});

  const auto report = transport.bytes_by_link();
  ASSERT_EQ(report.size(), std::size(kAllLinkKinds));
  std::size_t total = 0;
  for (const auto& entry : report) {
    total += entry.stats.bytes;
    if (entry.kind == LinkKind::kWanUp) {
      EXPECT_EQ(entry.stats.transfers, 2u);
      EXPECT_EQ(entry.stats.bytes, 2 * 4 * sizeof(float));
    }
  }
  EXPECT_EQ(total, transport.total_bytes());
  EXPECT_EQ(transport.total_bytes(), 3 * 4 * sizeof(float));
  EXPECT_EQ(transport.total_in_flight(), 0u);
}

TEST(TransportTest, LinkStatsArithmetic) {
  const LinkStats a{10, 2, 400};
  const LinkStats b{4, 1, 100};
  const LinkStats delta = a - b;
  EXPECT_EQ(delta.transfers, 6u);
  EXPECT_EQ(delta.dropped, 1u);
  EXPECT_EQ(delta.bytes, 300u);
  LinkStats sum = b;
  sum += delta;
  EXPECT_EQ(sum.transfers, a.transfers);
  EXPECT_EQ(sum.dropped, a.dropped);
  EXPECT_EQ(sum.bytes, a.bytes);
}

TEST(TransportTest, ParseCompressionSpecs) {
  using middlefl::transport::parse_compression;
  EXPECT_EQ(parse_compression("none").kind, CompressionKind::kNone);
  EXPECT_EQ(parse_compression("").kind, CompressionKind::kNone);
  EXPECT_EQ(parse_compression("q8").kind, CompressionKind::kQuant8);
  EXPECT_EQ(parse_compression("quant8").kind, CompressionKind::kQuant8);
  const auto topk = parse_compression("topk:0.25");
  EXPECT_EQ(topk.kind, CompressionKind::kTopK);
  EXPECT_EQ(topk.top_k_fraction, 0.25);
  EXPECT_THROW(parse_compression("topk:0"), std::invalid_argument);
  EXPECT_THROW(parse_compression("topk:2"), std::invalid_argument);
  EXPECT_THROW(parse_compression("gzip"), std::invalid_argument);
  // The fraction is the whole rest of the spec, one number in (0, 1]; the
  // error names the spec.
  for (const char* bad : {"topk:0.5x", "topk:", "topk:abc", "topk:nan",
                          "topk:inf", "topk:1e999", "topk: 0.5"}) {
    try {
      parse_compression(bad);
      ADD_FAILURE() << "expected '" << bad << "' to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }

  using middlefl::transport::to_string;
  EXPECT_EQ(to_string(parse_compression("q8")), "q8");
  EXPECT_EQ(to_string(parse_compression("none")), "none");
  EXPECT_EQ(to_string(parse_compression("topk:0.25")),
            "topk:" + std::to_string(0.25));
}

}  // namespace
