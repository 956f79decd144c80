#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "parallel/rng.hpp"
#include "sim_fixture.hpp"
#include "transport/compression.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::transport::compress_model;
using middlefl::transport::compress_update;
using middlefl::transport::CompressionConfig;
using middlefl::transport::CompressionKind;
using middlefl::testing::SimBundle;

std::vector<float> random_update(std::size_t n, std::uint64_t seed) {
  middlefl::parallel::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

TEST(Compression, NoneIsLossless) {
  const auto update = random_update(100, 1);
  const auto result = compress_update(update, {CompressionKind::kNone, 0.1});
  EXPECT_EQ(result.bytes, 400u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(result.reconstruction[i], update[i]);
  }
}

TEST(Compression, TopKKeepsExactlyKLargest) {
  const std::vector<float> update{0.1f, -5.0f, 0.2f, 3.0f, -0.05f,
                                  1.0f, 0.0f,  0.3f, -2.0f, 0.4f};
  const auto result =
      compress_update(update, {CompressionKind::kTopK, 0.3});  // k = 3
  // Largest magnitudes: -5, 3, -2.
  EXPECT_EQ(result.reconstruction[1], -5.0f);
  EXPECT_EQ(result.reconstruction[3], 3.0f);
  EXPECT_EQ(result.reconstruction[8], -2.0f);
  std::size_t nonzero = 0;
  for (float v : result.reconstruction) {
    if (v != 0.0f) ++nonzero;
  }
  EXPECT_EQ(nonzero, 3u);
  EXPECT_EQ(result.bytes, 3u * 8u);
}

TEST(Compression, TopKAtLeastOneCoordinate) {
  const auto update = random_update(1000, 2);
  const auto result =
      compress_update(update, {CompressionKind::kTopK, 1e-9});
  std::size_t nonzero = 0;
  for (float v : result.reconstruction) {
    if (v != 0.0f) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1u);
}

TEST(Compression, TopKFullFractionIsLossless) {
  const auto update = random_update(64, 3);
  const auto result = compress_update(update, {CompressionKind::kTopK, 1.0});
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_EQ(result.reconstruction[i], update[i]);
  }
}

TEST(Compression, TopKValidatesFraction) {
  const auto update = random_update(8, 4);
  EXPECT_THROW(compress_update(update, {CompressionKind::kTopK, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(compress_update(update, {CompressionKind::kTopK, 1.5}),
               std::invalid_argument);
  // NaN passes a `<= 0 || > 1` test; llround(NaN * n) would then keep
  // every coordinate at 8 bytes each.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(compress_update(update, {CompressionKind::kTopK, nan}),
               std::invalid_argument);
}

TEST(Compression, Quant8BoundedError) {
  const auto update = random_update(500, 5);
  const auto result = compress_update(update, {CompressionKind::kQuant8});
  float max_mag = 0.0f;
  for (float v : update) max_mag = std::max(max_mag, std::fabs(v));
  const float step = max_mag / 127.0f;
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_NEAR(result.reconstruction[i], update[i], 0.51f * step);
  }
  EXPECT_EQ(result.bytes, 500u + 4u);
}

TEST(Compression, Quant8ZeroUpdate) {
  const std::vector<float> zeros(16, 0.0f);
  const auto result = compress_update(zeros, {CompressionKind::kQuant8});
  for (float v : result.reconstruction) EXPECT_EQ(v, 0.0f);
}

TEST(Compression, ModelVariantRoundTripsReference) {
  const auto reference = random_update(50, 6);
  auto model = reference;
  model[7] += 2.0f;  // one large update coordinate
  const auto result =
      compress_model(model, reference, {CompressionKind::kTopK, 0.02});
  // k = 1 keeps only the single changed coordinate: reconstruction == model
  // there and == reference everywhere else.
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_FLOAT_EQ(result.reconstruction[i], i == 7 ? model[i] : reference[i]);
  }
  EXPECT_THROW(
      compress_model(model, random_update(49, 7), {CompressionKind::kNone}),
      std::invalid_argument);
}

TEST(Compression, SimulationTracksUploadBytes) {
  SimBundle bundle;
  bundle.cfg.total_steps = 6;
  auto plain = bundle.make(Algorithm::kMiddle);
  plain->run();
  const std::size_t full_bytes = plain->upload_bytes();
  EXPECT_GT(full_bytes, 0u);

  SimBundle bundle2;
  bundle2.cfg.total_steps = 6;
  bundle2.cfg.transport.wireless_up.compression = {
      CompressionKind::kTopK, 0.1};
  auto compressed = bundle2.make(Algorithm::kMiddle);
  compressed->run();
  // Top-10% costs 8 bytes/kept coordinate vs 4 bytes/coordinate raw: ~5x
  // less traffic.
  EXPECT_LT(compressed->upload_bytes(), full_bytes / 3);
}

TEST(Compression, TrainingSurvivesAggressiveCompression) {
  SimBundle bundle;
  bundle.cfg.total_steps = 40;
  bundle.cfg.transport.wireless_up.compression = {CompressionKind::kQuant8};
  auto sim = bundle.make(Algorithm::kMiddle);
  const auto history = sim->run();
  EXPECT_GT(history.best_accuracy(), 0.35);  // chance 0.25
  for (const auto& point : history.points) {
    EXPECT_TRUE(std::isfinite(point.loss));
  }
}

}  // namespace
