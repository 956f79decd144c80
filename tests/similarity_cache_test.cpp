// Fused Eq. 11 kernel vs the materialize-Delta reference, and the
// version-keyed SimilarityCache: hit/miss semantics, invalidation on
// device/cloud mutation, and identical selections with and without it.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <random>
#include <vector>

#include "core/selection.hpp"
#include "core/similarity.hpp"
#include "core/similarity_cache.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::core::Candidate;
using middlefl::core::SelectionContext;
using middlefl::core::SimilarityCache;
using middlefl::testing::SimBundle;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(FusedSelectionUtility, MatchesMaterializedReference) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{5}, std::size_t{1023},
        std::size_t{4099}, std::size_t{65536}}) {
    const auto cloud = random_vec(n, 100 + n);
    auto local = random_vec(n, 200 + n);
    // Bias local toward cloud so the delta has a nonzero cosine.
    for (std::size_t i = 0; i < n; ++i) local[i] += 0.3f * cloud[i];
    const double fused = middlefl::core::selection_utility(cloud, local);
    const double ref =
        middlefl::core::selection_utility_reference(cloud, local);
    EXPECT_NEAR(fused, ref, 1e-9) << "n=" << n;
    EXPECT_GE(fused, 0.0);
    EXPECT_LE(fused, 1.0);
  }
}

TEST(FusedSelectionUtility, DegenerateInputsReturnZero) {
  const std::vector<float> zeros(64, 0.0f);
  const auto v = random_vec(64, 1);
  // Zero cloud model and zero delta (local == cloud) are both defined as 0.
  EXPECT_EQ(middlefl::core::selection_utility(zeros, v), 0.0);
  EXPECT_EQ(middlefl::core::selection_utility(v, v), 0.0);
}

TEST(SimilarityCache, MissThenHitThenInvalidate) {
  SimilarityCache cache;
  cache.resize(4);
  EXPECT_FALSE(cache.lookup(2, 5, 9).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  cache.store(2, 5, 9, 0.75);
  const auto hit = cache.lookup(2, 5, 9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0.75);
  EXPECT_EQ(cache.hits(), 1u);

  // Device trained (version 5 -> 6): the entry no longer applies.
  EXPECT_FALSE(cache.lookup(2, 6, 9).has_value());
  // Cloud synchronized (version 9 -> 10): likewise.
  EXPECT_FALSE(cache.lookup(2, 5, 10).has_value());
  // The original pair still hits — entries are keyed, not timestamped.
  EXPECT_TRUE(cache.lookup(2, 5, 9).has_value());
}

TEST(SimilarityCache, ClearAndOutOfRange) {
  SimilarityCache cache;
  cache.resize(2);
  cache.store(1, 1, 1, 0.5);
  EXPECT_TRUE(cache.lookup(1, 1, 1).has_value());
  cache.clear();
  EXPECT_FALSE(cache.lookup(1, 1, 1).has_value());
  // Lookups past the sized range are misses, not UB.
  EXPECT_FALSE(cache.lookup(99, 0, 0).has_value());
}

TEST(SimilarityCache, DeviceMutationsBumpVersion) {
  SimBundle bundle;
  auto sim = bundle.make(Algorithm::kMiddle);
  auto dev = sim->device(0);
  const auto v0 = dev.params_version();
  const std::vector<float> params(dev.params().begin(), dev.params().end());
  dev.set_params(params);
  EXPECT_GT(dev.params_version(), v0);
}

TEST(SimilarityCache, SimulationHitsAfterWarmup) {
  SimBundle bundle;
  bundle.cfg.cloud_interval = 10;  // no sync within the window
  auto sim = bundle.make(Algorithm::kMiddle);
  for (int i = 0; i < 4; ++i) sim->step();
  // Unselected devices keep their parameter version across steps, so their
  // scores must start hitting the cache from the second step on.
  EXPECT_GT(sim->similarity_cache().hits(), 0u);
  EXPECT_GT(sim->similarity_cache().misses(), 0u);
}

TEST(SimilarityCache, CachedSelectionPicksIdenticalIds) {
  // Rounds of partial device churn (a few devices train and re-version)
  // and periodic cloud syncs (the cloud moves and re-versions): the cached
  // selection must pick exactly the ids an uncached one does, with the
  // same draws. Local models sit near the cloud with distinct offsets, so
  // every Eq. 11 score is distinct and a stale cached score would reorder
  // the ranking.
  constexpr std::size_t kDevices = 24;
  constexpr std::size_t kParams = 257;
  constexpr std::size_t kSelect = 5;
  std::vector<float> cloud = random_vec(kParams, 7);
  std::uint64_t next_version = 1;
  std::uint64_t cloud_version = next_version++;
  // w_m = (1 + drift) w_c + noise: Delta_w_m leans toward w_c by `drift`.
  const auto near_cloud = [&cloud](double drift, std::uint64_t seed) {
    std::vector<float> w = random_vec(kParams, seed);
    for (std::size_t i = 0; i < kParams; ++i) {
      w[i] = static_cast<float>(1.0 + drift) * cloud[i] + 0.3f * w[i];
    }
    return w;
  };
  std::vector<std::vector<float>> local(kDevices);
  std::vector<std::uint64_t> version(kDevices);
  for (std::size_t m = 0; m < kDevices; ++m) {
    local[m] = near_cloud(0.05 * static_cast<double>(m + 1), 300 + m);
    version[m] = next_version++;
  }

  SimilarityCache cache;
  cache.resize(kDevices);
  const middlefl::core::SimilaritySelection strategy;
  for (std::size_t round = 0; round < 8; ++round) {
    if (round % 3 == 2) {
      // A cloud sync: the global model moves, so every cached score is
      // stale even for devices that did not train.
      cloud = near_cloud(0.4, 50 + round);
      cloud_version = next_version++;
    }
    // Three devices "train": new params, new version.
    for (std::size_t j = 0; j < 3; ++j) {
      const std::size_t m = (round * 7 + j * 5) % kDevices;
      local[m] = near_cloud(0.03 * static_cast<double>(j + round + 1),
                            1000 * (round + 1) + m);
      version[m] = next_version++;
    }
    std::vector<Candidate> candidates;
    for (std::size_t m = 0; m < kDevices; ++m) {
      candidates.push_back(Candidate{
          .device_id = m,
          .data_size = 10.0,
          .stat_utility = std::nullopt,
          .local_params = local[m],
          .params_version = version[m],
      });
    }
    middlefl::parallel::Xoshiro256 rng_cached(round);
    middlefl::parallel::Xoshiro256 rng_plain(round);
    const auto cached = strategy.select(
        candidates, cloud, kSelect, rng_cached,
        SelectionContext{.cloud_version = cloud_version, .cache = &cache});
    const auto plain =
        strategy.select(candidates, cloud, kSelect, rng_plain,
                        SelectionContext{.cloud_version = cloud_version});
    EXPECT_EQ(cached, plain) << "round " << round;
    EXPECT_EQ(rng_cached(), rng_plain()) << "round " << round;
  }
  // Unchanged (device, cloud) pairs were served from the cache.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

}  // namespace
