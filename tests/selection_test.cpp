#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "chi_square.hpp"
#include "core/selection.hpp"
#include "core/similarity.hpp"

namespace {

using middlefl::core::Candidate;
using middlefl::core::RandomSelection;
using middlefl::core::SimilaritySelection;
using middlefl::core::StatUtilitySelection;
using middlefl::parallel::Xoshiro256;

struct Pool {
  // Owns candidate parameter storage so spans stay valid.
  std::vector<std::vector<float>> params;
  std::vector<Candidate> candidates;

  void add(std::size_t id, std::vector<float> p,
           std::optional<double> utility = std::nullopt,
           double data_size = 10.0) {
    params.push_back(std::move(p));
    candidates.push_back(Candidate{id, data_size, utility, params.back()});
  }
};

TEST(RandomSelection, ReturnsKDistinctIds) {
  Pool pool;
  for (std::size_t i = 0; i < 10; ++i) pool.add(i, {1.0f});
  RandomSelection strategy;
  Xoshiro256 rng(1);
  const auto selected =
      strategy.select(pool.candidates, std::vector<float>{1.0f}, 4, rng);
  EXPECT_EQ(selected.size(), 4u);
  EXPECT_EQ(std::set<std::size_t>(selected.begin(), selected.end()).size(), 4u);
}

TEST(RandomSelection, FewerCandidatesThanK) {
  Pool pool;
  pool.add(7, {1.0f});
  pool.add(9, {1.0f});
  RandomSelection strategy;
  Xoshiro256 rng(2);
  const auto selected =
      strategy.select(pool.candidates, std::vector<float>{1.0f}, 5, rng);
  EXPECT_EQ(selected.size(), 2u);
}

TEST(RandomSelection, UniformOverCandidates) {
  Pool pool;
  for (std::size_t i = 0; i < 5; ++i) pool.add(i, {1.0f});
  RandomSelection strategy;
  std::vector<std::size_t> counts(5, 0);
  for (std::uint64_t trial = 0; trial < 5000; ++trial) {
    Xoshiro256 rng(trial);
    const auto sel =
        strategy.select(pool.candidates, std::vector<float>{1.0f}, 1, rng);
    ++counts[sel[0]];
  }
  for (std::size_t c : counts) EXPECT_NEAR(c, 1000.0, 150.0);
}

TEST(StatUtility, PicksHighestUtility) {
  Pool pool;
  pool.add(0, {1.0f}, 1.0);
  pool.add(1, {1.0f}, 5.0);
  pool.add(2, {1.0f}, 3.0);
  StatUtilitySelection strategy;
  Xoshiro256 rng(3);
  const auto selected =
      strategy.select(pool.candidates, std::vector<float>{1.0f}, 2, rng);
  EXPECT_EQ(std::set<std::size_t>(selected.begin(), selected.end()),
            (std::set<std::size_t>{1, 2}));
}

TEST(StatUtility, UnexploredDevicesRankFirst) {
  Pool pool;
  pool.add(0, {1.0f}, 100.0);
  pool.add(1, {1.0f}, std::nullopt);  // never trained
  StatUtilitySelection strategy;
  Xoshiro256 rng(4);
  const auto selected =
      strategy.select(pool.candidates, std::vector<float>{1.0f}, 1, rng);
  EXPECT_EQ(selected[0], 1u);
}

TEST(Similarity, LeastSimilarFirst) {
  // Cloud = (1, 0). Delta of device 0 is aligned (high U), device 1 is
  // orthogonal (U = 0). MIDDLE must pick the orthogonal one.
  const std::vector<float> cloud{1.0f, 0.0f};
  Pool pool;
  pool.add(0, {2.0f, 0.0f});  // delta (1, 0): U = 1
  pool.add(1, {1.0f, 1.0f});  // delta (0, 1): U = 0
  SimilaritySelection strategy;
  Xoshiro256 rng(5);
  const auto selected = strategy.select(pool.candidates, cloud, 1, rng);
  EXPECT_EQ(selected[0], 1u);
}

TEST(Similarity, InvertedAblationPicksMostSimilar) {
  const std::vector<float> cloud{1.0f, 0.0f};
  Pool pool;
  pool.add(0, {2.0f, 0.0f});
  pool.add(1, {1.0f, 1.0f});
  SimilaritySelection inverted(/*invert=*/true);
  Xoshiro256 rng(6);
  const auto selected = inverted.select(pool.candidates, cloud, 1, rng);
  EXPECT_EQ(selected[0], 0u);
}

TEST(Similarity, TiesBrokenRandomly) {
  // All candidates have delta = 0 (just synced): U = 0 for everyone, so
  // selection must not systematically favour low ids.
  const std::vector<float> cloud{1.0f, 1.0f};
  Pool pool;
  for (std::size_t i = 0; i < 6; ++i) pool.add(i, {1.0f, 1.0f});
  SimilaritySelection strategy;
  std::vector<std::size_t> counts(6, 0);
  for (std::uint64_t trial = 0; trial < 3000; ++trial) {
    Xoshiro256 rng(trial);
    const auto sel = strategy.select(pool.candidates, cloud, 1, rng);
    ++counts[sel[0]];
  }
  for (std::size_t c : counts) EXPECT_GT(c, 300u);
}

TEST(Similarity, RanksByUtilityOrder) {
  // Three candidates with distinct utilities; k = 2 must take the two
  // LOWEST-U ones.
  const std::vector<float> cloud{1.0f, 0.0f};
  Pool pool;
  pool.add(0, {3.0f, 0.0f});     // delta (2,0): U = 1      (most similar)
  pool.add(1, {1.5f, 1.0f});     // delta (.5,1): U ~ 0.45
  pool.add(2, {0.0f, 2.0f});     // delta (-1,2): U = 0 (clamped)
  SimilaritySelection strategy;
  Xoshiro256 rng(8);
  const auto selected = strategy.select(pool.candidates, cloud, 2, rng);
  EXPECT_EQ(std::set<std::size_t>(selected.begin(), selected.end()),
            (std::set<std::size_t>{1, 2}));
}

TEST(Selection, NamesAreInformative) {
  EXPECT_EQ(RandomSelection().name(), "random");
  EXPECT_EQ(StatUtilitySelection().name(), "stat-utility");
  EXPECT_NE(SimilaritySelection().name().find("MIDDLE"), std::string::npos);
}

TEST(Selection, EmptyCandidatesGiveEmptySelection) {
  RandomSelection random;
  StatUtilitySelection stat;
  SimilaritySelection sim;
  Xoshiro256 rng(9);
  const std::vector<Candidate> none;
  const std::vector<float> cloud{1.0f};
  EXPECT_TRUE(random.select(none, cloud, 3, rng).empty());
  EXPECT_TRUE(stat.select(none, cloud, 3, rng).empty());
  EXPECT_TRUE(sim.select(none, cloud, 3, rng).empty());
}

TEST(Selection, DeterministicGivenRng) {
  Pool pool;
  for (std::size_t i = 0; i < 8; ++i) pool.add(i, {1.0f, float(i)});
  const std::vector<float> cloud{1.0f, 0.5f};
  SimilaritySelection strategy;
  Xoshiro256 rng1(10), rng2(10);
  EXPECT_EQ(strategy.select(pool.candidates, cloud, 3, rng1),
            strategy.select(pool.candidates, cloud, 3, rng2));
}

// --- Partial top-k vs the full-sort ranking oracle ---
//
// top_k_by_score ranks with nth_element + partial sort over (score desc,
// tie key asc), where the tie key is hash_combine(salt, device_id) and the
// salt is the stream's first draw. The oracle below is the plain reading
// of that contract: a stable sort of every position by the same key. The
// ids must be identical for ANY score vector — every strategy's
// selection, and therefore every golden fingerprint, rides on this.

using middlefl::core::HybridSelection;
using middlefl::core::selection_utility;
using middlefl::core::top_k_by_score;
using middlefl::parallel::hash_combine;

std::vector<std::size_t> top_k_by_score_reference(
    std::span<const Candidate> candidates, const std::vector<double>& scores,
    std::size_t k, Xoshiro256& rng) {
  const std::uint64_t salt = rng();
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return hash_combine(salt, candidates[a].device_id) <
           hash_combine(salt, candidates[b].device_id);
  });
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < std::min(k, order.size()); ++i) {
    ids.push_back(candidates[order[i]].device_id);
  }
  return ids;
}

/// Floyd's algorithm as textbooks write it, on a std::set: the bitwise
/// oracle for RandomSelection's positions and draws.
std::vector<std::size_t> floyd_reference(std::size_t count, std::size_t k,
                                         Xoshiro256& rng) {
  std::set<std::size_t> picked;
  if (k >= count) {
    for (std::size_t i = 0; i < count; ++i) picked.insert(i);
  } else {
    for (std::size_t j = count - k; j < count; ++j) {
      const std::size_t t = rng.bounded(j + 1);
      picked.insert(picked.count(t) != 0 ? j : t);
    }
  }
  return {picked.begin(), picked.end()};
}

TEST(SelectionEquivalence, PartialMatchesReferenceUnderHeavyTies) {
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Xoshiro256 gen(trial * 7919 + 1);
    const std::size_t n = gen.bounded(65);  // includes n = 0 and n = 1
    Pool pool;
    std::vector<double> scores(n);
    for (std::size_t i = 0; i < n; ++i) {
      pool.add(i * 5 + 3, {1.0f});
      // Three discrete levels: long runs of equal scores stress the
      // tie-key order far harder than continuous draws would.
      scores[i] = 0.5 * static_cast<double>(gen.bounded(3));
    }
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2,
                                n > 0 ? n - 1 : 0, n, n + 5}) {
      Xoshiro256 rng_fast(trial), rng_ref(trial);
      EXPECT_EQ(top_k_by_score(pool.candidates, scores, k, rng_fast),
                top_k_by_score_reference(pool.candidates, scores, k, rng_ref))
          << "trial " << trial << " n " << n << " k " << k;
      EXPECT_EQ(rng_fast(), rng_ref()) << "trial " << trial << " k " << k;
    }
  }
}

TEST(SelectionEquivalence, AllStrategiesMatchLegacyRanking) {
  // Reconstruct each metadata strategy's documented score vector and pin
  // select() against the full-sort ranking of those scores; random
  // selection is pinned against the textbook Floyd. Candidates mix
  // never-trained devices (no utility) with duplicated utilities and
  // duplicated parameter vectors so every tiebreak path fires.
  Pool pool;
  const std::vector<float> cloud{1.0f, -0.5f, 2.0f};
  for (std::size_t i = 0; i < 24; ++i) {
    std::vector<float> params{static_cast<float>(i % 4), 1.0f, -1.0f};
    std::optional<double> utility;
    if (i % 3 != 0) utility = static_cast<double>(i % 5);
    pool.add(i, std::move(params), utility);
  }
  const std::size_t n = pool.candidates.size();

  double max_utility = 0.0;
  std::vector<double> similarity(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = pool.candidates[i];
    if (c.stat_utility) max_utility = std::max(max_utility, *c.stat_utility);
    similarity[i] = selection_utility(cloud, c.local_params);
  }
  std::vector<double> stat_scores(n), middle_scores(n), hybrid_scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = pool.candidates[i];
    stat_scores[i] = c.stat_utility ? *c.stat_utility : max_utility + 1.0;
    middle_scores[i] = -similarity[i];
    hybrid_scores[i] = c.stat_utility
                           ? *c.stat_utility * (1.0 - similarity[i])
                           : (max_utility + 1.0) * 2.0;
  }

  struct Case {
    const middlefl::core::SelectionStrategy& strategy;
    const std::vector<double>& scores;
  };
  const StatUtilitySelection stat;
  const SimilaritySelection middle;
  const HybridSelection hybrid;
  const Case cases[] = {
      {stat, stat_scores}, {middle, middle_scores}, {hybrid, hybrid_scores}};
  const RandomSelection random;
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}, n}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      for (const auto& c : cases) {
        Xoshiro256 rng_strategy(seed), rng_ref(seed);
        EXPECT_EQ(c.strategy.select(pool.candidates, cloud, k, rng_strategy),
                  top_k_by_score_reference(pool.candidates, c.scores, k,
                                           rng_ref))
            << c.strategy.name() << " k " << k << " seed " << seed;
      }
      Xoshiro256 rng_random(seed), rng_floyd(seed);
      std::vector<std::size_t> expected = floyd_reference(n, k, rng_floyd);
      for (std::size_t& id : expected) id = pool.candidates[id].device_id;
      EXPECT_EQ(random.select(pool.candidates, cloud, k, rng_random), expected)
          << "random k " << k << " seed " << seed;
      EXPECT_EQ(rng_random(), rng_floyd()) << "random k " << k;
    }
  }
}

// --- SelectionChiSquare: v2 distributions against the v1 shuffles ---
//
// v1 drew a full std::shuffle of the positions: random selection took its
// first K, and metadata strategies broke ties by shuffle rank. The v2
// draws differ bit for bit, so these suites compare distributions: how
// often each position is picked, and how uniformly ties break.

using middlefl::testing::ChiSquare;
using middlefl::testing::two_sample;
using middlefl::testing::uniform_fit;

/// v1 random selection: the first k of a shuffle of [0, count).
std::vector<std::size_t> v1_random_positions(std::size_t count, std::size_t k,
                                             Xoshiro256& rng) {
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(std::min(k, count));
  return order;
}

TEST(SelectionChiSquare, FloydRankFrequencyMatchesV1Shuffle) {
  // How often each of 20 ranks is picked, K = 5, over 20000 streams. Picks
  // within one draw are dependent (K distinct), which only makes the test
  // conservative.
  constexpr std::size_t kCount = 20;
  constexpr std::size_t kPick = 5;
  const RandomSelection strategy;
  std::vector<std::size_t> ranks(kCount);
  std::iota(ranks.begin(), ranks.end(), std::size_t{0});
  std::vector<std::uint64_t> v1(kCount, 0), v2(kCount, 0);
  for (std::uint64_t trial = 0; trial < 20000; ++trial) {
    Xoshiro256 rng_v1(trial), rng_v2(trial);
    for (const std::size_t r : v1_random_positions(kCount, kPick, rng_v1)) {
      ++v1[r];
    }
    for (const std::size_t r : strategy.select_ids(ranks, kPick, rng_v2)) {
      ++v2[r];
    }
  }
  const ChiSquare versus_v1 = two_sample(v1, v2);
  EXPECT_EQ(versus_v1.df, kCount - 1);
  EXPECT_TRUE(versus_v1.passes()) << versus_v1.describe();
  const ChiSquare flat = uniform_fit(v2);
  EXPECT_TRUE(flat.passes()) << flat.describe();
}

TEST(SelectionChiSquare, FloydSubsetsAreUniform) {
  // Every 3-subset of 6 ranks equally likely: 20 cells, one per stream.
  constexpr std::size_t kCount = 6;
  const RandomSelection strategy;
  std::vector<std::size_t> ranks(kCount);
  std::iota(ranks.begin(), ranks.end(), std::size_t{0});
  std::vector<std::uint64_t> subsets(std::size_t{1} << kCount, 0);
  for (std::uint64_t trial = 0; trial < 20000; ++trial) {
    Xoshiro256 rng(trial);
    std::size_t mask = 0;
    for (const std::size_t r : strategy.select_ids(ranks, 3, rng)) {
      mask |= std::size_t{1} << r;
    }
    ++subsets[mask];
  }
  std::vector<std::uint64_t> cells;
  for (std::size_t mask = 0; mask < subsets.size(); ++mask) {
    if (std::popcount(mask) == 3) {
      cells.push_back(subsets[mask]);
    } else {
      ASSERT_EQ(subsets[mask], 0u);
    }
  }
  ASSERT_EQ(cells.size(), 20u);
  const ChiSquare chi = uniform_fit(cells);
  EXPECT_TRUE(chi.passes()) << chi.describe();
}

TEST(SelectionChiSquare, TieBreakOrderIsUniformAndMatchesV1Shuffle) {
  // Eight equal-score candidates with scattered ids, k = 2: every ordered
  // pair (first pick, second pick) equally likely across streams, and the
  // per-candidate first-pick frequency matches the v1 shuffle-rank
  // tiebreak. A ninth, lower-scored candidate must never be picked.
  constexpr std::size_t kTied = 8;
  Pool pool;
  std::vector<double> scores;
  for (std::size_t i = 0; i < kTied; ++i) {
    pool.add(1000 + i * 37, {1.0f});
    scores.push_back(0.25);
  }
  pool.add(5, {1.0f});
  scores.push_back(0.0);
  std::vector<std::uint64_t> pairs(kTied * kTied, 0);
  std::vector<std::uint64_t> first_v1(kTied, 0), first_v2(kTied, 0);
  for (std::uint64_t trial = 0; trial < 24000; ++trial) {
    Xoshiro256 rng(trial);
    const auto ids = top_k_by_score(pool.candidates, scores, 2, rng);
    ASSERT_EQ(ids.size(), 2u);
    const std::size_t a = (ids[0] - 1000) / 37;
    const std::size_t b = (ids[1] - 1000) / 37;
    ASSERT_LT(a, kTied);
    ASSERT_LT(b, kTied);
    ++pairs[a * kTied + b];
    ++first_v2[a];
    // v1: the stable sort of a shuffle by score puts the tied candidate
    // with the lowest shuffle rank first.
    Xoshiro256 rng_v1(trial);
    const auto order = v1_random_positions(pool.candidates.size(),
                                           pool.candidates.size(), rng_v1);
    for (const std::size_t i : order) {
      if (i < kTied) {
        ++first_v1[i];
        break;
      }
    }
  }
  std::vector<std::uint64_t> ordered;
  for (std::size_t a = 0; a < kTied; ++a) {
    for (std::size_t b = 0; b < kTied; ++b) {
      if (a != b) ordered.push_back(pairs[a * kTied + b]);
    }
  }
  const ChiSquare flat = uniform_fit(ordered);
  EXPECT_EQ(flat.df, kTied * (kTied - 1) - 1);
  EXPECT_TRUE(flat.passes()) << flat.describe();
  const ChiSquare versus_v1 = two_sample(first_v1, first_v2);
  EXPECT_TRUE(versus_v1.passes()) << versus_v1.describe();
}

TEST(SelectionEquivalence, RandomSelectIdsMatchesSelect) {
  // The id-only fast path must make exactly the draws select() makes over
  // candidates carrying the same ids, and return the same picks.
  Pool pool;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 17; ++i) {
    const std::size_t id = i * 3 + 1;  // non-contiguous ids
    pool.add(id, {1.0f});
    ids.push_back(id);
  }
  const RandomSelection strategy;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{4}, ids.size(),
                                ids.size() + 3}) {
      Xoshiro256 rng_ids(seed), rng_full(seed);
      EXPECT_EQ(strategy.select_ids(ids, k, rng_ids),
                strategy.select(pool.candidates, std::vector<float>{1.0f}, k,
                                rng_full))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(SelectionEquivalence, MetadataStrategiesRejectIdOnlyPath) {
  // Strategies that rank on candidate metadata must fail loudly if handed
  // bare ids, instead of silently selecting on nothing.
  const std::vector<std::size_t> ids{1, 2, 3};
  Xoshiro256 rng(4);
  EXPECT_THROW(StatUtilitySelection().select_ids(ids, 2, rng),
               std::logic_error);
  EXPECT_THROW(SimilaritySelection().select_ids(ids, 2, rng),
               std::logic_error);
  EXPECT_THROW(HybridSelection().select_ids(ids, 2, rng), std::logic_error);
  EXPECT_FALSE(RandomSelection().needs_metadata());
  EXPECT_TRUE(StatUtilitySelection().needs_metadata());
}

}  // namespace
