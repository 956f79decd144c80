#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "parallel/rng.hpp"

namespace {

using middlefl::parallel::combine_mix;
using middlefl::parallel::hash_combine;
using middlefl::parallel::hash_combine_mixed;
using middlefl::parallel::splitmix64;
using middlefl::parallel::StreamRng;
using middlefl::parallel::Xoshiro256;

TEST(SplitMix64, DeterministicAndNonTrivial) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  EXPECT_NE(splitmix64(0), 0u);
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(7, 9), hash_combine(7, 9));
}

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(123), b(124);
  int differences = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() != b()) ++differences;
  }
  EXPECT_GT(differences, 90);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro, BoundedIsUnbiased) {
  Xoshiro256 rng(6);
  constexpr std::uint64_t kBound = 7;
  std::vector<std::size_t> counts(kBound, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBound)];
  for (std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 7.0, 450.0);
  }
}

TEST(Xoshiro, NormalMomentsMatch) {
  Xoshiro256 rng(7);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(Xoshiro, WorksWithStdShuffle) {
  // UniformRandomBitGenerator compliance.
  std::vector<int> v{1, 2, 3, 4, 5};
  Xoshiro256 rng(8);
  std::shuffle(v.begin(), v.end(), rng);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(StreamRng, StreamsAreReproducible) {
  StreamRng streams(42);
  auto a1 = streams.stream(3, 7);
  auto a2 = streams.stream(3, 7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a1(), a2());
}

TEST(StreamRng, StreamsAreDecorrelated) {
  StreamRng streams(42);
  auto a = streams.stream(3, 7);
  auto b = streams.stream(3, 8);
  auto c = streams.stream(4, 7);
  int ab = 0, ac = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a(), vb = b(), vc = c();
    if (va == vb) ++ab;
    if (va == vc) ++ac;
  }
  EXPECT_EQ(ab, 0);
  EXPECT_EQ(ac, 0);
}

TEST(StreamRng, CoordinateArityMatters) {
  StreamRng streams(42);
  auto one = streams.stream(5);
  auto two = streams.stream(5, 0);
  // stream(5) and stream(5, 0) must not collide.
  EXPECT_NE(one(), two());
}

TEST(StreamRng, RootSeedChangesEverything) {
  StreamRng a(1), b(2);
  EXPECT_NE(a.stream(0, 0)(), b.stream(0, 0)());
}

TEST(Xoshiro, UniformFloatInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.uniform_float();
    ASSERT_GE(f, 0.0f);
    ASSERT_LT(f, 1.0f);
  }
}

TEST(Xoshiro, BoundedOneAlwaysZero) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(HashCombine, HoistedMixMatches) {
  std::uint64_t a = 3;
  for (std::uint64_t b = 0; b < 1'000; ++b) {
    a = splitmix64(a);
    ASSERT_EQ(hash_combine_mixed(a, combine_mix(b)), hash_combine(a, b));
  }
}

}  // namespace
