// Deterministic, splittable random number generation.
//
// FL simulations need reproducible randomness that is *stable under
// parallelism*: the stream a device draws from must depend only on
// (experiment seed, entity id, time step), never on thread scheduling.
// We derive independent streams by hashing the coordinates with
// SplitMix64 and feeding the result into a small-state xoshiro256**.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace middlefl::parallel {

/// SplitMix64 single-step mix; statistically strong enough to decorrelate
/// seed coordinates (Steele et al., "Fast Splittable Pseudorandom Number
/// Generators").
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The `b`-only half of hash_combine(a, b). Loops that combine many keys
/// with one shared coordinate hoist it:
///   hash_combine(a, b) == hash_combine_mixed(a, combine_mix(b)).
constexpr std::uint64_t combine_mix(std::uint64_t b) noexcept {
  return splitmix64(b) + 0x9e3779b97f4a7c15ULL;
}

constexpr std::uint64_t hash_combine_mixed(std::uint64_t a,
                                           std::uint64_t mixed_b) noexcept {
  return splitmix64(a ^ (mixed_b + (a << 6) + (a >> 2)));
}

/// Combine coordinates into one stream key (order-sensitive).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return hash_combine_mixed(a, combine_mix(b));
}

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies UniformRandomBitGenerator
/// so it plugs into <random> distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    // Seed the four words through SplitMix64 as the authors recommend; this
    // guarantees a non-zero state for every seed.
    std::uint64_t sm = seed;
    for (auto& word : state_) {
      sm = splitmix64(sm);
      word = sm;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) using the high 53 bits.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float uniform_float() noexcept {
    return static_cast<float>((*this)() >> 40) * 0x1.0p-24f;
  }

  /// Uniform integer in [0, bound); bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    // 128-bit multiply keeps the fast path branch-free for typical bounds.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method (no trig, deterministic).
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * uniform() - 1.0;
      v = 2.0 * uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * scale;
    have_spare_ = true;
    return u * scale;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;
};

/// Factory for decorrelated per-entity streams. The typical pattern:
///   StreamRng rng(seed);
///   auto device_rng = rng.stream(device_id, time_step);
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t root_seed) noexcept : root_(root_seed) {}

  /// Stream keyed by one coordinate (e.g. an entity id).
  Xoshiro256 stream(std::uint64_t a) const noexcept {
    return Xoshiro256(hash_combine(root_, a));
  }

  /// Stream keyed by two coordinates (e.g. entity id and time step).
  Xoshiro256 stream(std::uint64_t a, std::uint64_t b) const noexcept {
    return Xoshiro256(hash_combine(hash_combine(root_, a), b));
  }

  /// Stream keyed by three coordinates.
  Xoshiro256 stream(std::uint64_t a, std::uint64_t b,
                    std::uint64_t c) const noexcept {
    return Xoshiro256(
        hash_combine(hash_combine(hash_combine(root_, a), b), c));
  }

  std::uint64_t root_seed() const noexcept { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace middlefl::parallel
