// Sharded mobility advance and the v2 stream contract.
//
//  1. Bitwise equivalence (MobilityParallel) — every shard draws from its
//     own (seed, step, shard) stream over fixed boundaries, so advancing
//     the fleet in parallel shards must reproduce the serial walk exactly:
//     same assignments, same mover delta, at every pool size.
//  2. The mover-list contract — each model's movers() equals
//     moved_devices(before, after), ascending by id, and clears on reset;
//     this is what lets Simulation patch edge membership instead of
//     rescanning the fleet.
//  3. Distribution equivalence (MobilityChiSquare) — the v2 walk moves the
//     same devices to the same places as often as the v1 per-device loop,
//     kept here as the reference, across topologies and P_m mixes.
//  4. The v2 walk itself (MarkovStream) — a pinned trajectory hash, long
//     gaps, and P_max in {0, 1}.
//
// Also holds the regression for the latent out-of-bounds read when
// MarkovMobility was built with an empty per-device probability vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chi_square.hpp"
#include "mobility/markov_mobility.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using middlefl::mobility::MarkovMobility;
using middlefl::mobility::MobilityModel;
using middlefl::mobility::moved_devices;
using middlefl::mobility::MoveTopology;
using middlefl::mobility::record_trace;
using middlefl::mobility::TraceMobility;
using middlefl::parallel::ThreadPool;

std::vector<std::size_t> initial_assignment(std::size_t devices,
                                            std::size_t edges) {
  std::vector<std::size_t> a(devices);
  for (std::size_t m = 0; m < devices; ++m) a[m] = m % edges;
  return a;
}

/// Asserts movers() matches the brute-force diff and stays ascending.
void expect_movers_contract(const MobilityModel& model,
                            const std::vector<std::size_t>& before) {
  const auto* movers = model.movers();
  ASSERT_NE(movers, nullptr) << model.name();
  EXPECT_EQ(*movers, moved_devices(before, model.assignment()))
      << model.name();
  EXPECT_TRUE(std::is_sorted(movers->begin(), movers->end())) << model.name();
}

// Big enough for several 16k-device shards so the pooled path actually
// fans out instead of falling back to the serial loop.
constexpr std::size_t kFleet = 40000;
constexpr std::size_t kEdges = 8;

void expect_parallel_matches_serial(MoveTopology topology,
                                    std::size_t pool_size) {
  MarkovMobility serial(initial_assignment(kFleet, kEdges), kEdges, 0.3, 91);
  MarkovMobility sharded(initial_assignment(kFleet, kEdges), kEdges, 0.3, 91);
  serial.set_topology(topology, 0.6);
  sharded.set_topology(topology, 0.6);
  ThreadPool pool(pool_size);
  sharded.set_pool(&pool);
  for (int t = 0; t < 8; ++t) {
    const auto before = serial.assignment();
    serial.advance();
    sharded.advance();
    ASSERT_EQ(serial.assignment(), sharded.assignment())
        << to_string(topology) << " pool=" << pool_size << " step " << t;
    ASSERT_EQ(*serial.movers(), *sharded.movers())
        << to_string(topology) << " pool=" << pool_size << " step " << t;
    expect_movers_contract(sharded, before);
  }
}

TEST(MobilityParallel, UniformMatchesSerialAtEveryPoolSize) {
  for (std::size_t workers : {1u, 2u, 8u}) {
    expect_parallel_matches_serial(MoveTopology::kUniform, workers);
  }
}

TEST(MobilityParallel, RingMatchesSerialAtEveryPoolSize) {
  for (std::size_t workers : {1u, 2u, 8u}) {
    expect_parallel_matches_serial(MoveTopology::kRing, workers);
  }
}

TEST(MobilityParallel, HomeRingMatchesSerialAtEveryPoolSize) {
  for (std::size_t workers : {1u, 2u, 8u}) {
    expect_parallel_matches_serial(MoveTopology::kHomeRing, workers);
  }
}

TEST(MobilityParallel, WholeRunHashUnchangedByPool) {
  // Fold every step's assignment into one hash; the whole trajectory, not
  // just the endpoint, must be pool-size invariant.
  const auto run_hash = [](ThreadPool* pool) {
    MarkovMobility model(initial_assignment(kFleet, kEdges), kEdges, 0.25, 7);
    model.set_topology(MoveTopology::kHomeRing, 0.5);
    model.set_pool(pool);
    std::uint64_t h = 0;
    for (int t = 0; t < 10; ++t) {
      model.advance();
      for (const std::size_t e : model.assignment()) {
        h = middlefl::parallel::hash_combine(h, e);
      }
    }
    return h;
  };
  const std::uint64_t serial = run_hash(nullptr);
  for (std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(run_hash(&pool), serial) << "pool=" << workers;
  }
}

// --- Stream contract v2 against the v1 per-device pattern ---
//
// The MobilityParallel tests compare serial and sharded runs of the SAME
// code, so they cannot catch a walk that draws the wrong distribution.
// V1Reference is the v1 loop the shard streams replaced: one (device,
// step) stream per device, gated on its first uniform(), destination from
// the same stream. The v2 walk draws different bits, so the suites below
// compare distributions, not assignments: per (condition, outcome) cell
// counts of both models over the same fleets, seeds and steps, tested for
// homogeneity with a chi-square per condition. Conditioning on what a
// device looked like before the step (its edge, its home, its P_m) makes
// each outcome an independent draw in both models, so the test is valid
// even though the fleet state carries over from step to step.

using middlefl::parallel::hash_combine;
using middlefl::parallel::Xoshiro256;
using middlefl::testing::ChiSquare;
using middlefl::testing::two_sample;

class V1Reference {
 public:
  V1Reference(std::vector<std::size_t> initial, std::size_t edges,
              std::vector<double> probs, std::uint64_t seed,
              MoveTopology topology, double home_bias)
      : initial_(std::move(initial)),
        current_(initial_),
        edges_(edges),
        probs_(std::move(probs)),
        seed_(seed),
        topology_(topology),
        home_bias_(home_bias) {}

  const std::vector<std::size_t>& assignment() const { return current_; }

  void advance() {
    ++step_;
    if (edges_ == 1) return;
    for (std::size_t m = 0; m < current_.size(); ++m) {
      const double p = probs_[m];
      if (p <= 0.0) continue;
      Xoshiro256 rng(hash_combine(hash_combine(seed_, m), step_));
      if (rng.uniform() >= p) continue;
      const std::size_t right = (current_[m] + 1) % edges_;
      const std::size_t left = (current_[m] + edges_ - 1) % edges_;
      switch (topology_) {
        case MoveTopology::kUniform: {
          std::size_t target = rng.bounded(edges_ - 1);
          if (target >= current_[m]) ++target;
          current_[m] = target;
          break;
        }
        case MoveTopology::kRing:
          current_[m] = rng.uniform() < 0.5 ? right : left;
          break;
        case MoveTopology::kHomeRing:
          if (current_[m] != initial_[m] && rng.uniform() < home_bias_) {
            current_[m] = initial_[m];
          } else {
            current_[m] = rng.uniform() < 0.5 ? right : left;
          }
          break;
      }
    }
  }

 private:
  std::vector<std::size_t> initial_;
  std::vector<std::size_t> current_;
  std::size_t edges_;
  std::vector<double> probs_;
  std::uint64_t seed_;
  MoveTopology topology_;
  double home_bias_;
  std::size_t step_ = 0;
};

// Four shards (ceil(49157 / 16384)) with a ragged last one.
constexpr std::size_t kStatFleet = 3 * 16384 + 5;
constexpr std::size_t kStatEdges = 5;
constexpr int kStatSteps = 8;
constexpr std::uint64_t kStatSeeds[] = {101, 202};

/// A per-device P_m cycle holding exact 0s and 1s.
constexpr double kMix[] = {0.0, 1.0, 0.37, 0.05, 0.9, 0.5, 0.0};
/// P everywhere when `mix_scale` is 0, else mix_scale * kMix per device:
/// scale 1 runs P_max = 1 (no gap draws), smaller scales run the gap walk
/// and the acceptance draw together.
std::vector<double> stat_probabilities(double mix_scale, double p) {
  std::vector<double> probs(kStatFleet, p);
  if (mix_scale > 0.0) {
    for (std::size_t m = 0; m < kStatFleet; ++m) {
      probs[m] = mix_scale * kMix[m % std::size(kMix)];
    }
  }
  return probs;
}

/// Per-(condition, outcome) counts of every device-step of one model.
struct Tally {
  std::size_t outcomes;
  std::vector<std::uint64_t> counts;

  Tally(std::size_t conditions, std::size_t outcomes_per_condition)
      : outcomes(outcomes_per_condition),
        counts(conditions * outcomes_per_condition, 0) {}
  std::span<const std::uint64_t> row(std::size_t c) const {
    return std::span<const std::uint64_t>(counts).subspan(c * outcomes,
                                                          outcomes);
  }
};

/// Cell of a device-step: classify(m, from, to) -> (condition, outcome).
using Classify =
    std::function<std::pair<std::size_t, std::size_t>(std::size_t,
                                                      std::size_t,
                                                      std::size_t)>;

template <typename Model>
void tally_steps(Model& model, const Classify& classify, Tally& tally) {
  for (int t = 0; t < kStatSteps; ++t) {
    const std::vector<std::size_t> before = model.assignment();
    model.advance();
    const auto& after = model.assignment();
    for (std::size_t m = 0; m < before.size(); ++m) {
      const auto [c, o] = classify(m, before[m], after[m]);
      ++tally.counts[c * tally.outcomes + o];
    }
  }
}

/// Runs v2 and the v1 reference over the same fleets and seeds and returns
/// the summed per-condition homogeneity chi-square of their tallies.
ChiSquare compare_with_v1(MoveTopology topology, double mix_scale, double p,
                          double home_bias, std::size_t conditions,
                          std::size_t outcomes, const Classify& classify) {
  Tally v1(conditions, outcomes);
  Tally v2(conditions, outcomes);
  const auto probs = stat_probabilities(mix_scale, p);
  for (const std::uint64_t seed : kStatSeeds) {
    const auto initial = initial_assignment(kStatFleet, kStatEdges);
    MarkovMobility model =
        mix_scale > 0.0 ? MarkovMobility(initial, kStatEdges, probs, seed)
                        : MarkovMobility(initial, kStatEdges, p, seed);
    model.set_topology(topology, home_bias);
    V1Reference reference(initial, kStatEdges, probs, seed, topology,
                          home_bias);
    tally_steps(model, classify, v2);
    tally_steps(reference, classify, v1);
  }
  ChiSquare total;
  for (std::size_t c = 0; c < conditions; ++c) {
    total += two_sample(v1.row(c), v2.row(c));
  }
  return total;
}

TEST(MobilityChiSquare, UniformTransitionsMatchV1Reference) {
  // Condition: the edge a device leaves from; outcome: where it ends up
  // (itself = stayed). Pins the mover rate per edge and the destination
  // spread together.
  const ChiSquare chi = compare_with_v1(
      MoveTopology::kUniform, 0.0, 0.3, 0.5, kStatEdges, kStatEdges,
      [](std::size_t, std::size_t from, std::size_t to) {
        return std::pair{from, to};
      });
  EXPECT_EQ(chi.df, kStatEdges * (kStatEdges - 1));
  EXPECT_TRUE(chi.passes()) << chi.describe();
}

TEST(MobilityChiSquare, RingTransitionsMatchV1Reference) {
  const ChiSquare chi = compare_with_v1(
      MoveTopology::kRing, 0.0, 0.3, 0.5, kStatEdges, kStatEdges,
      [](std::size_t, std::size_t from, std::size_t to) {
        return std::pair{from, to};
      });
  EXPECT_EQ(chi.df, kStatEdges * 2);  // stay, clockwise, counter-clockwise
  EXPECT_TRUE(chi.passes()) << chi.describe();
}

TEST(MobilityChiSquare, HomeRingTransitionsMatchV1Reference) {
  // Condition: (current edge, home edge), so the return-home branch of
  // away devices is tested apart from the ring moves of devices at home.
  const ChiSquare chi = compare_with_v1(
      MoveTopology::kHomeRing, 0.0, 0.5, 0.6, kStatEdges * kStatEdges,
      kStatEdges, [](std::size_t m, std::size_t from, std::size_t to) {
        return std::pair{from * kStatEdges + m % kStatEdges, to};
      });
  EXPECT_GT(chi.df, kStatEdges * 2);
  EXPECT_TRUE(chi.passes()) << chi.describe();
}

TEST(MobilityChiSquare, MixedProbabilitiesMatchV1Reference) {
  // Condition: the device's slot in the P_m cycle; outcome: the edge
  // offset it moved by (0 = stayed). The full mix has P_max = 1; at half
  // scale P_max = 0.5, so gaps and acceptance draws both run. P_m = 0
  // never moves and P_m = 1 always does, in both models, so those rows
  // carry less freedom.
  constexpr std::size_t kSlots = std::size(kMix);
  const auto by_slot = [](std::size_t m, std::size_t from, std::size_t to) {
    return std::pair{m % kSlots, (to + kStatEdges - from) % kStatEdges};
  };
  const ChiSquare full = compare_with_v1(MoveTopology::kUniform, 1.0, 0.0,
                                         0.5, kSlots, kStatEdges, by_slot);
  // Slots 0 and 6 (P 0) only ever stay, slot 1 (P 1) never does.
  EXPECT_EQ(full.df, 4 * (kStatEdges - 1) + (kStatEdges - 2));
  EXPECT_TRUE(full.passes()) << full.describe();
  const ChiSquare half = compare_with_v1(MoveTopology::kUniform, 0.5, 0.0,
                                         0.5, kSlots, kStatEdges, by_slot);
  EXPECT_EQ(half.df, 5 * (kStatEdges - 1));
  EXPECT_TRUE(half.passes()) << half.describe();
}

TEST(MobilityChiSquare, BlockMoverCountsMatchV1Reference) {
  // Independence between neighbouring devices: the number of movers in
  // each aligned block of 64 devices per step follows Binomial(64, P) in
  // v1. The gap walk must not clump or spread movers; blocks 192 and 384
  // straddle shard boundaries.
  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kBins = 16;  // 0..14 movers, and 15 or more
  const auto histogram = [&](auto& model) {
    std::vector<std::uint64_t> bins(kBins, 0);
    for (int t = 0; t < kStatSteps; ++t) {
      const std::vector<std::size_t> before = model.assignment();
      model.advance();
      const auto& after = model.assignment();
      for (std::size_t lo = 0; lo + kBlock <= before.size(); lo += kBlock) {
        std::size_t moved = 0;
        for (std::size_t m = lo; m < lo + kBlock; ++m) {
          moved += before[m] != after[m];
        }
        ++bins[std::min(moved, kBins - 1)];
      }
    }
    return bins;
  };
  std::vector<std::uint64_t> v1(kBins, 0), v2(kBins, 0);
  const auto probs = stat_probabilities(0.0, 0.1);
  for (const std::uint64_t seed : kStatSeeds) {
    const auto initial = initial_assignment(kStatFleet, kStatEdges);
    MarkovMobility model(initial, kStatEdges, 0.1, seed);
    V1Reference reference(initial, kStatEdges, probs, seed,
                          MoveTopology::kUniform, 0.5);
    const auto a = histogram(reference);
    const auto b = histogram(model);
    for (std::size_t i = 0; i < kBins; ++i) {
      v1[i] += a[i];
      v2[i] += b[i];
    }
  }
  const ChiSquare chi = two_sample(v1, v2);
  EXPECT_GE(chi.df, 10u);
  EXPECT_TRUE(chi.passes()) << chi.describe();
}

// --- MarkovStream: the v2 walk's own contract ---

TEST(MarkovStream, PinnedTrajectoryHash) {
  // The (seed, step, shard) streams, the shard boundaries, the gap table
  // and the draw order pinned as one number: four shards, home-ring moves,
  // a per-device P_m mix (P_max = 1). Integer draws and exactly rounded
  // double products only, so the hash is the same under every ISA. A
  // change here changes every golden; re-record deliberately.
  MarkovMobility model(initial_assignment(kStatFleet, kStatEdges), kStatEdges,
                       stat_probabilities(0.4, 0.0), 5);
  model.set_topology(MoveTopology::kHomeRing, 0.6);
  std::uint64_t h = 0;
  std::size_t movers = 0;
  for (int t = 0; t < 6; ++t) {
    model.advance();
    movers += model.movers()->size();
    for (const std::size_t e : model.assignment()) h = hash_combine(h, e);
  }
  EXPECT_EQ(movers, 47451u);
  EXPECT_EQ(h, 521428125902758120ULL);
}

TEST(MarkovStream, PinnedTrajectoryHashPerTopology) {
  // The gap path pinned per topology, which the hash above (P_max = 1)
  // never takes: a shared P = 0.1 (no acceptance draws) and a P_m mix at
  // P_max = 0.6 (gap and acceptance draws), on the four ragged shards.
  // The hash folds in every step's mover list and assignment.
  struct Pin {
    MoveTopology topology;
    double mix_scale;
    std::size_t movers;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {MoveTopology::kUniform, 0.0, 29331u, 11955647546421071400ULL},
      {MoveTopology::kUniform, 0.6, 71182u, 6450846703695750752ULL},
      {MoveTopology::kRing, 0.0, 29331u, 14822795134040074398ULL},
      {MoveTopology::kRing, 0.6, 71182u, 3954737642835966500ULL},
      {MoveTopology::kHomeRing, 0.0, 29356u, 15557492043250641221ULL},
      {MoveTopology::kHomeRing, 0.6, 70853u, 6640652811272784477ULL},
  };
  for (const Pin& pin : pins) {
    const auto initial = initial_assignment(kStatFleet, kStatEdges);
    MarkovMobility model =
        pin.mix_scale > 0.0
            ? MarkovMobility(initial, kStatEdges,
                             stat_probabilities(pin.mix_scale, 0.0), 23)
            : MarkovMobility(initial, kStatEdges, 0.1, 23);
    model.set_topology(pin.topology, 0.6);
    std::uint64_t h = 0;
    std::size_t movers = 0;
    for (int t = 0; t < 6; ++t) {
      model.advance();
      movers += model.movers()->size();
      for (const std::size_t m : *model.movers()) h = hash_combine(h, m);
      for (const std::size_t e : model.assignment()) h = hash_combine(h, e);
    }
    const std::string where = to_string(pin.topology) + " mix " +
                              std::to_string(pin.mix_scale);
    EXPECT_EQ(movers, pin.movers) << where;
    EXPECT_EQ(h, pin.hash) << where;
  }
}

TEST(MarkovStream, LowProbabilityMatchesNominal) {
  // P = 0.002: the gap table stops at the shard length, and most shards
  // end on a gap that runs past their last device.
  MarkovMobility model(initial_assignment(kStatFleet, kStatEdges), kStatEdges,
                       0.002, 77);
  std::size_t movers = 0;
  constexpr int kSteps = 50;
  for (int t = 0; t < kSteps; ++t) {
    model.advance();
    movers += model.movers()->size();
  }
  const double expected = 0.002 * kStatFleet * kSteps;  // ~4916
  EXPECT_NEAR(static_cast<double>(movers), expected,
              4.0 * std::sqrt(expected));
}

TEST(MarkovStream, ExtremeProbabilitiesAreExact) {
  // P_max = 1 walks every device without gap draws; P_max = 0 walks none.
  // Mixed with P_m = 0 devices across shards, P_max = 1 moves exactly the
  // P_m = 1 devices.
  std::vector<double> probs(kStatFleet, 0.0);
  for (std::size_t m = 0; m < kStatFleet; m += 3) probs[m] = 1.0;
  MarkovMobility mixed(initial_assignment(kStatFleet, kStatEdges), kStatEdges,
                       probs, 9);
  MarkovMobility frozen(initial_assignment(kStatFleet, kStatEdges),
                        kStatEdges, 0.0, 9);
  for (int t = 0; t < 3; ++t) {
    mixed.advance();
    frozen.advance();
    ASSERT_EQ(mixed.movers()->size(), (kStatFleet + 2) / 3) << "step " << t;
    for (const std::size_t m : *mixed.movers()) ASSERT_EQ(m % 3, 0u);
    ASSERT_TRUE(frozen.movers()->empty());
  }
  EXPECT_EQ(frozen.assignment(), initial_assignment(kStatFleet, kStatEdges));
}

TEST(MarkovGate, RejectsNanProbability) {
  // A NaN P would pass a `p < 0 || p > 1` check and then fail every gate
  // compare; it must be rejected up front.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(MarkovMobility(initial_assignment(4, 2), 2, nan, 1),
               std::invalid_argument);
  EXPECT_THROW(MarkovMobility(initial_assignment(4, 2), 2,
                              std::vector<double>{0.1, nan, 0.2, 0.3}, 1),
               std::invalid_argument);
}

// --- Mover-list contract across the other models ---

TEST(MobilityParallel, TraceMoversMatchDiff) {
  MarkovMobility source(initial_assignment(30, 5), 5, 0.6, 17);
  TraceMobility replay(record_trace(source, 15));
  for (int t = 0; t < 20; ++t) {  // runs past the end: held steps move nobody
    const auto before = replay.assignment();
    replay.advance();
    expect_movers_contract(replay, before);
  }
  replay.reset();
  ASSERT_NE(replay.movers(), nullptr);
  EXPECT_TRUE(replay.movers()->empty());
}

TEST(MobilityParallel, MarkovResetClearsMovers) {
  MarkovMobility model(initial_assignment(50, 4), 4, 1.0, 3);
  model.advance();
  ASSERT_FALSE(model.movers()->empty());
  model.reset();
  EXPECT_TRUE(model.movers()->empty());
}

// --- Regression: empty per-device probability vector ---

TEST(MobilityParallel, EmptyMoveProbabilitiesMeansNoMovement) {
  // The heterogeneous constructor documents an empty vector as P_m = 0,
  // but advance() used to index move_prob_[m] unconditionally — an
  // out-of-bounds read for every device. Now it must be a well-defined
  // stationary fleet.
  MarkovMobility model(initial_assignment(25, 4), 4, std::vector<double>{},
                       19);
  EXPECT_EQ(model.global_mobility(), 0.0);
  const auto before = model.assignment();
  for (int t = 0; t < 10; ++t) {
    model.advance();
    EXPECT_TRUE(model.movers()->empty());
  }
  EXPECT_EQ(model.assignment(), before);
}

}  // namespace
