// Sharded mobility advance: pins the two contracts the sublinear stepping
// path leans on.
//
//  1. Bitwise equivalence — because every transition draws from a private
//     (device, step) stream, advancing the fleet in parallel shards must
//     reproduce the serial walk exactly: same assignments, same mover
//     delta, at every pool size.
//  2. The mover-list contract — each model's movers() equals
//     moved_devices(before, after), ascending by id, and clears on reset;
//     this is what lets Simulation patch edge membership instead of
//     rescanning the fleet.
//  3. The two-pass gate (MarkovGate) — MarkovMobility's block-wise gate
//     plus replay walks exactly like the one-pass per-device loop, kept
//     here as the oracle, across topologies, P, block edges and pools.
//
// Also holds the regression for the latent out-of-bounds read when
// MarkovMobility was built with an empty per-device probability vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mobility/markov_mobility.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using middlefl::mobility::MarkovMobility;
using middlefl::mobility::MobilityModel;
using middlefl::mobility::moved_devices;
using middlefl::mobility::MoveTopology;
using middlefl::mobility::RandomWaypointMobility;
using middlefl::mobility::record_trace;
using middlefl::mobility::TraceMobility;
using middlefl::mobility::WaypointConfig;
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

// --- MarkovGate: the two-pass gate against the one-pass walk ---
//
// The MobilityParallel tests compare serial and sharded runs of the SAME
// code, so they cannot catch a gate that draws the wrong number. The
// oracle below is the original one-pass per-device loop: build the
// device's (device, step) stream, gate on its first uniform(), then pick
// the destination from the same stream.

using middlefl::parallel::hash_combine;
using middlefl::parallel::Xoshiro256;

class OneDrawPerDeviceOracle {
 public:
  OneDrawPerDeviceOracle(std::vector<std::size_t> initial, std::size_t edges,
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
  const std::vector<std::size_t>& movers() const { return movers_; }

  void reset() {
    current_ = initial_;
    movers_.clear();
    step_ = 0;
  }

  void advance() {
    ++step_;
    movers_.clear();
    if (edges_ == 1) return;
    for (std::size_t m = 0; m < current_.size(); ++m) {
      const double p = probs_[m];
      if (p <= 0.0) continue;
      Xoshiro256 rng(hash_combine(hash_combine(seed_, m), step_));
      if (rng.uniform() >= p) continue;
      const std::size_t before = current_[m];
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
      if (current_[m] != before) movers_.push_back(m);
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
  std::vector<std::size_t> movers_;
};

/// P = 0, 0.1, 1, or (kind 3) a per-device mix holding exact 0s and 1s.
std::vector<double> gate_probabilities(int kind, std::size_t devices) {
  constexpr double kMix[] = {0.0, 1.0, 0.37, 0.05, 0.9, 0.5, 0.0};
  std::vector<double> probs(devices);
  for (std::size_t m = 0; m < devices; ++m) {
    probs[m] = kind == 0   ? 0.0
               : kind == 1 ? 0.1
               : kind == 2 ? 1.0
                           : kMix[m % std::size(kMix)];
  }
  return probs;
}

void expect_gate_matches_oracle(MoveTopology topology) {
  constexpr std::size_t kGateEdges = 5;
  constexpr double kHomeBias = 0.6;
  // Block edges (1023/1024/1025) and a sharded fleet with a ragged tail.
  const std::size_t sizes[] = {1, 1023, 1024, 1025, 3 * 16384 + 5};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(workers));
  }
  for (const std::size_t devices : sizes) {
    for (int kind = 0; kind < 4; ++kind) {
      const auto probs = gate_probabilities(kind, devices);
      const std::uint64_t seed = 1000 + devices;
      for (const auto& pool : pools) {
        // Uniform P goes through the scalar constructor, the mix through
        // the per-device one.
        MarkovMobility model =
            kind == 3 ? MarkovMobility(initial_assignment(devices, kGateEdges),
                                       kGateEdges, probs, seed)
                      : MarkovMobility(initial_assignment(devices, kGateEdges),
                                       kGateEdges, probs[0], seed);
        model.set_topology(topology, kHomeBias);
        model.set_pool(pool.get());
        OneDrawPerDeviceOracle oracle(initial_assignment(devices, kGateEdges),
                                      kGateEdges, probs, seed, topology,
                                      kHomeBias);
        const auto where = [&](const char* phase, int t) {
          return to_string(topology) + " n=" + std::to_string(devices) +
                 " P-kind=" + std::to_string(kind) +
                 " pool=" + std::to_string(pool->size()) + " " + phase +
                 " step " + std::to_string(t);
        };
        for (int t = 0; t < 30; ++t) {
          model.advance();
          oracle.advance();
          ASSERT_EQ(model.assignment(), oracle.assignment()) << where("", t);
          ASSERT_EQ(*model.movers(), oracle.movers()) << where("", t);
        }
        model.reset();
        oracle.reset();
        ASSERT_EQ(model.assignment(), oracle.assignment()) << where("reset", 0);
        ASSERT_EQ(*model.movers(), oracle.movers()) << where("reset", 0);
        for (int t = 0; t < 3; ++t) {
          model.advance();
          oracle.advance();
          ASSERT_EQ(model.assignment(), oracle.assignment())
              << where("after reset", t);
          ASSERT_EQ(*model.movers(), oracle.movers())
              << where("after reset", t);
        }
      }
    }
  }
}

TEST(MarkovGate, UniformMatchesOneDrawOracle) {
  expect_gate_matches_oracle(MoveTopology::kUniform);
}

TEST(MarkovGate, RingMatchesOneDrawOracle) {
  expect_gate_matches_oracle(MoveTopology::kRing);
}

TEST(MarkovGate, HomeRingMatchesOneDrawOracle) {
  expect_gate_matches_oracle(MoveTopology::kHomeRing);
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

TEST(MobilityParallel, WaypointMoversMatchDiff) {
  WaypointConfig cfg;
  cfg.num_devices = 60;
  cfg.num_edges = 9;
  cfg.speed_max = 120.0;
  RandomWaypointMobility model(cfg);
  for (int t = 0; t < 20; ++t) {
    const auto before = model.assignment();
    model.advance();
    expect_movers_contract(model, before);
  }
  model.reset();
  ASSERT_NE(model.movers(), nullptr);
  EXPECT_TRUE(model.movers()->empty());
}

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
