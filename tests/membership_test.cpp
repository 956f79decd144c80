// Incremental edge membership: Simulation keeps one bit row per edge
// (core::EdgeMembership) and flips two bits per mover instead of
// rescanning the fleet.
//
//  - EdgeMembership: the rows against per-edge id lists rebuilt from
//    scratch after random move sequences (counts, ascending iteration,
//    rank lookup across word and block boundaries, empty edges, ragged n).
//  - Rank-mapped selection: random selection over the ranks 0..count-1,
//    mapped through at_ranks, picks exactly the ids (in the same order)
//    it picks from the ascending member ids; at_ranks rejects ranks that
//    are not strictly ascending.
//  - MembershipIncremental: after every simulation step the rows are
//    exactly what a full rebuild from the assignment would produce: same
//    devices, same edges, ascending by id, each device on exactly one
//    edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/edge_membership.hpp"
#include "core/selection.hpp"
#include "mobility/markov_mobility.hpp"
#include "optim/sgd.hpp"
#include "parallel/rng.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::core::EdgeMembership;
using middlefl::core::RandomSelection;
using middlefl::core::Simulation;
using middlefl::mobility::MarkovMobility;
using middlefl::mobility::MoveTopology;
using middlefl::parallel::Xoshiro256;
using middlefl::testing::SimBundle;

std::vector<std::vector<std::size_t>> rebuild_members(
    const std::vector<std::size_t>& assignment, std::size_t num_edges) {
  std::vector<std::vector<std::size_t>> members(num_edges);
  for (std::size_t m = 0; m < assignment.size(); ++m) {
    members[assignment[m]].push_back(m);
  }
  return members;
}

/// Checks every EdgeMembership view against lists rebuilt from scratch.
void expect_rows_match_lists(const EdgeMembership& rows,
                             const std::vector<std::size_t>& assignment,
                             std::size_t num_edges, const char* where) {
  const auto lists = rebuild_members(assignment, num_edges);
  ASSERT_EQ(rows.num_edges(), num_edges) << where;
  ASSERT_EQ(rows.num_devices(), assignment.size()) << where;
  std::size_t widest = 0;
  for (std::size_t e = 0; e < num_edges; ++e) {
    const auto& list = lists[e];
    widest = std::max(widest, list.size());
    ASSERT_EQ(rows.count(e), list.size()) << where << " edge " << e;
    ASSERT_EQ(rows.members(e), list) << where << " edge " << e;
    std::vector<std::size_t> walked;
    rows.for_each(e, [&](std::size_t m) { walked.push_back(m); });
    ASSERT_EQ(walked, list) << where << " edge " << e;
    // Ranks around the first word boundary, the middle and the last one,
    // ascending as at_ranks requires (the middle and last cross 4096-device
    // blocks on the larger fleets).
    std::vector<std::size_t> ranks;
    for (const std::size_t r : {std::size_t{0}, std::size_t{63},
                                std::size_t{64}, list.size() / 2,
                                list.size() / 2 + 1, list.size() - 1}) {
      if (r < list.size() && (ranks.empty() || r > ranks.back())) {
        ranks.push_back(r);
      }
    }
    std::vector<std::size_t> expected;
    for (const std::size_t r : ranks) expected.push_back(list[r]);
    rows.at_ranks(e, ranks);
    ASSERT_EQ(ranks, expected) << where << " edge " << e;
    std::vector<std::size_t> past_end{list.size()};
    EXPECT_THROW(rows.at_ranks(e, past_end), std::out_of_range)
        << where << " edge " << e;
  }
  ASSERT_EQ(rows.max_count(), widest) << where;
}

TEST(EdgeMembership, RandomMovesMatchListRebuild) {
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u, 1000u, 4097u, 12300u}) {
    for (const std::size_t num_edges : {1u, 3u, 9u}) {
      Xoshiro256 rng(n * 131 + num_edges);
      // Start with the last edge empty (when there is more than one).
      std::vector<std::size_t> assignment(n);
      const std::size_t seeded_edges = num_edges > 1 ? num_edges - 1 : 1;
      for (auto& e : assignment) e = rng.bounded(seeded_edges);
      EdgeMembership rows;
      rows.rebuild(num_edges, assignment);
      expect_rows_match_lists(rows, assignment, num_edges, "rebuild");
      for (int round = 0; round < 25; ++round) {
        const std::size_t moves = rng.bounded(n / 4 + 2);
        for (std::size_t i = 0; i < moves; ++i) {
          const std::size_t m = rng.bounded(n);
          const std::size_t to = rng.bounded(num_edges);
          if (to == assignment[m]) continue;
          rows.move(m, assignment[m], to);
          assignment[m] = to;
        }
        if (round == 10) {
          // Drain edge 0 completely.
          for (std::size_t m = 0; m < n && num_edges > 1; ++m) {
            if (assignment[m] != 0) continue;
            rows.move(m, 0, 1);
            assignment[m] = 1;
          }
        }
        expect_rows_match_lists(rows, assignment, num_edges, "moves");
      }
    }
  }
}

TEST(EdgeMembership, RankMappedRandomSelectionMatchesIds) {
  // The position contract of select_ids: picking from the ranks
  // 0..count-1 and mapping them through at_ranks gives the ids, in the
  // order, that picking from the ascending member ids gives, and makes the
  // same draws.
  const RandomSelection strategy;
  constexpr std::size_t kDevices = 700;
  Xoshiro256 placement(17);
  for (std::size_t count = 0; count <= 300; ++count) {
    // `count` devices scattered over edge 0, the rest on edge 1.
    std::vector<std::size_t> assignment(kDevices, 1);
    std::vector<std::size_t> order(kDevices);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), placement);
    for (std::size_t i = 0; i < count; ++i) assignment[order[i]] = 0;
    EdgeMembership rows;
    rows.rebuild(2, assignment);
    const std::vector<std::size_t> ids = rows.members(0);
    std::vector<std::size_t> ranks(count);
    std::iota(ranks.begin(), ranks.end(), 0);
    for (const std::size_t k : {std::size_t{1}, std::size_t{4}, count + 1}) {
      Xoshiro256 rng_ids(count * 7 + k);
      Xoshiro256 rng_ranks(count * 7 + k);
      const auto direct = strategy.select_ids(ids, k, rng_ids);
      auto mapped = strategy.select_ids(ranks, k, rng_ranks);
      rows.at_ranks(0, mapped);
      ASSERT_EQ(mapped, direct) << "count " << count << " k " << k;
      ASSERT_EQ(rng_ids(), rng_ranks()) << "count " << count << " k " << k;
    }
    if (count >= 2) {
      // at_ranks leans on the ascending order random selection returns: a
      // repeated or descending rank is rejected, not silently mis-mapped.
      std::vector<std::size_t> descending{count - 1, 0};
      EXPECT_THROW(rows.at_ranks(0, descending), std::invalid_argument)
          << "count " << count;
      std::vector<std::size_t> repeated{0, 0};
      EXPECT_THROW(rows.at_ranks(0, repeated), std::invalid_argument)
          << "count " << count;
    }
  }
}

/// Steps the simulation to completion, checking the incremental membership
/// against a from-scratch rebuild after every step.
void expect_members_match_rebuild(const SimBundle& bundle,
                                  Algorithm algorithm, MoveTopology topology,
                                  double mobility_p, double home_bias) {
  auto mobility = std::make_unique<MarkovMobility>(
      bundle.initial_edges, bundle.num_edges, mobility_p, bundle.seed + 1);
  mobility->set_topology(topology, home_bias);
  const middlefl::optim::Sgd sgd(
      {.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 0.0});
  Simulation sim(bundle.cfg, bundle.model_spec, sgd, bundle.train,
                 bundle.partition, bundle.test, std::move(mobility),
                 middlefl::core::make_algorithm(algorithm));
  for (std::size_t t = 0; t < bundle.cfg.total_steps; ++t) {
    sim.step();
    const auto expected = rebuild_members(sim.assignment(), sim.num_edges());
    ASSERT_EQ(sim.edge_members(), expected) << "step " << t;
    // Partition check: ascending lists covering every device exactly once.
    std::size_t covered = 0;
    for (const auto& list : sim.edge_members()) {
      EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
      covered += list.size();
    }
    EXPECT_EQ(covered, sim.num_devices()) << "step " << t;
  }
}

TEST(MembershipIncremental, HomeRingChurnMatchesRebuild) {
  // Commuter pattern: a steady minority of devices moves each step, and
  // each mover's two bit flips must keep the rows exact.
  SimBundle bundle(4, 60, 6);
  bundle.cfg.total_steps = 25;
  bundle.cfg.eval_every = 25;
  expect_members_match_rebuild(bundle, Algorithm::kMiddle,
                               MoveTopology::kHomeRing, 0.4, 0.6);
}

TEST(MembershipIncremental, HeavyUniformChurnMatchesRebuild) {
  // P = 0.9 moves nearly everyone. There is no rebuild crossover: even
  // this churn runs through per-mover bit flips, which must land on the
  // same lists as a rebuild.
  SimBundle bundle(4, 40, 5);
  bundle.cfg.total_steps = 15;
  bundle.cfg.eval_every = 15;
  expect_members_match_rebuild(bundle, Algorithm::kFedMes,
                               MoveTopology::kUniform, 0.9, 0.0);
}

TEST(MembershipIncremental, StationaryFleetMatchesRebuild) {
  // P = 0: after the first build no mover delta ever arrives; the lists
  // must simply persist unchanged.
  SimBundle bundle(4, 30, 3);
  bundle.cfg.total_steps = 10;
  bundle.cfg.eval_every = 10;
  expect_members_match_rebuild(bundle, Algorithm::kHierFavg,
                               MoveTopology::kUniform, 0.0, 0.0);
}

}  // namespace
