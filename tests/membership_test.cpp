// Incremental edge membership: Simulation keeps one bit row per edge and
// each device's edge (core::EdgeMembership) and flips two bits per mover
// instead of rescanning the fleet.
//
//  - EdgeMembership: the rows against per-edge id lists rebuilt from
//    scratch after random apply sequences, with mover lists and with the
//    diff (counts, ascending iteration, rank lookup across word and block
//    boundaries, a drained edge, ragged n), and previous_edge for every
//    device against the assignment before each apply; the 65,536-edge
//    limit and malformed mover lists are rejected, also above the shard
//    grain on a pool (a misplaced id in another shard's blocks, a descent
//    where a shard starts, ids past the fleet, an edge past the last).
//  - Sharded apply: on a ragged 300,001-device fleet under Markov mobility
//    (uniform and home-ring, P = 0.1 and 0.9), and for one full block, three
//    full blocks and an empty list, rows on pools of 1, 2, 3 and 8 workers
//    equal rows with no pool in every view: member lists, counts, at_ranks
//    around every block boundary, movers, previous_edge and edge_of.
//  - Rank-mapped selection: random selection over the ranks 0..count-1,
//    mapped through at_ranks, picks exactly the ids (in the same order)
//    it picks from the ascending member ids; at_ranks rejects ranks that
//    are not strictly ascending.
//  - MembershipIncremental: after every simulation step the rows are
//    exactly what a full rebuild from the assignment would produce: same
//    devices, same edges, ascending by id, each device on exactly one
//    edge; and previous_edge is the pre-advance edge (all three
//    topologies).
//  - MembershipUntracked: a model that reports no movers (the diff path)
//    runs bitwise equal to the same model reporting them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/edge_membership.hpp"
#include "core/selection.hpp"
#include "mobility/markov_mobility.hpp"
#include "mobility/mobility_model.hpp"
#include "optim/sgd.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::core::EdgeMembership;
using middlefl::core::RandomSelection;
using middlefl::core::Simulation;
using middlefl::mobility::MarkovMobility;
using middlefl::mobility::MobilityModel;
using middlefl::mobility::moved_devices;
using middlefl::mobility::MoveTopology;
using middlefl::parallel::ThreadPool;
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

/// Checks what apply recorded: the movers, where each device sat before
/// (`before`) and where it sits now.
void expect_moves_recorded(const EdgeMembership& rows,
                           const std::vector<std::size_t>& before,
                           const std::vector<std::size_t>& after,
                           const std::vector<std::size_t>& movers,
                           const char* where) {
  ASSERT_EQ(std::vector<std::size_t>(rows.movers().begin(),
                                     rows.movers().end()),
            movers)
      << where;
  for (std::size_t m = 0; m < before.size(); ++m) {
    ASSERT_EQ(rows.previous_edge(m), before[m]) << where << " device " << m;
    ASSERT_EQ(rows.edge_of(m), after[m]) << where << " device " << m;
  }
}

TEST(EdgeMembership, RandomMovesMatchListRebuild) {
  // Ragged fleets around the word and 4096-device block boundaries. Even
  // rounds hand apply an ascending mover list (some listed devices keep
  // their edge); odd rounds let it diff the assignment, as it does for a
  // model that reports no movers.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u, 1000u, 4095u, 4096u,
                              4097u, 4098u, 8193u, 12300u}) {
    for (const std::size_t num_edges : {1u, 3u, 9u}) {
      Xoshiro256 rng(n * 131 + num_edges);
      // Start with the last edge empty (when there is more than one).
      std::vector<std::size_t> assignment(n);
      const std::size_t seeded_edges = num_edges > 1 ? num_edges - 1 : 1;
      for (auto& e : assignment) e = rng.bounded(seeded_edges);
      EdgeMembership rows;
      rows.rebuild(num_edges, assignment);
      expect_rows_match_lists(rows, assignment, num_edges, "rebuild");
      expect_moves_recorded(rows, assignment, assignment, {}, "rebuild");
      for (int round = 0; round < 25; ++round) {
        const std::vector<std::size_t> before = assignment;
        std::vector<std::size_t> listed;
        const std::size_t moves = rng.bounded(n / 4 + 2);
        for (std::size_t i = 0; i < moves; ++i) {
          listed.push_back(rng.bounded(n));
        }
        if (round % 3 == 0) {
          // The devices on either side of the first block boundary, and
          // the last device (the ragged tail of the last block).
          for (const std::size_t m : {std::size_t{4095}, std::size_t{4096},
                                      std::size_t{4097}, n - 1}) {
            if (m < n) listed.push_back(m);
          }
        }
        std::sort(listed.begin(), listed.end());
        listed.erase(std::unique(listed.begin(), listed.end()), listed.end());
        for (const std::size_t m : listed) {
          assignment[m] = rng.bounded(num_edges);
        }
        if (round == 10 && num_edges > 1) {
          // Drain edge 0 completely.
          for (std::size_t m = 0; m < n; ++m) {
            if (assignment[m] == 0) assignment[m] = 1;
          }
          listed.clear();
          for (std::size_t m = 0; m < n; ++m) {
            if (assignment[m] != before[m] ||
                rng.bounded(8) == 0) {  // some unchanged devices too
              listed.push_back(m);
            }
          }
        }
        std::vector<std::size_t> movers;
        if (round % 2 == 0) {
          rows.apply(listed, assignment);
          movers = listed;
        } else {
          rows.apply(assignment);
          movers = moved_devices(before, assignment);
        }
        const char* where = round % 2 == 0 ? "mover apply" : "diff apply";
        expect_rows_match_lists(rows, assignment, num_edges, where);
        expect_moves_recorded(rows, before, assignment, movers, where);
        if (round == 10 && num_edges > 1) {
          ASSERT_EQ(rows.count(0), 0u);
        }
      }
    }
  }
}

TEST(EdgeMembership, RejectsEdgesPastTheMapAndBadMovers) {
  constexpr std::size_t kMax = EdgeMembership::kMaxEdges;
  EdgeMembership rows;
  EXPECT_THROW(rows.rebuild(kMax + 1, std::vector<std::size_t>{0}),
               std::invalid_argument);
  // The widest map still names every edge, the last one included.
  std::vector<std::size_t> assignment{0, kMax - 1, 5};
  rows.rebuild(kMax, assignment);
  EXPECT_EQ(rows.edge_of(1), kMax - 1);
  const std::vector<std::size_t> before = assignment;
  assignment[0] = kMax - 1;
  assignment[1] = 0;
  rows.apply(std::vector<std::size_t>{0, 1}, assignment);
  expect_moves_recorded(rows, before, assignment, {0, 1}, "widest map");
  EXPECT_EQ(rows.count(0), 1u);
  EXPECT_EQ(rows.count(kMax - 1), 1u);

  EXPECT_THROW(rows.rebuild(3, std::vector<std::size_t>{0, 3}),
               std::out_of_range);
  assignment = {0, 1, 2, 0};
  rows.rebuild(3, assignment);
  EXPECT_THROW(rows.apply(std::vector<std::size_t>{2, 1}, assignment),
               std::invalid_argument);
  EXPECT_THROW(rows.apply(std::vector<std::size_t>{1, 1}, assignment),
               std::invalid_argument);
  EXPECT_THROW(rows.apply(std::vector<std::size_t>{4}, assignment),
               std::out_of_range);
  EXPECT_THROW(rows.apply(std::vector<std::size_t>{0},
                          std::vector<std::size_t>{0, 1, 2}),
               std::invalid_argument);
  EXPECT_THROW(rows.apply(std::vector<std::size_t>{0, 1, 2}),
               std::invalid_argument);
  rows.rebuild(3, assignment);
  assignment[1] = 3;
  EXPECT_THROW(rows.apply(std::vector<std::size_t>{1}, assignment),
               std::out_of_range);
  rows.rebuild(3, std::vector<std::size_t>{0, 1, 2, 0});
  EXPECT_THROW(rows.apply(assignment), std::out_of_range);

  // Lists above the shard grain, on a pool: every third device of 100,000
  // is 33,334 movers in 8 shards, the first starting at index 33,334 / 8.
  constexpr std::size_t kDevices = 100'000;
  ThreadPool pool(2);
  rows.set_pool(&pool);
  std::vector<std::size_t> fleet(kDevices);
  for (std::size_t m = 0; m < kDevices; ++m) fleet[m] = m % 4;
  std::vector<std::size_t> moved_fleet = fleet;
  std::vector<std::size_t> every_third;
  for (std::size_t m = 0; m < kDevices; m += 3) {
    every_third.push_back(m);
    moved_fleet[m] = (m + 1) % 4;
  }
  const std::size_t first_split = every_third.size() / 8;
  const auto expect_rejected = [&](std::vector<std::size_t> movers,
                                   const std::vector<std::size_t>& target,
                                   bool out_of_range, const char* what) {
    rows.rebuild(4, fleet);
    if (out_of_range) {
      EXPECT_THROW(rows.apply(movers, target), std::out_of_range) << what;
    } else {
      EXPECT_THROW(rows.apply(movers, target), std::invalid_argument) << what;
    }
  };
  auto swapped = every_third;
  std::swap(swapped[20'000], swapped[20'001]);
  expect_rejected(swapped, moved_fleet, false, "adjacent pair swapped");
  // A misplaced id inside the first shard that lies in the last shard's
  // blocks (the first shard must not write them), and one from block 0
  // inside the last shard.
  auto reaching = every_third;
  reaching[100] = 99'000;
  expect_rejected(reaching, moved_fleet, false, "id in a later shard's blocks");
  auto falling = every_third;
  falling[every_third.size() - 10] = 7;
  expect_rejected(falling, moved_fleet, false, "id in an earlier block");
  // A small id where the first shard boundary falls: the split itself
  // sees the list descend.
  auto at_split = every_third;
  at_split[first_split] = 5;
  expect_rejected(at_split, moved_fleet, false, "descent at a shard start");
  auto repeated = every_third;
  repeated[first_split] = repeated[first_split - 1];
  expect_rejected(repeated, moved_fleet, false, "repeat at a shard start");
  // Ids past the fleet, at the end and from the middle on (still
  // ascending), and an edge past the last in a middle shard.
  auto past_end = every_third;
  past_end.back() = kDevices + 7;
  expect_rejected(past_end, moved_fleet, true, "last id past the fleet");
  auto tail_past_end = every_third;
  for (std::size_t i = 20'000; i < tail_past_end.size(); ++i) {
    tail_past_end[i] = kDevices + i;
  }
  expect_rejected(tail_past_end, moved_fleet, true, "ids past the fleet");
  auto bad_edge = moved_fleet;
  bad_edge[every_third[20'000]] = 4;
  expect_rejected(every_third, bad_edge, true, "edge past the last");
  // One id past the fleet and one edge past the last, each in the last
  // shard and more than the prefetch distance before the list's end, so
  // the shard looks ahead at them first. Pooled and inline.
  const std::size_t near_end = every_third.size() - 100;
  auto lone_past_end = every_third;
  lone_past_end[near_end] = kDevices + 7;
  auto late_bad_edge = moved_fleet;
  late_bad_edge[every_third[near_end]] = 4;
  for (ThreadPool* shards : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    rows.set_pool(shards);
    expect_rejected(lone_past_end, moved_fleet, true, "lone id past the fleet");
    expect_rejected(every_third, late_bad_edge, true, "late edge past the last");
  }
  rows.set_pool(&pool);
  // The same fleet and list, well formed, still applies.
  rows.rebuild(4, fleet);
  rows.apply(every_third, moved_fleet);
  expect_rows_match_lists(rows, moved_fleet, 4, "sharded after rejects");
  expect_moves_recorded(rows, fleet, moved_fleet, every_third,
                        "sharded after rejects");
}

/// Applies the same mover lists to rows with no pool and to rows on
/// pools of 1, 2, 3 and 8 workers, and compares every view.
class ShardedRows {
 public:
  ShardedRows() {
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      pools_.push_back(std::make_unique<ThreadPool>(threads));
    }
    pooled_.resize(pools_.size());
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      pooled_[p].set_pool(pools_[p].get());
    }
  }

  void rebuild(std::size_t num_edges,
               const std::vector<std::size_t>& assignment) {
    inline_.rebuild(num_edges, assignment);
    for (auto& rows : pooled_) rows.rebuild(num_edges, assignment);
  }

  void apply(std::span<const std::size_t> movers,
             const std::vector<std::size_t>& assignment) {
    inline_.apply(movers, assignment);
    for (auto& rows : pooled_) rows.apply(movers, assignment);
  }

  const EdgeMembership& reference() const { return inline_; }

  /// The counts and movers of every pooled instance equal the inline ones.
  void expect_counts_equal(const char* where) const {
    for (std::size_t p = 0; p < pooled_.size(); ++p) {
      const EdgeMembership& rows = pooled_[p];
      const std::size_t threads = pools_[p]->size();
      for (std::size_t e = 0; e < inline_.num_edges(); ++e) {
        ASSERT_EQ(rows.count(e), inline_.count(e))
            << where << " threads " << threads << " edge " << e;
      }
      ASSERT_TRUE(std::ranges::equal(rows.movers(), inline_.movers()))
          << where << " threads " << threads;
    }
  }

  /// Every pooled view equals the inline one: the rows (as member lists),
  /// the counts, at_ranks on both sides of every block boundary, the
  /// movers and previous_edge of every device.
  void expect_equal(const char* where) const {
    const Views expected = views(inline_);
    for (std::size_t p = 0; p < pooled_.size(); ++p) {
      const Views got = views(pooled_[p]);
      const std::size_t threads = pools_[p]->size();
      ASSERT_EQ(got.counts, expected.counts) << where << " threads " << threads;
      ASSERT_EQ(got.max_count, expected.max_count)
          << where << " threads " << threads;
      ASSERT_EQ(got.ranked, expected.ranked)
          << where << " threads " << threads;
      ASSERT_EQ(first_difference(got.members, expected.members),
                expected.members.size())
          << where << " threads " << threads << ": member lists differ";
      ASSERT_EQ(first_difference(got.movers, expected.movers),
                expected.movers.size())
          << where << " threads " << threads << ": movers differ";
      ASSERT_EQ(first_difference(got.previous, expected.previous),
                expected.previous.size())
          << where << " threads " << threads << ": previous_edge differs";
      ASSERT_EQ(first_difference(got.edge_of, expected.edge_of),
                expected.edge_of.size())
          << where << " threads " << threads << ": edge_of differs";
    }
  }

 private:
  struct Views {
    std::vector<std::size_t> counts;
    std::size_t max_count = 0;
    /// Every edge's members, one list after the other.
    std::vector<std::size_t> members;
    /// at_ranks of the ranks just below and at each block boundary.
    std::vector<std::vector<std::size_t>> ranked;
    std::vector<std::size_t> movers;
    std::vector<std::size_t> previous;
    std::vector<std::size_t> edge_of;
  };

  static Views views(const EdgeMembership& rows) {
    Views v;
    const std::size_t n = rows.num_devices();
    v.max_count = rows.max_count();
    for (std::size_t e = 0; e < rows.num_edges(); ++e) {
      v.counts.push_back(rows.count(e));
      const auto list = rows.members(e);
      v.members.insert(v.members.end(), list.begin(), list.end());
      std::vector<std::size_t> ranks;
      for (std::size_t boundary = 4096; boundary < n; boundary += 4096) {
        const auto below = static_cast<std::size_t>(
            std::lower_bound(list.begin(), list.end(), boundary) -
            list.begin());
        for (const std::size_t r : {below - 1, below}) {
          if (below > 0 && r < list.size() &&
              (ranks.empty() || r > ranks.back())) {
            ranks.push_back(r);
          }
        }
      }
      rows.at_ranks(e, ranks);
      v.ranked.push_back(std::move(ranks));
    }
    v.movers.assign(rows.movers().begin(), rows.movers().end());
    v.previous.resize(n);
    v.edge_of.resize(n);
    for (std::size_t m = 0; m < n; ++m) {
      v.previous[m] = rows.previous_edge(m);
      v.edge_of[m] = rows.edge_of(m);
    }
    return v;
  }

  /// The first index where `a` and `b` differ, or b.size() when equal.
  static std::size_t first_difference(const std::vector<std::size_t>& a,
                                      const std::vector<std::size_t>& b) {
    if (a.size() != b.size()) return std::min(a.size(), b.size());
    return static_cast<std::size_t>(
        std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
  }

  std::vector<std::unique_ptr<ThreadPool>> pools_;
  EdgeMembership inline_;
  std::vector<EdgeMembership> pooled_;
};

TEST(EdgeMembership, ShardedApplyMatchesInline) {
  // A ragged fleet (300,001 devices, not a multiple of 4096) under Markov
  // mobility: P = 0.1 moves ~30k devices a step (7 shards), P = 0.9 moves
  // ~270k (the 64-shard cap).
  constexpr std::size_t kDevices = 300'001;
  constexpr std::size_t kEdges = 8;
  std::vector<std::size_t> initial(kDevices);
  Xoshiro256 rng(7);
  for (auto& e : initial) e = rng.bounded(kEdges);
  for (const MoveTopology topology :
       {MoveTopology::kUniform, MoveTopology::kHomeRing}) {
    for (const double p : {0.1, 0.9}) {
      MarkovMobility mobility(initial, kEdges, p, 21);
      mobility.set_topology(topology, 0.5);
      ShardedRows rows;
      rows.rebuild(kEdges, mobility.assignment());
      for (int step = 0; step < 20; ++step) {
        mobility.advance();
        rows.apply(*mobility.movers(), mobility.assignment());
        // A sweep of every view costs ~100 ms a step at P = 0.9 (a binary
        // search per device for previous_edge), so three steps get it.
        if (step == 0 || step == 9 || step == 19) {
          ASSERT_NO_FATAL_FAILURE(rows.expect_equal("markov step"));
        } else {
          ASSERT_NO_FATAL_FAILURE(rows.expect_counts_equal("markov step"));
        }
      }
      expect_rows_match_lists(rows.reference(), mobility.assignment(),
                              kEdges, "markov after 20 steps");
    }
  }

  // Every device of one block moves (one shard), then every device of
  // blocks 3 to 5 (three shards of one full block each), then nothing.
  std::vector<std::size_t> assignment = initial;
  ShardedRows rows;
  rows.rebuild(kEdges, assignment);
  const auto move_blocks = [&](std::size_t first, std::size_t last) {
    std::vector<std::size_t> movers;
    for (std::size_t m = first * 4096; m < (last + 1) * 4096; ++m) {
      assignment[m] = (assignment[m] + 1 + m % 3) % kEdges;
      movers.push_back(m);
    }
    rows.apply(movers, assignment);
  };
  move_blocks(7, 7);
  ASSERT_NO_FATAL_FAILURE(rows.expect_equal("one block"));
  move_blocks(3, 5);
  ASSERT_NO_FATAL_FAILURE(rows.expect_equal("three full blocks"));
  rows.apply({}, assignment);
  ASSERT_NO_FATAL_FAILURE(rows.expect_equal("empty list"));
  expect_rows_match_lists(rows.reference(), assignment, kEdges, "blocks");
  EXPECT_TRUE(rows.reference().movers().empty());
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

std::unique_ptr<Simulation> make_sim(
    const SimBundle& bundle, Algorithm algorithm,
    std::unique_ptr<MobilityModel> mobility) {
  const middlefl::optim::Sgd sgd(
      {.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 0.0});
  return std::make_unique<Simulation>(
      bundle.cfg, bundle.model_spec, sgd, bundle.train, bundle.partition,
      bundle.test, std::move(mobility),
      middlefl::core::make_algorithm(algorithm));
}

std::unique_ptr<MarkovMobility> make_markov(const SimBundle& bundle,
                                            MoveTopology topology,
                                            double mobility_p,
                                            double home_bias) {
  auto mobility = std::make_unique<MarkovMobility>(
      bundle.initial_edges, bundle.num_edges, mobility_p, bundle.seed + 1);
  mobility->set_topology(topology, home_bias);
  return mobility;
}

/// Steps the simulation to completion, checking the incremental membership
/// against a from-scratch rebuild after every step, and each device's
/// previous edge against the assignment before the step's advance.
void expect_members_match_rebuild(const SimBundle& bundle,
                                  Algorithm algorithm, MoveTopology topology,
                                  double mobility_p, double home_bias) {
  auto sim = make_sim(bundle, algorithm,
                      make_markov(bundle, topology, mobility_p, home_bias));
  for (std::size_t t = 0; t < bundle.cfg.total_steps; ++t) {
    const std::vector<std::size_t> before = sim->assignment();
    sim->step();
    const auto expected = rebuild_members(sim->assignment(), sim->num_edges());
    ASSERT_EQ(sim->edge_members(), expected) << "step " << t;
    // Partition check: ascending lists covering every device exactly once.
    std::size_t covered = 0;
    for (const auto& list : sim->edge_members()) {
      EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
      covered += list.size();
    }
    EXPECT_EQ(covered, sim->num_devices()) << "step " << t;
    expect_moves_recorded(
        sim->membership(), before, sim->assignment(),
        moved_devices(before, sim->assignment()), "step");
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

TEST(MembershipIncremental, RingChurnMatchesRebuild) {
  // Neighbour-only moves: every mover lands one edge over.
  SimBundle bundle(4, 50, 5);
  bundle.cfg.total_steps = 20;
  bundle.cfg.eval_every = 20;
  expect_members_match_rebuild(bundle, Algorithm::kMiddle, MoveTopology::kRing,
                               0.5, 0.0);
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

/// A model that forwards everything but reports no movers, so the
/// simulator must find them by diffing the assignment.
class UntrackedMobility final : public MobilityModel {
 public:
  explicit UntrackedMobility(
      std::unique_ptr<MobilityModel> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::size_t num_devices() const override { return inner_->num_devices(); }
  std::size_t num_edges() const override { return inner_->num_edges(); }
  const std::vector<std::size_t>& assignment() const override {
    return inner_->assignment();
  }
  void advance() override { inner_->advance(); }
  void set_pool(middlefl::parallel::ThreadPool* pool) override {
    inner_->set_pool(pool);
  }
  void reset() override { inner_->reset(); }
  std::size_t step() const override { return inner_->step(); }

 private:
  std::unique_ptr<MobilityModel> inner_;
};

std::vector<std::uint32_t> param_bits(std::span<const float> params) {
  std::vector<std::uint32_t> bits;
  bits.reserve(params.size());
  for (const float p : params) bits.push_back(std::bit_cast<std::uint32_t>(p));
  return bits;
}

/// Runs the same simulation with the tracked model and with it wrapped as
/// untracked; the whole runs must be bitwise equal.
void expect_untracked_matches_tracked(const SimBundle& bundle,
                                      Algorithm algorithm,
                                      MoveTopology topology, double mobility_p,
                                      double home_bias) {
  auto tracked = make_sim(bundle, algorithm,
                          make_markov(bundle, topology, mobility_p, home_bias));
  auto untracked =
      make_sim(bundle, algorithm,
               std::make_unique<UntrackedMobility>(
                   make_markov(bundle, topology, mobility_p, home_bias)));
  std::size_t moves = 0;
  for (std::size_t t = 0; t < bundle.cfg.total_steps; ++t) {
    tracked->step();
    untracked->step();
    ASSERT_EQ(untracked->edge_members(), tracked->edge_members())
        << "step " << t;
    const auto movers = tracked->membership().movers();
    ASSERT_TRUE(std::ranges::equal(untracked->membership().movers(), movers))
        << "step " << t;
    moves += movers.size();
  }
  EXPECT_GT(moves, 0u);
  EXPECT_EQ(param_bits(untracked->cloud_params()),
            param_bits(tracked->cloud_params()));
  const auto a = tracked->comm_stats();
  const auto b = untracked->comm_stats();
  EXPECT_EQ(b.device_downloads, a.device_downloads);
  EXPECT_EQ(b.device_uploads, a.device_uploads);
  EXPECT_EQ(b.edge_uploads, a.edge_uploads);
  EXPECT_EQ(b.edge_downloads, a.edge_downloads);
  EXPECT_EQ(b.device_broadcasts, a.device_broadcasts);
}

TEST(MembershipUntracked, MiddleHomeRingMatchesTracked) {
  SimBundle bundle(4, 60, 6);
  bundle.cfg.total_steps = 20;
  bundle.cfg.eval_every = 20;
  expect_untracked_matches_tracked(bundle, Algorithm::kMiddle,
                                   MoveTopology::kHomeRing, 0.4, 0.6);
}

TEST(MembershipUntracked, FedMesUniformMatchesTracked) {
  // FedMes reads previous_edge for its extra download, so a wrong diff
  // would show in the downloads as well as in the model.
  SimBundle bundle(4, 40, 5);
  bundle.cfg.total_steps = 15;
  bundle.cfg.eval_every = 15;
  expect_untracked_matches_tracked(bundle, Algorithm::kFedMes,
                                   MoveTopology::kUniform, 0.9, 0.0);
}

}  // namespace
