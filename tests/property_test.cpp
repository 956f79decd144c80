// Parameterized property sweeps over the core invariants:
//   - the all_reduce weighted average stays in the convex hull and is
//     weight-scale invariant for random inputs;
//   - the Eq. 9 blend never weights the local model above 1/2, for any
//     random model pair;
//   - every selection strategy obeys the K / membership / determinism
//     contract across K values;
//   - Markov mobility matches its nominal P across (P, topology);
//   - the full simulation keeps its structural invariants for EVERY
//     algorithm (partition of devices, finite losses, aligned models after
//     sync).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "comm/communicator.hpp"
#include "core/similarity.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::parallel::Xoshiro256;
using middlefl::testing::SimBundle;

// --- weighted average (all_reduce) properties ---

class WeightedAverageProperty : public ::testing::TestWithParam<int> {};

TEST_P(WeightedAverageProperty, ConvexHullAndScaleInvariance) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t models = 2 + rng.bounded(8);
  const std::size_t dim = 1 + rng.bounded(64);
  std::vector<std::vector<float>> storage(models);
  std::vector<middlefl::comm::Contribution> weighted;
  std::vector<middlefl::comm::Contribution> scaled;
  for (auto& params : storage) {
    params.resize(dim);
    for (auto& p : params) p = static_cast<float>(rng.normal());
  }
  for (std::size_t i = 0; i < models; ++i) {
    const double w = 0.1 + rng.uniform() * 5.0;
    weighted.push_back({storage[i], w});
    scaled.push_back({storage[i], w * 17.0});
  }
  middlefl::comm::InProcessCommunicator comm(nullptr);
  std::vector<float> avg(dim), avg_scaled(dim);
  comm.all_reduce(weighted, avg);
  comm.all_reduce(scaled, avg_scaled);
  for (std::size_t d = 0; d < dim; ++d) {
    float lo = storage[0][d], hi = storage[0][d];
    for (const auto& params : storage) {
      lo = std::min(lo, params[d]);
      hi = std::max(hi, params[d]);
    }
    EXPECT_GE(avg[d], lo - 1e-4f);
    EXPECT_LE(avg[d], hi + 1e-4f);
    EXPECT_NEAR(avg[d], avg_scaled[d], 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, WeightedAverageProperty,
                         ::testing::Range(1, 13));

// --- Eq. 9 blend properties ---

class BlendProperty : public ::testing::TestWithParam<int> {};

TEST_P(BlendProperty, LocalWeightNeverExceedsHalf) {
  Xoshiro256 rng(100 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t dim = 2 + rng.bounded(128);
  std::vector<float> edge(dim), local(dim), out(dim);
  for (auto& v : edge) v = static_cast<float>(rng.normal());
  for (auto& v : local) v = static_cast<float>(rng.normal());
  const double weight = middlefl::core::on_device_aggregate(edge, local, out);
  EXPECT_GE(weight, 0.0);
  EXPECT_LE(weight, 0.5 + 1e-12);
  // Blend must lie on the segment between the two models.
  for (std::size_t d = 0; d < dim; ++d) {
    const float lo = std::min(edge[d], local[d]);
    const float hi = std::max(edge[d], local[d]);
    EXPECT_GE(out[d], lo - 1e-4f);
    EXPECT_LE(out[d], hi + 1e-4f);
  }
}

TEST_P(BlendProperty, MatchesManualFormula) {
  Xoshiro256 rng(200 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t dim = 2 + rng.bounded(32);
  std::vector<float> edge(dim), local(dim), out(dim);
  for (auto& v : edge) v = static_cast<float>(rng.normal());
  for (auto& v : local) v = static_cast<float>(rng.normal());
  middlefl::core::on_device_aggregate(edge, local, out);
  const double u = middlefl::core::similarity_utility(local, edge);
  for (std::size_t d = 0; d < dim; ++d) {
    const double expected =
        edge[d] / (1.0 + u) + local[d] * u / (1.0 + u);
    EXPECT_NEAR(out[d], expected, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BlendProperty,
                         ::testing::Range(1, 13));

// --- selection contract across strategies and K ---

// gtest prints a param struct as its raw bytes and ctest registers each case
// under that printout, so the two param structs below spell out their
// alignment gap as `name_tag`: left as padding, the gap held stack garbage
// and the case names changed from one build to the next. The tag values pin
// the names the cases are registered under; the tests never read them.
struct SelectionCase {
  int strategy;  // 0 random, 1 stat, 2 similarity
  std::uint32_t name_tag;
  std::size_t k;
};
static_assert(sizeof(SelectionCase) == 16, "no padding left to print");

class SelectionContract : public ::testing::TestWithParam<SelectionCase> {};

TEST_P(SelectionContract, KBoundMembershipDeterminism) {
  const auto& param = GetParam();
  std::unique_ptr<middlefl::core::SelectionStrategy> strategy;
  switch (param.strategy) {
    case 0: strategy = std::make_unique<middlefl::core::RandomSelection>(); break;
    case 1:
      strategy = std::make_unique<middlefl::core::StatUtilitySelection>();
      break;
    default:
      strategy = std::make_unique<middlefl::core::SimilaritySelection>();
  }
  Xoshiro256 data_rng(7);
  std::vector<std::vector<float>> storage;
  std::vector<middlefl::core::Candidate> candidates;
  const std::vector<float> cloud{1.0f, -0.5f, 2.0f};
  for (std::size_t i = 0; i < 9; ++i) {
    storage.push_back({static_cast<float>(data_rng.normal()),
                       static_cast<float>(data_rng.normal()),
                       static_cast<float>(data_rng.normal())});
    candidates.push_back(middlefl::core::Candidate{
        .device_id = 100 + i,
        .data_size = 10.0,
        .stat_utility = i % 3 == 0 ? std::nullopt
                                   : std::optional<double>(data_rng.uniform()),
        .local_params = storage.back(),
    });
  }
  Xoshiro256 rng1(param.k * 31 + param.strategy);
  Xoshiro256 rng2(param.k * 31 + param.strategy);
  const auto s1 = strategy->select(candidates, cloud, param.k, rng1);
  const auto s2 = strategy->select(candidates, cloud, param.k, rng2);
  EXPECT_EQ(s1, s2);  // deterministic given the stream
  EXPECT_EQ(s1.size(), std::min<std::size_t>(param.k, candidates.size()));
  const std::set<std::size_t> unique(s1.begin(), s1.end());
  EXPECT_EQ(unique.size(), s1.size());  // no duplicates
  for (std::size_t id : s1) {
    EXPECT_GE(id, 100u);
    EXPECT_LT(id, 109u);  // only candidate ids
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndK, SelectionContract,
    ::testing::Values(
        SelectionCase{0, 0, 1}, SelectionCase{0, 0x558B, 5},
        SelectionCase{0, 0, 20}, SelectionCase{1, 0x558B, 1},
        SelectionCase{1, 0, 5}, SelectionCase{1, 0x558B, 20},
        SelectionCase{2, 0, 1}, SelectionCase{2, 0x558B, 5},
        SelectionCase{2, 0, 20}));

// --- mobility P across topologies ---

struct MobilityCase {
  double p;
  middlefl::mobility::MoveTopology topology;
  std::uint32_t name_tag;  // see SelectionCase
};
static_assert(sizeof(MobilityCase) == 16, "no padding left to print");

class MobilityP : public ::testing::TestWithParam<MobilityCase> {};

TEST_P(MobilityP, EmpiricalMatchesNominal) {
  const auto& param = GetParam();
  std::vector<std::size_t> initial(120);
  for (std::size_t m = 0; m < initial.size(); ++m) initial[m] = m % 8;
  middlefl::mobility::MarkovMobility model(initial, 8, param.p, 91);
  model.set_topology(param.topology, 0.5);
  EXPECT_NEAR(middlefl::mobility::measure_mobility(model, 400), param.p,
              0.035);
}

INSTANTIATE_TEST_SUITE_P(
    PAndTopology, MobilityP,
    ::testing::Values(
        MobilityCase{0.1, middlefl::mobility::MoveTopology::kUniform, 0xD0},
        MobilityCase{0.3, middlefl::mobility::MoveTopology::kUniform, 0xD0},
        MobilityCase{0.5, middlefl::mobility::MoveTopology::kUniform,
                     0xFFFFFFFF},
        MobilityCase{0.1, middlefl::mobility::MoveTopology::kRing, 0xD0},
        MobilityCase{0.5, middlefl::mobility::MoveTopology::kRing, 0xFFFFFFFF},
        MobilityCase{0.1, middlefl::mobility::MoveTopology::kHomeRing, 0},
        MobilityCase{0.3, middlefl::mobility::MoveTopology::kHomeRing, 0x558B},
        MobilityCase{0.5, middlefl::mobility::MoveTopology::kHomeRing,
                     0xFFFFFFFF}));

// --- simulation invariants for every algorithm ---

class SimulationInvariants : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SimulationInvariants, StructurePreservedThroughoutTraining) {
  SimBundle bundle;
  bundle.cfg.total_steps = 12;
  bundle.cfg.cloud_interval = 4;
  bundle.cfg.eval_every = 4;
  auto sim = bundle.make(GetParam());
  const std::size_t param_count = sim->cloud_params().size();

  for (std::size_t t = 0; t < 12; ++t) {
    const bool synced = sim->step();

    // Devices always partition onto valid edges.
    for (std::size_t e : sim->assignment()) {
      EXPECT_LT(e, sim->num_edges());
    }
    // Selection never exceeds K and only picks connected devices.
    for (std::size_t n = 0; n < sim->num_edges(); ++n) {
      EXPECT_LE(sim->last_selection()[n].size(),
                sim->config().select_per_edge);
      for (std::size_t m : sim->last_selection()[n]) {
        EXPECT_EQ(sim->assignment()[m], n);
      }
    }
    // All parameters stay finite.
    for (float p : sim->cloud_params()) ASSERT_TRUE(std::isfinite(p));
    for (std::size_t n = 0; n < sim->num_edges(); ++n) {
      EXPECT_EQ(sim->edge_params(n).size(), param_count);
    }
    // After a sync, edges and devices hold the cloud model exactly.
    if (synced) {
      const auto cloud = sim->cloud_params();
      for (std::size_t n = 0; n < sim->num_edges(); ++n) {
        const auto edge = sim->edge_params(n);
        for (std::size_t i = 0; i < cloud.size(); ++i) {
          ASSERT_EQ(edge[i], cloud[i]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SimulationInvariants,
    ::testing::Values(Algorithm::kMiddle, Algorithm::kOort,
                      Algorithm::kFedMes, Algorithm::kGreedy,
                      Algorithm::kEnsemble, Algorithm::kHierFavg),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return middlefl::core::to_string(info.param);
    });

// --- Dirichlet pruning ---

TEST(PartitionPrune, RemovesOnlyEmptyDevices) {
  middlefl::data::Partition partition;
  partition.device_indices = {{1, 2}, {}, {3}, {}, {4, 5, 6}};
  partition.major_class = {0, -1, 1, -1, 2};
  EXPECT_EQ(partition.prune_empty(), 2u);
  ASSERT_EQ(partition.num_devices(), 3u);
  EXPECT_EQ(partition.device_indices[0], (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(partition.device_indices[1], (std::vector<std::size_t>{3}));
  EXPECT_EQ(partition.major_class[2], 2);
  EXPECT_EQ(partition.prune_empty(), 0u);  // idempotent
}

}  // namespace
