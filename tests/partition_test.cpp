#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "parallel/rng.hpp"

namespace {

using middlefl::data::Dataset;
using middlefl::data::Partition;
using middlefl::data::SyntheticConfig;
using middlefl::data::SyntheticGenerator;
using middlefl::tensor::Shape;

Dataset make_dataset(std::size_t classes, std::size_t per_class) {
  SyntheticConfig cfg;
  cfg.num_classes = classes;
  cfg.height = 4;
  cfg.width = 4;
  const SyntheticGenerator gen(cfg);
  return gen.generate(per_class, 0);
}

double major_fraction_of(const Dataset& ds, const Partition& p,
                         std::size_t device) {
  std::size_t major_hits = 0;
  for (std::size_t i : p.device_indices[device]) {
    if (ds.label(i) == p.major_class[device]) ++major_hits;
  }
  return static_cast<double>(major_hits) /
         static_cast<double>(p.device_indices[device].size());
}

TEST(MajorClassPartition, FractionApproximatelyHonored) {
  const Dataset ds = make_dataset(10, 50);
  const auto p =
      middlefl::data::partition_major_class(ds, 20, 200, 0.8, 42);
  ASSERT_EQ(p.num_devices(), 20u);
  for (std::size_t m = 0; m < 20; ++m) {
    EXPECT_EQ(p.device_indices[m].size(), 200u);
    EXPECT_EQ(p.major_class[m], static_cast<std::int32_t>(m % 10));
    EXPECT_NEAR(major_fraction_of(ds, p, m), 0.8, 0.12);
  }
}

TEST(MajorClassPartition, RoundRobinCoversAllClasses) {
  const Dataset ds = make_dataset(5, 20);
  const auto p = middlefl::data::partition_major_class(ds, 10, 50, 0.9, 1);
  std::vector<bool> seen(5, false);
  for (std::int32_t c : p.major_class) {
    seen[static_cast<std::size_t>(c)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(MajorClassPartition, IndicesPointToMajorLabel) {
  const Dataset ds = make_dataset(4, 30);
  const auto p = middlefl::data::partition_major_class(ds, 4, 100, 1.0, 7);
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::size_t i : p.device_indices[m]) {
      EXPECT_EQ(ds.label(i), p.major_class[m]);
    }
  }
}

TEST(MajorClassPartition, Deterministic) {
  const Dataset ds = make_dataset(3, 30);
  const auto a = middlefl::data::partition_major_class(ds, 6, 40, 0.8, 5);
  const auto b = middlefl::data::partition_major_class(ds, 6, 40, 0.8, 5);
  EXPECT_EQ(a.device_indices, b.device_indices);
}

TEST(MajorClassPartition, Validation) {
  const Dataset ds = make_dataset(3, 10);
  EXPECT_THROW(middlefl::data::partition_major_class(ds, 0, 10, 0.8, 1),
               std::invalid_argument);
  EXPECT_THROW(middlefl::data::partition_major_class(ds, 2, 0, 0.8, 1),
               std::invalid_argument);
  EXPECT_THROW(middlefl::data::partition_major_class(ds, 2, 10, 1.5, 1),
               std::invalid_argument);
}

TEST(SingleClassPartition, OneClassPerDevice) {
  const Dataset ds = make_dataset(10, 20);
  const auto p = middlefl::data::partition_single_class(ds, 10, 30, 3);
  for (std::size_t m = 0; m < 10; ++m) {
    for (std::size_t i : p.device_indices[m]) {
      EXPECT_EQ(ds.label(i), p.major_class[m]);
    }
  }
}

TEST(DirichletPartition, CoversDatasetWithoutReplacement) {
  const Dataset ds = make_dataset(5, 40);
  const auto p = middlefl::data::partition_dirichlet(ds, 8, 0.5, 9);
  std::vector<std::size_t> all;
  for (const auto& d : p.device_indices) {
    all.insert(all.end(), d.begin(), d.end());
  }
  std::sort(all.begin(), all.end());
  // Every index appears exactly once.
  EXPECT_EQ(all.size(), ds.size());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(DirichletPartition, SmallAlphaIsSkewed) {
  const Dataset ds = make_dataset(10, 100);
  const auto skewed = middlefl::data::partition_dirichlet(ds, 10, 0.05, 11);
  const auto smooth = middlefl::data::partition_dirichlet(ds, 10, 100.0, 11);
  // Measure max class share per device, averaged.
  const auto mean_major_share = [&](const Partition& p) {
    double total = 0.0;
    std::size_t counted = 0;
    for (const auto& dev : p.device_indices) {
      if (dev.empty()) continue;
      std::vector<std::size_t> hist(10, 0);
      for (std::size_t i : dev) {
        ++hist[static_cast<std::size_t>(ds.label(i))];
      }
      total += static_cast<double>(
                   *std::max_element(hist.begin(), hist.end())) /
               static_cast<double>(dev.size());
      ++counted;
    }
    return total / static_cast<double>(counted);
  };
  EXPECT_GT(mean_major_share(skewed), mean_major_share(smooth) + 0.2);
}

TEST(DirichletPartition, RecordsEmpiricalMajorClass) {
  const Dataset ds = make_dataset(4, 50);
  const auto p = middlefl::data::partition_dirichlet(ds, 5, 0.1, 13);
  for (std::size_t m = 0; m < 5; ++m) {
    if (!p.device_indices[m].empty()) {
      EXPECT_GE(p.major_class[m], 0);
      EXPECT_LT(p.major_class[m], 4);
    }
  }
}

TEST(IidPartition, BalancedSizes) {
  const Dataset ds = make_dataset(5, 40);  // 200 samples
  const auto p = middlefl::data::partition_iid(ds, 8, 17);
  for (const auto& dev : p.device_indices) {
    EXPECT_EQ(dev.size(), 25u);
  }
  EXPECT_EQ(p.major_class[0], -1);
}

TEST(IidPartition, FisherYatesPermutationPinned) {
  // With one device the IID split is the shuffled index list itself. The
  // shuffle is the in-tree Fisher-Yates on Xoshiro256::bounded, so seed 17
  // gives this permutation under every standard library.
  const Dataset ds = make_dataset(3, 4);  // 12 samples
  const auto p = middlefl::data::partition_iid(ds, 1, 17);
  const std::vector<std::size_t> pinned{8, 10, 7, 11, 9, 0, 1, 3, 2, 4, 6, 5};
  EXPECT_EQ(p.device_indices[0], pinned);
  // The same permutation, spelled as the algorithm.
  std::vector<std::size_t> expected(ds.size());
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  middlefl::parallel::Xoshiro256 rng(17);
  for (std::size_t i = expected.size(); i > 1; --i) {
    std::swap(expected[i - 1], expected[rng.bounded(i)]);
  }
  EXPECT_EQ(p.device_indices[0], expected);
}

TEST(EdgeAssignment, GroupsByMajorClass) {
  const Dataset ds = make_dataset(10, 20);
  const auto p = middlefl::data::partition_major_class(ds, 20, 30, 0.9, 3);
  const auto edges = middlefl::data::assign_edges_by_major_class(p, 5, 10);
  ASSERT_EQ(edges.size(), 20u);
  // Classes {0,1} -> edge 0, {2,3} -> edge 1, ..., {8,9} -> edge 4.
  for (std::size_t m = 0; m < 20; ++m) {
    const auto major = static_cast<std::size_t>(p.major_class[m]);
    EXPECT_EQ(edges[m], major / 2);
  }
}

TEST(EdgeAssignment, UniformCoversRange) {
  const auto edges = middlefl::data::assign_edges_uniform(1000, 4, 5);
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t e : edges) {
    ASSERT_LT(e, 4u);
    ++counts[e];
  }
  for (std::size_t c : counts) EXPECT_GT(c, 180u);  // roughly balanced
}

TEST(EdgeAssignment, Validation) {
  Partition p;
  p.device_indices.resize(3);
  p.major_class.assign(3, -1);
  EXPECT_THROW(middlefl::data::assign_edges_by_major_class(p, 0, 10),
               std::invalid_argument);
  EXPECT_THROW(middlefl::data::assign_edges_uniform(5, 0, 1),
               std::invalid_argument);
}

TEST(PartitionView, BuildsWorkingView) {
  const Dataset ds = make_dataset(3, 20);
  const auto p = middlefl::data::partition_major_class(ds, 3, 15, 0.8, 21);
  const auto view = p.view(ds, 1);
  EXPECT_EQ(view.size(), 15u);
}

}  // namespace
