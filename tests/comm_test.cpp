// Collectives-layer tests (src/comm/).
//
// CommReducer — the all_reduce determinism contract: bitwise equality
//   with an independent serial fixed-order loop at any pool size, for
//   odd/prime participant counts and sizes spanning the element-block
//   boundary, plus input validation.
// CommMailbox — the per-edge publish slot semantics.
// CommPipeline — the full simulation pipeline (both aggregation sites call
//   all_reduce) stays bitwise identical across pool sizes 1/2/8.
// CommAsync — the staleness-bounded semi-async cloud sync: bound=0 with
//   zero-latency links degenerates to the synchronous schedule bit for
//   bit, past-bound contributions are dropped+folded, results are
//   deterministic across pool sizes, and the counters are reconstructible
//   from the per-step records.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/mailbox.hpp"
#include "parallel/thread_pool.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::comm::CommCounters;
using middlefl::comm::Contribution;
using middlefl::comm::InProcessCommunicator;
using middlefl::comm::kReduceBlock;
using middlefl::comm::Mailbox;
using middlefl::core::Algorithm;
using middlefl::core::RunHistory;
using middlefl::core::Simulation;
using middlefl::parallel::ThreadPool;
using middlefl::testing::run_step_records;
using middlefl::testing::SimBundle;
using middlefl::testing::sum_link;
using middlefl::transport::LinkKind;
using middlefl::transport::LinkStats;

// ---------------------------------------------------------------------------
// CommReducer

/// Deterministic pseudo-random contribution data (no <random> so the
/// values are pinned across platforms).
std::vector<float> make_params(std::size_t n, std::uint64_t salt) {
  std::vector<float> v(n);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ (salt * 0xbf58476d1ce4e5b9ULL);
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Map to roughly [-1, 1] with plenty of mantissa entropy.
    v[i] = static_cast<float>(static_cast<std::int64_t>(state >> 21)) *
           (1.0f / static_cast<float>(std::int64_t{1} << 42));
  }
  return v;
}

/// The historical serial fixed-order loop, written out independently of
/// the library code it validates.
std::vector<float> reference_average(
    const std::vector<std::vector<float>>& parts,
    const std::vector<double>& weights) {
  const std::size_t n = parts.front().size();
  double total = 0.0;
  for (const double w : weights) total += w;
  std::vector<float> out(n);
  std::vector<double> acc(n, 0.0);
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const double w = weights[k] / total;
    if (w == 0.0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] += w * static_cast<double>(parts[k][i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]);
  return out;
}

TEST(CommReducer, BitwiseMatchesSerialLoopAcrossPoolsAndShapes) {
  // Sizes straddle the block boundary (8192): below, exactly at (one
  // inline block), one past (the first 2-block fan-out), and 5 blocks.
  // Participant counts are odd/prime-heavy so nothing lines up evenly.
  const std::size_t sizes[] = {100, kReduceBlock, kReduceBlock + 1, 40000};
  const std::size_t participant_counts[] = {1, 2, 3, 5, 7, 11, 13};
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  ThreadPool* pools[] = {nullptr, &pool2, &pool8};

  for (const std::size_t n : sizes) {
    for (const std::size_t p : participant_counts) {
      std::vector<std::vector<float>> parts;
      std::vector<double> weights;
      std::vector<Contribution> contribs;
      for (std::size_t k = 0; k < p; ++k) {
        parts.push_back(make_params(n, k * 1000 + n));
        weights.push_back(static_cast<double>((k * 7) % 5 + 1));
      }
      for (std::size_t k = 0; k < p; ++k) {
        contribs.push_back(Contribution{parts[k], weights[k]});
      }
      const std::vector<float> expected = reference_average(parts, weights);

      for (ThreadPool* pool : pools) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " p=" << p << " pool="
                     << (pool == nullptr ? 0 : pool->size()));
        InProcessCommunicator comm(pool);
        std::vector<float> out(n, -1.0f);
        comm.all_reduce(contribs, out);
        ASSERT_EQ(0, std::memcmp(out.data(), expected.data(),
                                 n * sizeof(float)));
        EXPECT_EQ(comm.counters().reduces, 1u);
      }
    }
  }
}

TEST(CommReducer, RejectsInvalidInput) {
  ThreadPool pool(2);
  InProcessCommunicator comm(&pool);
  std::vector<float> out(8);
  const std::vector<float> good(8, 1.0f);
  const std::vector<float> short_params(4, 1.0f);

  const std::vector<Contribution> empty;
  EXPECT_THROW(comm.all_reduce(empty, out), std::invalid_argument);

  const std::vector<Contribution> mismatched{{good, 1.0}, {short_params, 1.0}};
  EXPECT_THROW(comm.all_reduce(mismatched, out), std::invalid_argument);

  const std::vector<Contribution> negative{{good, -1.0}};
  EXPECT_THROW(comm.all_reduce(negative, out), std::invalid_argument);

  const std::vector<Contribution> zeros{{good, 0.0}, {good, 0.0}};
  EXPECT_THROW(comm.all_reduce(zeros, out), std::invalid_argument);

  // A rejected call is not counted.
  EXPECT_EQ(comm.counters().reduces, 0u);
}

// ---------------------------------------------------------------------------
// CommMailbox

TEST(CommMailbox, PostTakeAndOverwriteSemantics) {
  Mailbox<int> box(3);
  EXPECT_EQ(box.slots(), 3u);
  EXPECT_FALSE(box.has(0));
  EXPECT_FALSE(box.take(0).has_value());

  box.post(0, 11);
  box.post(2, 33);
  EXPECT_TRUE(box.has(0));
  EXPECT_FALSE(box.has(1));

  // The newest contribution supersedes an unread one.
  box.post(0, 12);
  const auto v0 = box.take(0);
  ASSERT_TRUE(v0.has_value());
  EXPECT_EQ(*v0, 12);
  EXPECT_FALSE(box.has(0));
  EXPECT_FALSE(box.take(0).has_value());

  const auto v2 = box.take(2);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v2, 33);

  box.resize(5);
  EXPECT_EQ(box.slots(), 5u);
  EXPECT_THROW(box.post(5, 1), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Shared fingerprint helpers for the pipeline suites

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunFingerprint {
  std::uint64_t cloud = 0;
  std::uint64_t edges = 0;
  std::uint64_t devices = 0;
  std::vector<double> accuracies;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint fingerprint(Simulation& sim, const RunHistory& history) {
  RunFingerprint f;
  const auto cloud = sim.cloud_params();
  f.cloud = fnv1a(cloud.data(), cloud.size() * sizeof(float));
  f.edges = 1469598103934665603ULL;
  for (std::size_t n = 0; n < sim.num_edges(); ++n) {
    const auto e = sim.edge_params(n);
    f.edges = fnv1a(e.data(), e.size() * sizeof(float)) ^ (f.edges * 3);
  }
  f.devices = 1469598103934665603ULL;
  for (std::size_t m = 0; m < sim.num_devices(); ++m) {
    const auto d = sim.device(m).params();
    f.devices = fnv1a(d.data(), d.size() * sizeof(float)) ^ (f.devices * 3);
  }
  for (const auto& point : history.points) {
    f.accuracies.push_back(point.accuracy);
  }
  return f;
}

/// Runs `bundle` to completion on an optional private pool.
RunFingerprint run_with_pool(SimBundle bundle, Algorithm algorithm,
                             ThreadPool* pool) {
  bundle.cfg.parallel_devices = pool != nullptr;
  bundle.cfg.pool = pool;
  auto sim = bundle.make(algorithm);
  const RunHistory history = sim->run();
  return fingerprint(*sim, history);
}

// ---------------------------------------------------------------------------
// CommPipeline

TEST(CommPipeline, SyncPipelineBitwiseIdenticalAcrossPoolSizes) {
  // Both aggregation sites (edge over devices, cloud over edges) call
  // all_reduce; the run must not depend on the pool.
  for (const Algorithm algorithm : {Algorithm::kMiddle, Algorithm::kFedMes}) {
    SCOPED_TRACE(static_cast<int>(algorithm));
    SimBundle bundle;
    const RunFingerprint serial = run_with_pool(bundle, algorithm, nullptr);
    ThreadPool pool2(2);
    EXPECT_EQ(serial, run_with_pool(bundle, algorithm, &pool2));
    ThreadPool pool8(8);
    EXPECT_EQ(serial, run_with_pool(bundle, algorithm, &pool8));
  }
}

TEST(CommPipeline, ReduceCountersAdvanceEveryAggregation) {
  SimBundle bundle;
  auto sim = bundle.make(Algorithm::kMiddle);
  sim->run();
  const CommCounters c = sim->comm_reduce_counters();
  // Every edge aggregation and every cloud sync is one all_reduce; with
  // 20 steps, T_c=5 and 3 edges there are at least the 4 cloud reduces
  // plus the per-step edge aggregates that had uploads.
  EXPECT_GT(c.reduces, 4u);
}

// ---------------------------------------------------------------------------
// CommAsync

SimBundle async_bundle(std::size_t max_staleness,
                       std::size_t wan_latency_steps) {
  SimBundle bundle;
  bundle.cfg.comm.async_cloud = true;
  bundle.cfg.comm.max_staleness = max_staleness;
  bundle.cfg.transport.wan_up.latency_steps = wan_latency_steps;
  return bundle;
}

TEST(CommAsync, BoundZeroWithZeroLatencyDegeneratesToSync) {
  // With max_staleness = 0 and instant links every contribution is
  // same-round, so the async schedule applies exactly at the boundaries
  // with weight 1/(1+0): the model trajectory is the synchronous one, bit
  // for bit.
  SimBundle sync_bundle;
  auto sync_sim = sync_bundle.make(Algorithm::kMiddle);
  const RunHistory sync_history = sync_sim->run();
  const RunFingerprint sync_fp = fingerprint(*sync_sim, sync_history);

  SimBundle bundle = async_bundle(0, 0);
  auto async_sim = bundle.make(Algorithm::kMiddle);
  const RunHistory async_history = async_sim->run();
  const RunFingerprint async_fp = fingerprint(*async_sim, async_history);

  EXPECT_EQ(sync_fp, async_fp);
  const auto& stats = async_sim->async_stats();
  EXPECT_GT(stats.published, 0u);
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_EQ(stats.dropped_stale, 0u);
  EXPECT_EQ(stats.published, stats.applied);
  // 20 steps, T_c=5, 3 edges: every boundary publishes every edge.
  EXPECT_EQ(stats.published, 4u * 3u);
  EXPECT_EQ(stats.applies, 4u);
}

TEST(CommAsync, PastBoundContributionsAreDroppedAndFolded) {
  // wan latency 6 with T_c=5: every contribution lands one round late,
  // which a bound of 0 rejects — nothing is ever applied and the global
  // model never moves — while a bound of 1 admits everything discounted.
  SimBundle strict = async_bundle(0, 6);
  auto strict_sim = strict.make(Algorithm::kMiddle);
  const auto init_cloud = std::vector<float>(
      strict_sim->cloud_params().begin(), strict_sim->cloud_params().end());
  strict_sim->run();
  const auto& dropped = strict_sim->async_stats();
  EXPECT_GT(dropped.published, 0u);
  EXPECT_GT(dropped.dropped_stale, 0u);
  EXPECT_EQ(dropped.applied, 0u);
  EXPECT_EQ(dropped.applies, 0u);
  const auto cloud = strict_sim->cloud_params();
  EXPECT_EQ(0, std::memcmp(cloud.data(), init_cloud.data(),
                           cloud.size() * sizeof(float)));

  SimBundle tolerant = async_bundle(1, 6);
  auto tolerant_sim = tolerant.make(Algorithm::kMiddle);
  tolerant_sim->run();
  const auto& admitted = tolerant_sim->async_stats();
  EXPECT_GT(admitted.applied, 0u);
  EXPECT_EQ(admitted.dropped_stale, 0u);
  EXPECT_GT(admitted.deferred, 0u);  // every publish rode the delay queue
}

TEST(CommAsync, DeterministicAcrossPoolSizes) {
  SimBundle bundle = async_bundle(1, 1);
  const RunFingerprint serial =
      run_with_pool(bundle, Algorithm::kMiddle, nullptr);
  ThreadPool pool2(2);
  EXPECT_EQ(serial, run_with_pool(bundle, Algorithm::kMiddle, &pool2));
  ThreadPool pool8(8);
  EXPECT_EQ(serial, run_with_pool(bundle, Algorithm::kMiddle, &pool8));
}

TEST(CommAsync, CountersMatchEventStream) {
  // The async counters are rebuilt from the per-step records alone, and
  // the records' wan_up sum is the link's own counter and comm_stats()'s.
  SimBundle bundle = async_bundle(1, 1);
  bundle.cfg.total_steps = 30;
  auto sim = bundle.make(Algorithm::kMiddle);
  std::uint64_t contributing_sum = 0;
  std::uint64_t cloud_syncs = 0;
  const auto records = run_step_records(*sim);
  for (const auto& record : records) {
    if (!record.synced) continue;
    contributing_sum += record.contributing_edges;
    ++cloud_syncs;
  }
  const LinkStats wan_up = sum_link(records, LinkKind::kWanUp);

  const auto& stats = sim->async_stats();
  EXPECT_EQ(stats.published, wan_up.transfers);
  EXPECT_EQ(stats.applied, contributing_sum);
  EXPECT_EQ(stats.applies, cloud_syncs);
  EXPECT_GT(stats.applies, 0u);
  EXPECT_GT(stats.deferred, 0u);
  EXPECT_EQ(wan_up.transfers, sim->comm_stats().edge_uploads);
  EXPECT_EQ(wan_up.bytes, sim->transport().stats(LinkKind::kWanUp).bytes);
  EXPECT_EQ(sum_link(records, LinkKind::kWanDown).transfers,
            sim->comm_stats().edge_downloads);
}

}  // namespace
