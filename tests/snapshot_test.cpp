// Copy-on-write snapshot-store semantics: version uniqueness, zero-copy
// aliasing between tiers, copy-on-first-write isolation, version-keyed
// similarity-cache invalidation across cloud syncs, checkpoint round-trips
// through shared snapshots, and buffer recycling.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <sstream>
#include <vector>

#include "core/snapshot.hpp"
#include "nn/serialize.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::core::Snapshot;
using middlefl::core::SnapshotStore;
using middlefl::testing::SimBundle;

TEST(SnapshotStore, VersionsAreUniqueAndIncreasing) {
  auto& store = SnapshotStore::global();
  const std::vector<float> data(8, 0.5f);
  std::set<std::uint64_t> seen;
  std::uint64_t prev = 0;
  for (int i = 0; i < 16; ++i) {
    const Snapshot snap = store.publish(data);
    EXPECT_GT(snap->version(), prev);
    prev = snap->version();
    EXPECT_TRUE(seen.insert(snap->version()).second) << "duplicate version";
  }
}

TEST(SnapshotStore, PublishCopiesAndSealMoves) {
  auto& store = SnapshotStore::global();
  std::vector<float> data{1.0f, 2.0f, 3.0f};
  const Snapshot published = store.publish(data);
  data[0] = 99.0f;  // the published block must be an independent copy
  EXPECT_EQ(published->span()[0], 1.0f);
  EXPECT_EQ(published->size(), 3u);

  std::vector<float> buffer = store.borrow(4);
  ASSERT_EQ(buffer.size(), 4u);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<float>(i);
  }
  const float* payload = buffer.data();
  const Snapshot sealed = store.seal(std::move(buffer));
  // seal() moves the buffer into the block — no copy.
  EXPECT_EQ(sealed->span().data(), payload);
  EXPECT_EQ(sealed->span()[3], 3.0f);
  EXPECT_GT(sealed->version(), published->version());
}

TEST(SnapshotStore, RetiredBlocksRecycleIntoTheFreelist) {
  auto& store = SnapshotStore::global();
  const std::vector<float> data(64, 1.0f);
  Snapshot snap = store.publish(data);
  // Baseline after publish(): it may have borrowed a buffer other tests
  // left in the global freelist.
  const std::size_t pooled_before = store.pooled();
  snap.reset();  // last reference gone: buffer returns to the freelist
  EXPECT_GE(store.pooled(), pooled_before + 1);
  // borrow() prefers recycled buffers over fresh allocations.
  const std::size_t pooled_full = store.pooled();
  std::vector<float> reused = store.borrow(64);
  EXPECT_EQ(reused.size(), 64u);
  EXPECT_LT(store.pooled(), pooled_full);
}

TEST(Snapshot, WarmStartAliasesOneBlockAcrossAllTiers) {
  SimBundle bundle;
  auto sim = bundle.make(Algorithm::kMiddle);
  const std::vector<float> params(sim->cloud_params().begin(),
                                  sim->cloud_params().end());
  sim->warm_start(params);

  // Every tier reads the SAME published block: num_devices + num_edges
  // copies collapse into refcount bumps.
  const float* block = sim->cloud_params().data();
  for (std::size_t n = 0; n < sim->num_edges(); ++n) {
    EXPECT_EQ(sim->edge_params(n).data(), block) << "edge " << n;
  }
  for (std::size_t m = 0; m < sim->num_devices(); ++m) {
    EXPECT_EQ(sim->device(m).params().data(), block) << "device " << m;
    EXPECT_TRUE(sim->device(m).shares_snapshot()) << "device " << m;
  }
}

TEST(Snapshot, CopyOnFirstWriteIsolatesSharers) {
  SimBundle bundle;
  auto sim = bundle.make(Algorithm::kMiddle);
  const std::vector<float> params(sim->cloud_params().begin(),
                                  sim->cloud_params().end());
  sim->warm_start(params);
  ASSERT_TRUE(sim->device(0).shares_snapshot());
  ASSERT_TRUE(sim->device(1).shares_snapshot());
  const auto v0 = sim->device(0).params_version();
  const auto v1 = sim->device(1).params_version();
  // Both devices adopted the same block, so they carry its version.
  EXPECT_EQ(v0, v1);

  // Device 0 writes: it materializes a private copy; device 1 still reads
  // the shared block, bitwise untouched.
  std::vector<float> mutated(params);
  mutated[0] += 1.0f;
  sim->device(0).set_params(mutated);
  EXPECT_FALSE(sim->device(0).shares_snapshot());
  EXPECT_TRUE(sim->device(1).shares_snapshot());
  EXPECT_NE(sim->device(0).params().data(), sim->device(1).params().data());
  EXPECT_GT(sim->device(0).params_version(), v0);
  EXPECT_EQ(sim->device(1).params_version(), v1);
  EXPECT_EQ(sim->device(1).params()[0], params[0]);
  EXPECT_EQ(sim->cloud_params()[0], params[0]);
}

TEST(Snapshot, CloudSyncInvalidatesSimilarityCacheByVersion) {
  SimBundle bundle;
  bundle.cfg.total_steps = 12;
  bundle.cfg.cloud_interval = 4;
  auto sim = bundle.make(Algorithm::kMiddle);

  // Steps 1-3: no sync. Devices that sat out a step keep their version, so
  // their Eq. 11 scores start hitting the cache.
  for (int s = 0; s < 3; ++s) sim->step();
  EXPECT_GT(sim->similarity_cache().hits(), 0u);

  sim->step();  // t=4: cloud sync publishes a new global block
  const auto hits_after_sync = sim->similarity_cache().hits();
  const auto misses_after_sync = sim->similarity_cache().misses();

  // t=5: the cloud version changed (and the broadcast re-stamped every
  // device), so every cached pair is stale — all lookups miss, no stale
  // score can ever be served.
  sim->step();
  EXPECT_EQ(sim->similarity_cache().hits(), hits_after_sync);
  EXPECT_GT(sim->similarity_cache().misses(), misses_after_sync);
}

TEST(Snapshot, CheckpointRoundTripsThroughSharedSnapshots) {
  SimBundle bundle;
  bundle.cfg.total_steps = 10;
  auto trained = bundle.make(Algorithm::kMiddle);
  for (int s = 0; s < 5; ++s) trained->step();
  const std::vector<float> weights(trained->cloud_params().begin(),
                                   trained->cloud_params().end());

  // Save the global model, restore into a fresh architecture, warm-start a
  // new simulation from it: the shared snapshot hands every tier the
  // restored bits unchanged.
  auto model = middlefl::nn::build_model(bundle.model_spec, bundle.seed);
  model->set_parameters(weights);
  std::stringstream stream;
  middlefl::nn::save_model(*model, stream);
  auto restored =
      middlefl::nn::build_model(bundle.model_spec, bundle.seed + 17);
  middlefl::nn::load_model(*restored, stream);

  auto resumed = bundle.make(Algorithm::kMiddle);
  resumed->warm_start(restored->parameters());
  const auto cloud = resumed->cloud_params();
  ASSERT_EQ(cloud.size(), weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    ASSERT_EQ(cloud[i], weights[i]) << "param " << i;
  }
  EXPECT_EQ(resumed->device(0).params().data(), cloud.data());

  // And the resumed simulation still trains (the shared start is a real
  // working state, not a frozen alias).
  resumed->step();
  EXPECT_EQ(resumed->current_step(), 1u);
}

}  // namespace
