// Device state (core/fleet.hpp): the lossless codec round-trip, bitwise
// equality of Device::train with a private-model oracle, whole-run fleet
// accounting, DeviceRegistry invariants, the registry broadcast block
// against a per-device adopt oracle, and the column layout (hot entries
// only for detached devices, one own copy per written device, training
// state that survives rejoins).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fleet.hpp"
#include "core/simulation.hpp"
#include "data/partition.hpp"
#include "data/sampler.hpp"
#include "nn/loss.hpp"
#include "nn/model_factory.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "sim_fixture.hpp"
#include "transport/compression.hpp"

namespace {

using middlefl::core::Device;
using middlefl::core::DeviceRegistry;
using middlefl::core::DeviceTrainStats;
using middlefl::core::FleetConfig;
using middlefl::core::Simulation;
using middlefl::core::Snapshot;
using middlefl::core::SnapshotStore;
using middlefl::parallel::Xoshiro256;
using middlefl::testing::SimBundle;
using middlefl::transport::CompressionConfig;
using middlefl::transport::CompressionKind;
using middlefl::transport::EncodedDelta;

std::vector<float> ramp(std::size_t n, float scale) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = scale * std::sin(0.37f * static_cast<float>(i + 1));
  }
  return v;
}

// ---------------------------------------------------------------------------
// The lossless codec (the wire's kNone path) round-trips bitwise.

TEST(AtRestCodec, LosslessRoundTripsBitwise) {
  const std::vector<float> w = ramp(257, 2.5f);
  EncodedDelta delta;
  middlefl::transport::encode_delta(w, CompressionConfig{}, delta);
  EXPECT_EQ(delta.bytes(), 4 * w.size());

  std::vector<float> out(w.size(), -1.0f);
  middlefl::transport::decode_delta_into(delta, out);
  EXPECT_EQ(std::memcmp(out.data(), w.data(), w.size() * sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// LazyTrainingOracle: Device::train — pooled runtime, shared snapshot or
// own copy — against a reference device that owns a private model and
// optimizer for its whole life.

middlefl::data::Dataset& shared_data() {
  static middlefl::data::Dataset data = SimBundle::make_data(4, 30, 3);
  return data;
}

/// The reference trainer: a private nn::Sequential clone and optimizer
/// clone that persist across rounds, driven through the I-step SGD loop
/// written out in full (reset, sample, forward, cross-entropy, backward,
/// optimizer step).
struct OracleDevice {
  middlefl::data::DataView data;
  std::unique_ptr<middlefl::nn::Sequential> model;
  std::unique_ptr<middlefl::optim::Optimizer> optimizer;
  middlefl::data::Minibatch batch;

  DeviceTrainStats train(std::size_t local_steps, std::size_t batch_size,
                         double learning_rate, Xoshiro256& rng) {
    optimizer->reset();
    optimizer->set_learning_rate(learning_rate);
    DeviceTrainStats stats;
    std::vector<float> sample_losses(batch_size);
    double loss_acc = 0.0;
    for (std::size_t step = 0; step < local_steps; ++step) {
      middlefl::data::sample_minibatch_into(data, batch_size, rng, batch);
      const middlefl::nn::Tensor& logits = model->forward(batch.features, true);
      auto result = middlefl::nn::softmax_cross_entropy(logits, batch.labels);
      loss_acc += result.loss;
      if (step + 1 == local_steps) {
        middlefl::nn::per_example_cross_entropy(logits, batch.labels,
                                                sample_losses);
        double sq = 0.0;
        for (float l : sample_losses) sq += static_cast<double>(l) * l;
        stats.mean_sq_loss = sq / static_cast<double>(batch_size);
      }
      model->zero_grad();
      model->backward(result.grad_logits);
      optimizer->step(model->parameters(), model->gradients());
    }
    stats.batches = local_steps;
    stats.mean_loss = loss_acc / static_cast<double>(local_steps);
    return stats;
  }
};

/// One registry-backed device and its oracle twin, started from the same
/// parameters on the same data.
struct TwinPair {
  Device device;
  OracleDevice oracle;
};

/// A registry whose device m holds the 40 samples from firsts[m] on (as an
/// index list, wrapping), next to oracles viewing the same samples as a
/// window.
struct OracleFixture {
  middlefl::nn::ModelSpec spec;
  std::unique_ptr<middlefl::nn::Sequential> init;
  Snapshot base;
  DeviceRegistry registry;
  std::vector<std::size_t> firsts;
  std::size_t next_id = 0;

  OracleFixture(const middlefl::optim::Optimizer& prototype,
                std::vector<std::size_t> data_firsts)
      : firsts(std::move(data_firsts)) {
    spec.arch = middlefl::nn::ModelArch::kMlp;
    spec.input_shape = middlefl::tensor::Shape{1, 6, 6};
    spec.num_classes = 4;
    spec.hidden = 16;
    init = middlefl::nn::build_model(spec, 11);
    base = SnapshotStore::global().publish(init->parameters());
    registry.set_prototypes(*init, prototype);
    middlefl::data::Partition partition;
    for (const std::size_t first : firsts) {
      std::vector<std::size_t>& list = partition.device_indices.emplace_back();
      for (std::size_t i = 0; i < 40; ++i) {
        list.push_back((first + i) % shared_data().size());
      }
    }
    registry.set_data(shared_data(), std::move(partition));
    registry.broadcast(base);
  }

  /// The next device (following `base`) and its oracle.
  TwinPair make_pair(const middlefl::optim::Optimizer& prototype) {
    const std::size_t id = next_id++;
    return TwinPair{registry.at(id),
                    OracleDevice{middlefl::data::DataView::window(
                                     shared_data(), firsts.at(id), 40),
                                 init->clone(), prototype.clone_config(), {}}};
  }
};

void expect_twins_equal(const TwinPair& pair, const DeviceTrainStats& got,
                        const DeviceTrainStats& want, std::size_t round) {
  SCOPED_TRACE("device " + std::to_string(pair.device.id()) + " round " +
               std::to_string(round));
  EXPECT_EQ(got.mean_loss, want.mean_loss);
  EXPECT_EQ(got.mean_sq_loss, want.mean_sq_loss);
  EXPECT_EQ(got.batches, want.batches);
  const std::span<const float> a = pair.device.params();
  const std::span<const float> b = pair.oracle.model->parameters();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(LazyTrainingOracle, InterleavedSettledRoundsMatchPrivateModels) {
  // Momentum SGD with weight decay, reset at the start of every round:
  // the velocity one device leaves in the shared runtime must not leak
  // into the other's round.
  const middlefl::optim::Sgd sgd(
      {.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 1e-4});
  OracleFixture fx(sgd, {0, 40});
  TwinPair a = fx.make_pair(sgd);
  TwinPair b = fx.make_pair(sgd);

  for (std::size_t round = 0; round < 4; ++round) {
    if (round == 2) {
      // A between-round install (the on-device blend write path) on one
      // twin pair, overwriting its own copy in place.
      std::vector<float> blended(a.device.params().begin(),
                                 a.device.params().end());
      for (float& w : blended) w *= 0.5f;
      const float* own = a.device.params().data();
      a.device.set_params(blended);
      EXPECT_EQ(a.device.params().data(), own);
      a.oracle.model->set_parameters(blended);
    }
    // Both devices share one checked-out runtime, interleaved: each must
    // leave no trace in it the other could pick up.
    middlefl::core::DeviceRuntime* runtime = fx.registry.acquire_runtime();
    for (TwinPair* pair : {&a, &b}) {
      const std::uint64_t seed = 100 * round + pair->device.id();
      Xoshiro256 rng_device(seed);
      Xoshiro256 rng_oracle(seed);
      const auto got = pair->device.train(3, 8, 0.05, rng_device, runtime);
      const auto want = pair->oracle.train(3, 8, 0.05, rng_oracle);
      expect_twins_equal(*pair, got, want, round);
    }
    fx.registry.release_runtime(runtime);
    // Between rounds each device keeps its own copy; the next round starts
    // from it.
    EXPECT_FALSE(a.device.shares_snapshot());
    EXPECT_FALSE(b.device.shares_snapshot());
    EXPECT_EQ(fx.registry.resident_devices(), 2u);
  }
  // One copy each: only the first write on the shared base made one.
  EXPECT_EQ(fx.registry.materializations(), 2u);
}

TEST(DeviceRuntime, StepBuffersKeepTheirStorageAcrossTrainCalls) {
  // The loss gradient and the final batch's per-sample losses are written
  // into the pooled runtime, so a second Device::train through it (another
  // device, another round) reuses both allocations. One local step each:
  // a buffer made anew per step would hold a fresh block the second time,
  // since the first one is still alive while its successor is allocated.
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  OracleFixture fx(sgd, {0, 40});
  TwinPair a = fx.make_pair(sgd);
  TwinPair b = fx.make_pair(sgd);
  middlefl::core::DeviceRuntime* runtime = fx.registry.acquire_runtime();
  Xoshiro256 rng(5);
  a.device.train(1, 8, 0.05, rng, runtime);
  const float* grad = runtime->loss_grad().data().data();
  const float* losses = runtime->sample_losses().data();
  ASSERT_EQ(runtime->loss_grad().numel(), 8u * 4u);  // batch x classes
  ASSERT_EQ(runtime->sample_losses().size(), 8u);
  b.device.train(1, 8, 0.05, rng, runtime);
  EXPECT_EQ(runtime->loss_grad().data().data(), grad);
  EXPECT_EQ(runtime->sample_losses().data(), losses);
  fx.registry.release_runtime(runtime);
}

TEST(LazyTrainingOracle, AdoptAndResetRoundsMatchPrivateModels) {
  // Adam's step count and moment slots reset every round, the device
  // acquires its own runtime, and a broadcast adopt rebases it on a new
  // snapshot mid-run.
  const middlefl::optim::Adam adam({.learning_rate = 0.01});
  OracleFixture fx(adam, {20});
  TwinPair pair = fx.make_pair(adam);

  for (std::size_t round = 0; round < 4; ++round) {
    if (round == 2) {
      std::vector<float> global(pair.device.params().begin(),
                                pair.device.params().end());
      for (float& w : global) w = -w;
      pair.device.adopt(SnapshotStore::global().publish(global));
      EXPECT_TRUE(pair.device.shares_snapshot());
      pair.oracle.model->set_parameters(global);
    }
    Xoshiro256 rng_device(7 + round);
    Xoshiro256 rng_oracle(7 + round);
    const auto got = pair.device.train(2, 8, 0.01, rng_device);
    const auto want = pair.oracle.train(2, 8, 0.01, rng_oracle);
    expect_twins_equal(pair, got, want, round);
  }
}

// ---------------------------------------------------------------------------
// LazyFleet: whole-simulation fleet behaviour

TEST(LazyFleet, FleetAccountingTracksSelection) {
  SimBundle bundle;
  auto sim = bundle.make(middlefl::core::Algorithm::kFedMes);
  sim->step();
  // K=2 over 3 edges: at most 6 selected devices get their own copy in
  // step 1 (fewer when an edge has < K members), and they keep it after
  // the step: one copy per trained device.
  const auto& fleet = sim->fleet();
  EXPECT_GT(fleet.materializations(), 0u);
  EXPECT_LE(fleet.materializations(), 6u);
  EXPECT_EQ(fleet.resident_devices(), fleet.materializations());
  EXPECT_EQ(sim->last_step().materializations, fleet.materializations());
  // The lossless broadcast at the first sync returns every own copy.
  while (!sim->step()) {
    EXPECT_GT(fleet.resident_devices(), 0u);
  }
  EXPECT_EQ(fleet.resident_devices(), 0u);
  EXPECT_EQ(fleet.hot_entries(), 0u);
}

// ---------------------------------------------------------------------------
// Registry invariants

/// Gives `registry` data for `devices` devices: 8-sample windows of the
/// shared dataset.
void give_data(DeviceRegistry& registry, std::size_t devices) {
  registry.set_data(shared_data(), middlefl::data::partition_fleet_window(
                                       shared_data(), devices, 8));
}

TEST(RegistryChurn, ShardAssignmentIsStableAndMasked) {
  DeviceRegistry registry;
  registry.configure(FleetConfig{.shards = 8});
  EXPECT_EQ(registry.num_shards(), 8u);
  for (std::size_t id = 0; id < 4096; ++id) {
    const std::size_t shard = registry.shard_of(id);
    EXPECT_LT(shard, registry.num_shards());
    EXPECT_EQ(shard, registry.shard_of(id));  // deterministic
  }
  // configure() and set_data() are construction-time only: set_data()
  // makes the devices present.
  give_data(registry, 2);
  EXPECT_THROW(registry.configure(FleetConfig{}), std::logic_error);
  EXPECT_THROW(give_data(registry, 2), std::logic_error);
}

// ---------------------------------------------------------------------------
// FleetBroadcast: the registry-held broadcast block against the per-device
// adopt loop it replaced, kept here as the oracle.

/// Pairs the version stamps of two simulations. Stamps are process-global,
/// so two runs never share values, but they must change and repeat in
/// exactly the same places: the pairing has to stay one-to-one.
class VersionMatch {
 public:
  bool pair(std::uint64_t got, std::uint64_t want) {
    const auto forward = forward_.emplace(got, want).first;
    const auto backward = backward_.emplace(want, got).first;
    return forward->second == want && backward->second == got;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> forward_;
  std::unordered_map<std::uint64_t, std::uint64_t> backward_;
};

/// The per-device loop the registry broadcast replaced: every device
/// adopts the cloud's block, or installs its own copy of the
/// reconstruction when the broadcast link compresses.
void oracle_broadcast(Simulation& sim, const CompressionConfig& compression) {
  const Snapshot global = sim.cloud_snapshot();
  std::vector<float> recon;
  if (compression.kind != CompressionKind::kNone) {
    recon = middlefl::transport::compress_update(global->span(), compression)
                .reconstruction;
  }
  for (std::size_t m = 0; m < sim.num_devices(); ++m) {
    Device device = sim.device(m);
    if (recon.empty()) {
      device.adopt(global);
    } else {
      device.set_params(recon);
    }
  }
}

/// A copy of a device's parameters.
std::vector<float> read_params(Device device) {
  return {device.params().begin(), device.params().end()};
}

void expect_fleets_match(Simulation& got, Simulation& want,
                         VersionMatch& versions, std::size_t step) {
  SCOPED_TRACE("step " + std::to_string(step));
  ASSERT_EQ(got.num_devices(), want.num_devices());
  EXPECT_TRUE(versions.pair(got.cloud_snapshot()->version(),
                            want.cloud_snapshot()->version()));
  for (std::size_t m = 0; m < got.num_devices(); ++m) {
    const std::vector<float> a = read_params(got.device(m));
    const std::vector<float> b = read_params(want.device(m));
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "device " << m;
    EXPECT_TRUE(versions.pair(got.device(m).params_version(),
                              want.device(m).params_version()))
        << "device " << m;
  }
}

/// Steps the simulator as configured next to a twin whose own device
/// broadcast is off and which runs oracle_broadcast after every
/// broadcasting step instead. After every step each device must hold the
/// same bytes and the same version pattern in both, and every broadcast
/// must charge the link n sends of the global model. `warm_start_at` > 0
/// warm-starts both before that step.
void run_against_adopt_oracle(SimBundle bundle,
                              middlefl::core::Algorithm algorithm,
                              std::size_t steps,
                              std::size_t warm_start_at = 0) {
  using middlefl::transport::LinkKind;
  const CompressionConfig compression =
      bundle.cfg.transport.broadcast.compression;
  auto fast = bundle.make(algorithm);
  bundle.cfg.broadcast_to_devices = false;
  auto oracle = bundle.make(algorithm);
  const std::size_t n = fast->num_devices();
  const std::size_t push_bytes =
      compression.kind == CompressionKind::kNone
          ? 4 * fast->cloud_params().size()
          : middlefl::transport::compress_update(fast->cloud_params(),
                                                 compression)
                .bytes;
  VersionMatch versions;
  std::size_t broadcasts = 0;
  for (std::size_t t = 1; t <= steps; ++t) {
    if (t == warm_start_at) {
      std::vector<float> restart(fast->cloud_params().begin(),
                                 fast->cloud_params().end());
      for (float& w : restart) w *= 0.5f;
      const auto before = fast->transport().stats(LinkKind::kBroadcast);
      fast->warm_start(restart);
      oracle->warm_start(restart);
      // Both twins warm-start through the registry, so the reference here
      // is the adopt end state itself: out of band (no link charged), and
      // every device reads the one restart block with nothing of its own.
      EXPECT_EQ(fast->transport().stats(LinkKind::kBroadcast).transfers,
                before.transfers);
      for (std::size_t m = 0; m < n; ++m) {
        const Device device = fast->device(m);
        EXPECT_EQ(device.params().data(), fast->cloud_params().data());
        EXPECT_EQ(device.params_version(),
                  fast->cloud_snapshot()->version());
        EXPECT_TRUE(device.following());
      }
      EXPECT_EQ(fast->fleet().resident_devices(), 0u);
      expect_fleets_match(*fast, *oracle, versions, t);
    }
    const auto before = fast->transport().stats(LinkKind::kBroadcast);
    const bool synced = fast->step();
    ASSERT_EQ(oracle->step(), synced);
    const auto sent = fast->transport().stats(LinkKind::kBroadcast) - before;
    if (synced && t % bundle.cfg.cloud_interval == 0) {
      oracle_broadcast(*oracle, compression);
      EXPECT_EQ(sent.transfers, n);
      EXPECT_EQ(sent.bytes, n * push_bytes);
      ++broadcasts;
    } else {
      EXPECT_EQ(sent.transfers, 0u);
    }
    expect_fleets_match(*fast, *oracle, versions, t);
  }
  EXPECT_GE(broadcasts, 3u);
}

SimBundle broadcast_bundle() {
  SimBundle bundle(4, 16, 3);
  bundle.cfg.cloud_interval = 3;
  return bundle;
}

TEST(FleetBroadcast, MiddleMatchesAdoptOracle) {
  // MIDDLE's similarity selection reads the params and versions of every
  // candidate, non-selected followers included.
  run_against_adopt_oracle(broadcast_bundle(),
                           middlefl::core::Algorithm::kMiddle, 12);
}

TEST(FleetBroadcast, FedMesMatchesAdoptOracle) {
  // On a pool with one registry shard, so concurrent chains append to the
  // same detached list (results are pool- and shard-invariant; the
  // version pairing does not depend on draw order).
  middlefl::parallel::ThreadPool pool(4);
  SimBundle bundle = broadcast_bundle();
  bundle.cfg.parallel_devices = true;
  bundle.cfg.pool = &pool;
  bundle.cfg.fleet.shards = 1;
  run_against_adopt_oracle(bundle, middlefl::core::Algorithm::kFedMes, 60);
}

TEST(FleetBroadcast, CompressedBroadcastMatchesAdoptOracle) {
  SimBundle bundle = broadcast_bundle();
  bundle.cfg.transport.broadcast.compression.kind = CompressionKind::kQuant8;
  run_against_adopt_oracle(bundle, middlefl::core::Algorithm::kMiddle, 12);
}

TEST(FleetBroadcast, MidRunWarmStartMatchesAdoptOracle) {
  run_against_adopt_oracle(broadcast_bundle(),
                           middlefl::core::Algorithm::kMiddle, 12,
                           /*warm_start_at=*/5);
}

TEST(FleetBroadcast, AsyncBoundZeroMatchesAdoptOracle) {
  SimBundle bundle = broadcast_bundle();
  bundle.cfg.comm.async_cloud = true;
  bundle.cfg.comm.max_staleness = 0;
  run_against_adopt_oracle(bundle, middlefl::core::Algorithm::kMiddle, 12);
}

/// Copies every device's parameters and version when the serial cloud
/// stage republishes the last edge, immediately before the device
/// broadcast. The edge chains' own republishes run on pool workers (the
/// test uses a two-thread pool) and are ignored.
class PreBroadcastCapture final : public middlefl::core::EdgeModelSink {
 public:
  explicit PreBroadcastCapture(Simulation& sim) : sim_(sim) {}

  void on_edge_model(std::size_t edge,
                     const middlefl::core::Snapshot&) override {
    if (edge + 1 != sim_.num_edges() ||
        middlefl::parallel::ThreadPool::in_worker()) {
      return;
    }
    params.clear();
    versions.clear();
    for (std::size_t m = 0; m < sim_.num_devices(); ++m) {
      params.push_back(read_params(sim_.device(m)));
      versions.push_back(sim_.device(m).params_version());
    }
  }

  std::vector<std::vector<float>> params;
  std::vector<std::uint64_t> versions;

 private:
  Simulation& sim_;
};

TEST(FleetBroadcast, LostPushesKeepTheOldGlobal) {
  using middlefl::transport::LinkKind;
  middlefl::parallel::ThreadPool pool(2);
  SimBundle bundle = broadcast_bundle();
  bundle.cfg.transport.broadcast.loss_prob = 0.3;
  bundle.cfg.parallel_devices = true;
  bundle.cfg.pool = &pool;
  auto sim = bundle.make(middlefl::core::Algorithm::kMiddle);
  PreBroadcastCapture capture(*sim);
  sim->set_edge_model_sink(&capture);

  std::size_t lost_total = 0;
  std::size_t delivered_total = 0;
  for (std::size_t t = 1; t <= 12; ++t) {
    const auto before = sim->transport().stats(LinkKind::kBroadcast);
    if (!sim->step()) continue;
    SCOPED_TRACE("step " + std::to_string(t));
    const auto sent = sim->transport().stats(LinkKind::kBroadcast) - before;
    const std::uint64_t global = sim->cloud_snapshot()->version();
    const std::vector<float> global_params(sim->cloud_params().begin(),
                                           sim->cloud_params().end());
    std::size_t lost = 0;
    for (std::size_t m = 0; m < sim->num_devices(); ++m) {
      const Device device = sim->device(m);
      const std::vector<float> now = read_params(device);
      if (device.params_version() == global) {
        EXPECT_EQ(now, global_params) << "device " << m;
        ++delivered_total;
      } else {
        // Lost: still exactly the model it held before the sync — for a
        // device that followed the old broadcast, the old global.
        EXPECT_EQ(device.params_version(), capture.versions[m]);
        EXPECT_EQ(now, capture.params[m]) << "device " << m;
        ++lost;
      }
    }
    EXPECT_EQ(lost, sent.dropped);
    EXPECT_EQ(sent.transfers, sim->num_devices());
    lost_total += lost;
  }
  EXPECT_GT(lost_total, 0u);
  EXPECT_GT(delivered_total, 0u);
}

TEST(FleetBroadcast, DetachedCountIsDevicesWrittenSinceLastSync) {
  SimBundle bundle(4, 24, 3);
  bundle.cfg.cloud_interval = 3;
  auto sim = bundle.make(middlefl::core::Algorithm::kFedMes);
  middlefl::obs::MetricsRegistry metrics;
  middlefl::obs::Observability obs;
  obs.metrics = &metrics;
  sim->set_observability(obs);

  // No lost downloads: every selected device trains,
  // and training is the only write.
  std::set<std::size_t> written;
  for (std::size_t t = 1; t <= 9; ++t) {
    sim->step();
    for (const auto& selection : sim->last_selection()) {
      written.insert(selection.begin(), selection.end());
    }
    if (t % bundle.cfg.cloud_interval != 0) continue;
    SCOPED_TRACE("step " + std::to_string(t));
    EXPECT_EQ(sim->fleet().detached_devices(), written.size());
    EXPECT_LT(written.size(), sim->num_devices());
    double gauge = -1.0;
    for (const auto& [name, value] : metrics.snapshot().gauges) {
      if (name == "fleet.detached_devices") gauge = value;
    }
    EXPECT_EQ(gauge, static_cast<double>(written.size()));
    written.clear();
  }
}

TEST(FleetBroadcast, ErasedWhileDetachedIsSkipped) {
  DeviceRegistry registry;
  registry.configure(FleetConfig{.shards = 4});
  give_data(registry, 11);
  const Snapshot b0 = SnapshotStore::global().publish(ramp(32, 1.0f));
  registry.broadcast(b0);
  for (std::size_t id = 0; id < 11; ++id) {
    EXPECT_TRUE(registry.at(id).following());
  }
  // Three kinds of write: an own copy, an own copy rewritten from a span
  // of itself, and an adopt of another block.
  registry.at(2).set_params(ramp(32, 2.0f));
  Device five = registry.at(5);
  five.set_params(ramp(32, 3.0f));
  const std::span<const float> own = five.params();
  const std::uint64_t before = five.params_version();
  five.set_params(own);
  EXPECT_EQ(five.params().data(), own.data());
  EXPECT_EQ(read_params(five), ramp(32, 3.0f));
  EXPECT_NE(five.params_version(), before);
  registry.at(7).adopt(SnapshotStore::global().publish(ramp(32, 4.0f)));
  for (const std::size_t id : {2, 5, 7}) {
    EXPECT_FALSE(registry.at(id).following()) << "id " << id;
  }
  EXPECT_EQ(registry.hot_entries(), 3u);
  EXPECT_EQ(registry.resident_devices(), 2u);
  EXPECT_EQ(registry.materializations(), 2u);

  const Snapshot b1 = SnapshotStore::global().publish(ramp(32, 5.0f));
  registry.broadcast(b1);
  EXPECT_EQ(registry.detached_devices(), 3u);
  for (std::size_t id = 0; id < 11; ++id) {
    const Device device = registry.at(id);
    EXPECT_TRUE(device.following()) << "id " << id;
    EXPECT_EQ(device.params().data(), b1->span().data()) << "id " << id;
    EXPECT_EQ(device.params_version(), b1->version()) << "id " << id;
  }
  EXPECT_EQ(registry.resident_devices(), 0u);

  // Adopting another block detaches a device until the next broadcast.
  registry.at(10).adopt(b0);
  EXPECT_FALSE(registry.at(10).following());
  registry.broadcast(b0);
  EXPECT_EQ(registry.detached_devices(), 1u);
  EXPECT_EQ(registry.at(10).params().data(), b0->span().data());
  EXPECT_THROW(registry.broadcast(nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FleetColumns: cold devices are column entries; only detached devices hold
// a hot entry, which the rejoin returns to the pool.

TEST(FleetColumns, RejoinReturnsHotEntryAndNextWriteReusesItsBuffer) {
  // A broadcast that rejoins the device returns its hot entry; the next
  // round must still be bitwise equal to a private model that simply
  // loaded the new block, and its copy reuses the returned entry's buffer.
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  OracleFixture fx(sgd, {0});
  TwinPair pair = fx.make_pair(sgd);
  const Device& device = pair.device;
  const float* own = nullptr;

  for (std::size_t round = 0; round < 3; ++round) {
    if (round > 0) {
      std::vector<float> global(device.params().begin(),
                                device.params().end());
      for (float& w : global) w *= 0.75f;
      const Snapshot block = SnapshotStore::global().publish(global);
      fx.registry.broadcast(block);
      EXPECT_TRUE(device.following());
      EXPECT_EQ(fx.registry.hot_entries(), 0u);
      EXPECT_EQ(device.params().data(), block->span().data());
      pair.oracle.model->set_parameters(global);
    }
    Xoshiro256 rng_device(31 + round);
    Xoshiro256 rng_oracle(31 + round);
    const auto got = pair.device.train(3, 8, 0.05, rng_device);
    const auto want = pair.oracle.train(3, 8, 0.05, rng_oracle);
    expect_twins_equal(pair, got, want, round);
    EXPECT_EQ(fx.registry.hot_entries(), 1u);
    // The pooled entry comes back with its buffer: the copy a rejoined
    // device writes next reuses the storage of the one before it.
    if (round > 0) {
      EXPECT_EQ(device.params().data(), own);
    }
    own = device.params().data();
  }
}

TEST(FleetColumns, LosslessBroadcastReturnsEveryHotEntry) {
  // The per-device loop of a lossy broadcast: every device detaches, and
  // some write own copies (one of them adopting a block again after) before
  // the next lossless broadcast returns all of it.
  constexpr std::size_t kDevices = 40;
  DeviceRegistry registry;
  registry.configure(FleetConfig{.shards = 4});
  give_data(registry, kDevices);
  const Snapshot b0 = SnapshotStore::global().publish(ramp(32, 1.0f));
  registry.broadcast(b0);
  EXPECT_EQ(registry.hot_entries(), 0u);

  for (std::size_t id = 0; id < kDevices; ++id) {
    Device device = registry.at(id);
    device.detach();
    if (id % 3 != 0) device.set_params(ramp(32, 0.5f + id));
    if (id % 3 == 1) device.adopt(b0);
  }
  EXPECT_EQ(registry.hot_entries(), kDevices);
  // ids 2, 5, ..., 38 keep their own copy.
  EXPECT_EQ(registry.resident_devices(), 13u);
  EXPECT_EQ(registry.resident_peak(), 13u);
  EXPECT_EQ(registry.materializations(), 26u);

  const Snapshot b1 = SnapshotStore::global().publish(ramp(32, 2.0f));
  registry.broadcast(b1);
  EXPECT_EQ(registry.detached_devices(), kDevices);
  EXPECT_EQ(registry.hot_entries(), 0u);
  EXPECT_EQ(registry.resident_devices(), 0u);
}

TEST(FleetColumns, LossyBroadcastThenWarmStartReturnsEveryHotEntry) {
  // A lossy, compressed device broadcast pins every device in a hot entry
  // (delivered pushes install private copies, lost ones keep the old
  // model); warm_start is a lossless broadcast and returns them all.
  SimBundle bundle = broadcast_bundle();
  bundle.cfg.transport.broadcast.loss_prob = 0.3;
  bundle.cfg.transport.broadcast.compression.kind = CompressionKind::kQuant8;
  auto sim = bundle.make(middlefl::core::Algorithm::kMiddle);
  const std::size_t n = sim->num_devices();
  while (!sim->step()) {
  }
  EXPECT_EQ(sim->fleet().hot_entries(), n);
  EXPECT_GT(sim->fleet().resident_devices(), 0u);

  const std::vector<float> restart(sim->cloud_params().begin(),
                                   sim->cloud_params().end());
  sim->warm_start(restart);
  EXPECT_EQ(sim->fleet().detached_devices(), n);
  EXPECT_EQ(sim->fleet().hot_entries(), 0u);
  EXPECT_EQ(sim->fleet().resident_devices(), 0u);
}

TEST(FleetColumns, SelectionReadsDoNotCopy) {
  // MIDDLE's similarity selection reads every member's parameters, trained
  // or not; reading gives no device a copy. Only writes do (a blend or
  // local SGD on a device that was sharing a snapshot), at most one per
  // selected device per step.
  middlefl::parallel::ThreadPool pool(2);
  SimBundle bundle(4, 24, 3);
  bundle.cfg.cloud_interval = 10;
  bundle.cfg.parallel_devices = true;
  bundle.cfg.pool = &pool;
  auto sim = bundle.make(middlefl::core::Algorithm::kMiddle);
  std::uint64_t total = 0;
  for (std::size_t t = 1; t <= 15; ++t) {  // one sync, at step 10
    sim->step();
    SCOPED_TRACE("step " + std::to_string(t));
    const middlefl::obs::StepRecord& r = sim->last_step();
    EXPECT_GT(r.selected, 0u);
    EXPECT_LE(r.materializations, r.selected);
    total += r.materializations;
  }
  EXPECT_EQ(sim->fleet().materializations(), total);

  // A device trained in the last step holds its own copy until the next
  // sync, and reading it twice returns that buffer without a copy.
  std::size_t m = sim->num_devices();
  for (const auto& selection : sim->last_selection()) {
    if (!selection.empty()) m = selection.front();
  }
  ASSERT_LT(m, sim->num_devices());
  const Device device = sim->device(m);
  ASSERT_FALSE(device.shares_snapshot());
  const std::uint64_t before = sim->fleet().materializations();
  const float* first = device.params().data();
  EXPECT_EQ(device.params().data(), first);
  EXPECT_EQ(sim->fleet().materializations(), before);
}

TEST(FleetColumns, SetDataMakesEveryDeviceAFollowerOfTheBlock) {
  // set_data makes devices 0..n-1 present as cold followers; they read
  // nothing until the first broadcast gives them a block, then every one
  // reads its bytes and version with no hot entry of its own.
  constexpr std::size_t kDevices = 1000;
  DeviceRegistry registry;
  give_data(registry, kDevices);
  EXPECT_EQ(registry.size(), kDevices);
  EXPECT_THROW(registry.at(0), std::logic_error);
  const Snapshot b = SnapshotStore::global().publish(ramp(32, 1.0f));
  registry.broadcast(b);
  for (std::size_t id = 0; id < kDevices; ++id) {
    const Device device = registry.at(id);
    EXPECT_TRUE(device.following()) << "id " << id;
    EXPECT_EQ(device.params().data(), b->span().data()) << "id " << id;
    EXPECT_EQ(device.params_version(), b->version()) << "id " << id;
    EXPECT_FALSE(device.stat_utility().has_value()) << "id " << id;
  }
  EXPECT_EQ(registry.hot_entries(), 0u);
  EXPECT_EQ(registry.detached_devices(), 0u);
  EXPECT_THROW(registry.at(kDevices), std::out_of_range);
}

TEST(FleetColumns, SetDataRejectsAnEmptyListNamingTheFirstEmptyDevice) {
  // The list layout is checked in set_data's one pass over the lists: the
  // error names the first empty device, and the registry stays empty.
  middlefl::data::Partition partition;
  partition.device_indices = {{0, 1}, {2}, {}, {3}, {}};
  DeviceRegistry registry;
  try {
    registry.set_data(shared_data(), std::move(partition));
    FAIL() << "expected an empty-partition error";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Device 2: empty data partition");
  }
  EXPECT_TRUE(registry.empty());
  // An empty window is every device's: the layout needs one check.
  middlefl::data::Partition windows;
  windows.window_devices = 4;
  windows.window_size = 0;
  try {
    registry.set_data(shared_data(), std::move(windows));
    FAIL() << "expected an empty-partition error";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Device 0: empty data partition");
  }
  EXPECT_TRUE(registry.empty());
}

TEST(FleetColumns, ColdFleetHoldsNoHotEntries) {
  // 200k devices: construction leaves every device a follower (no hot
  // entry, no similarity-cache row for an id-only strategy), and one step
  // detaches at most the K * E devices it selected — from concurrent
  // chains on a two-worker pool.
  constexpr std::size_t kDevices = 200'000;
  constexpr std::size_t kEdges = 8;
  constexpr std::size_t kSelect = 4;
  const middlefl::data::Dataset train = SimBundle::make_data(4, 60, 0);
  const middlefl::data::Dataset test = SimBundle::make_data(4, 25, 1);
  middlefl::nn::ModelSpec spec;
  spec.arch = middlefl::nn::ModelArch::kMlp;
  spec.input_shape = middlefl::tensor::Shape{1, 6, 6};
  spec.num_classes = 4;
  spec.hidden = 16;
  middlefl::core::SimulationConfig cfg;
  cfg.select_per_edge = kSelect;
  cfg.local_steps = 2;
  cfg.batch_size = 8;
  cfg.eval_edges = false;
  middlefl::parallel::ThreadPool pool(2);
  cfg.parallel_devices = true;
  cfg.pool = &pool;
  auto mobility = std::make_unique<middlefl::mobility::MarkovMobility>(
      middlefl::data::assign_edges_uniform(kDevices, kEdges, 3), kEdges, 0.1,
      14);
  const middlefl::optim::Sgd sgd({.learning_rate = 0.05, .momentum = 0.9});
  Simulation sim(cfg, spec, sgd, train,
                 middlefl::data::partition_fleet_window(train, kDevices, 16),
                 test, std::move(mobility),
                 middlefl::core::make_algorithm(
                     middlefl::core::Algorithm::kFedMes));
  EXPECT_EQ(sim.num_devices(), kDevices);
  EXPECT_EQ(sim.fleet().hot_entries(), 0u);
  EXPECT_EQ(sim.similarity_cache().size(), 0u);

  sim.step();
  EXPECT_GT(sim.fleet().hot_entries(), 0u);
  EXPECT_LE(sim.fleet().hot_entries(), kSelect * kEdges);
}

/// A registry of `devices` followers of a fresh 32-float block.
Snapshot fill_registry(DeviceRegistry& registry, std::size_t devices) {
  give_data(registry, devices);
  const Snapshot block = SnapshotStore::global().publish(ramp(32, 1.0f));
  registry.broadcast(block);
  return block;
}

TEST(FleetColumns, SlotsAcrossChunkBoundariesKeepTheirEntries) {
  // One shard hands out slots 0..599 in detach order, across the slab's
  // chunk boundaries: every entry stays where it was written while later
  // slots open new chunks.
  constexpr std::size_t kDevices = 600;
  DeviceRegistry registry;
  registry.configure(FleetConfig{.shards = 1});
  fill_registry(registry, kDevices);
  std::vector<const float*> own(kDevices);
  for (std::size_t id = 0; id < kDevices; ++id) {
    Device device = registry.at(id);
    device.set_params(ramp(32, static_cast<float>(id)));
    own[id] = device.params().data();
  }
  EXPECT_EQ(registry.hot_entries(), kDevices);
  EXPECT_EQ(registry.resident_devices(), kDevices);
  for (std::size_t id = 0; id < kDevices; ++id) {
    const Device device = registry.at(id);
    EXPECT_EQ(device.params().data(), own[id]) << "id " << id;
    EXPECT_EQ(read_params(device), ramp(32, static_cast<float>(id)))
        << "id " << id;
  }
}

TEST(FleetColumns, BroadcastRecyclesSlotsWithTheirOwnCapacity) {
  // The slots a broadcast frees go back to their shards, and the next
  // writes take them again: the own buffers they kept are reused, so a
  // second round of writes allocates no parameter storage.
  constexpr std::size_t kDevices = 300;
  DeviceRegistry registry;
  registry.configure(FleetConfig{.shards = 4});
  fill_registry(registry, kDevices);
  std::set<const float*> first;
  for (std::size_t id = 0; id < kDevices; ++id) {
    Device device = registry.at(id);
    device.set_params(ramp(32, 0.5f + static_cast<float>(id)));
    first.insert(device.params().data());
  }
  ASSERT_EQ(first.size(), kDevices);

  registry.broadcast(SnapshotStore::global().publish(ramp(32, 2.0f)));
  EXPECT_EQ(registry.hot_entries(), 0u);
  EXPECT_EQ(registry.resident_devices(), 0u);

  // Reversed order: each shard pops its freed slots in another order, and
  // every buffer is still one of the first round's.
  std::set<const float*> second;
  for (std::size_t id = kDevices; id-- > 0;) {
    Device device = registry.at(id);
    device.set_params(ramp(32, 3.0f + static_cast<float>(id)));
    second.insert(device.params().data());
    EXPECT_EQ(read_params(device), ramp(32, 3.0f + static_cast<float>(id)));
  }
  EXPECT_EQ(second, first);
  EXPECT_EQ(registry.hot_entries(), kDevices);
}

TEST(FleetColumns, ConcurrentAttachesFromTwoWorkers) {
  // Two workers detach and write disjoint devices at once: fresh slots
  // from the shared counter, chunks opened by whichever worker reaches
  // them first, and per-shard free lists after a broadcast.
  constexpr std::size_t kDevices = 2000;
  middlefl::parallel::ThreadPool pool(2);
  DeviceRegistry registry;
  registry.configure(FleetConfig{.shards = 4});
  fill_registry(registry, kDevices);
  for (std::size_t round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const float base = static_cast<float>(round * kDevices);
    middlefl::parallel::parallel_for(
        &pool, 0, kDevices, [&](std::size_t id) {
          registry.at(id).set_params(ramp(32, base + static_cast<float>(id)));
        });
    EXPECT_EQ(registry.hot_entries(), kDevices);
    EXPECT_EQ(registry.resident_devices(), kDevices);
    for (std::size_t id = 0; id < kDevices; ++id) {
      ASSERT_EQ(read_params(registry.at(id)),
                ramp(32, base + static_cast<float>(id)))
          << "id " << id;
    }
    registry.broadcast(SnapshotStore::global().publish(ramp(32, 9.0f)));
    EXPECT_EQ(registry.detached_devices(), kDevices);
    EXPECT_EQ(registry.hot_entries(), 0u);
  }
}

TEST(FleetColumns, StatUtilityOnlyWhenSelectionReadsIt) {
  // Random selection (FedMes) never reads candidate metadata, so the
  // simulation keeps no stat-utility column and trained devices report
  // none. Oort keeps the column, and its values are the recorded bits.
  const SimBundle bundle;
  auto random = bundle.make(middlefl::core::Algorithm::kFedMes);
  for (int t = 0; t < 7; ++t) random->step();
  EXPECT_FALSE(random->fleet().tracks_stat_utility());
  EXPECT_GT(random->fleet().materializations(), 0u);
  for (std::size_t m = 0; m < random->num_devices(); ++m) {
    EXPECT_FALSE(random->device(m).stat_utility().has_value()) << "m " << m;
  }

  // The utility bits after 7 Oort steps, per device, for the two codegen
  // variants the goldens record (native and portable gcc 12; see
  // pipeline_test's GoldenParity).
  constexpr std::size_t kDevices = 12;
  const std::uint64_t kRecorded[2][kDevices] = {
      {0x4051c7e01059b8bf, 0x4054e2ff15348b6b, 0x4053a7acad2589fc,
       0x405889a4803c7754, 0x40534a0de59c5fe8, 0x405a356fc123d929,
       0x40572a480b1cdfad, 0x40544672e2b84082, 0x40522c11314d98e9,
       0x4056557f5465a0c6, 0x4055743fd4059258, 0x4054ef9124cf9a77},
      {0x4051c7dffe953897, 0x4054e2ff1fd249a8, 0x4053a7aca023bb90,
       0x405889a490045d51, 0x40534a0de36d32be, 0x405a356fb6032736,
       0x40572a48126349a5, 0x40544672e710f7a7, 0x40522c112c557c85,
       0x4056557f4f96951f, 0x4055743fdf7bbd9e, 0x4054ef9120e17ce2}};
  auto oort = bundle.make(middlefl::core::Algorithm::kOort);
  for (int t = 0; t < 7; ++t) oort->step();
  EXPECT_TRUE(oort->fleet().tracks_stat_utility());
  ASSERT_EQ(oort->num_devices(), kDevices);
  std::vector<std::uint64_t> bits(kDevices);
  for (std::size_t m = 0; m < kDevices; ++m) {
    const std::optional<double> utility = oort->device(m).stat_utility();
    ASSERT_TRUE(utility.has_value()) << "m " << m;  // all trained by step 7
    std::memcpy(&bits[m], &*utility, sizeof(double));
  }
  for (const auto& variant : kRecorded) {
    if (std::equal(bits.begin(), bits.end(), variant)) return;
  }
  GTEST_SKIP() << "Oort stat utilities match no recorded codegen variant "
                  "(this host's FP codegen is unrecorded; see "
                  "tests/README.md): device 0 bits 0x"
               << std::hex << bits[0];
}

TEST(FleetColumns, TrackStatUtilityIsConstructionTimeOnly) {
  DeviceRegistry registry;
  EXPECT_TRUE(registry.tracks_stat_utility());
  registry.track_stat_utility(false);
  fill_registry(registry, 2);
  EXPECT_FALSE(registry.at(0).stat_utility().has_value());
  EXPECT_THROW(registry.track_stat_utility(true), std::logic_error);
}

}  // namespace
