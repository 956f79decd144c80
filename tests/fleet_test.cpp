// Device state (core/fleet.hpp): at-rest codec round-trips, bitwise
// equality of Device::train with a private-model oracle, whole-run fleet
// accounting, and DeviceRegistry invariants under id churn.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/simulation.hpp"
#include "data/partition.hpp"
#include "data/sampler.hpp"
#include "nn/loss.hpp"
#include "nn/model_factory.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "parallel/rng.hpp"
#include "sim_fixture.hpp"
#include "transport/compression.hpp"

namespace {

using middlefl::core::Device;
using middlefl::core::DeviceRegistry;
using middlefl::core::DeviceTrainStats;
using middlefl::core::FleetConfig;
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
// At-rest codec round-trips

TEST(AtRestCodec, LosslessRoundTripsBitwise) {
  const std::vector<float> w = ramp(257, 2.5f);
  EncodedDelta delta;
  middlefl::transport::encode_delta(w, CompressionConfig{}, delta);
  EXPECT_EQ(delta.bytes(), 4 * w.size());

  std::vector<float> out(w.size(), -1.0f);
  middlefl::transport::decode_delta_into(delta, out);
  EXPECT_EQ(std::memcmp(out.data(), w.data(), w.size() * sizeof(float)), 0);

  // decode_delta_onto with kNone installs verbatim too — the base must not
  // perturb the lossless path (base + (w - base) != w in float).
  const std::vector<float> base = ramp(257, 1.0f);
  std::vector<float> onto(w.size(), -1.0f);
  middlefl::transport::decode_delta_onto(delta, base, onto);
  EXPECT_EQ(std::memcmp(onto.data(), w.data(), w.size() * sizeof(float)), 0);
}

TEST(AtRestCodec, Quant8AccumulateDecodeStaysInBounds) {
  // Simulate the settle cycle: w diverges from base, the divergence is
  // quantized at rest, and decode reconstructs base + recon. The error per
  // coordinate is bounded by half a quantization bucket.
  const std::vector<float> base = ramp(500, 1.0f);
  std::vector<float> w = base;
  middlefl::parallel::Xoshiro256 rng(7);
  float max_mag = 0.0f;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto nudge = static_cast<float>(rng.uniform() - 0.5) * 0.2f;
    w[i] += nudge;
    max_mag = std::max(max_mag, std::abs(nudge));
  }

  std::vector<float> diff(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) diff[i] = w[i] - base[i];
  EncodedDelta delta;
  middlefl::transport::encode_delta(
      diff, CompressionConfig{.kind = CompressionKind::kQuant8}, delta);
  EXPECT_EQ(delta.bytes(), w.size() + 4);
  EXPECT_GT(delta.scale, 0.0f);

  std::vector<float> out(w.size());
  middlefl::transport::decode_delta_onto(delta, base, out);
  const float bound = max_mag / 127.0f;  // scale = max|d|/127, error <= scale
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(out[i], w[i], bound) << "coordinate " << i;
  }
}

TEST(AtRestCodec, TopKDecodePatchesExactlyKCoordinates) {
  const std::vector<float> base = ramp(200, 1.0f);
  std::vector<float> diff(base.size(), 0.0f);
  // A sparse divergence: 10 touched coordinates with distinct magnitudes.
  for (std::size_t i = 0; i < 10; ++i) {
    diff[i * 17] = (i % 2 == 0 ? 1.0f : -1.0f) * static_cast<float>(i + 1);
  }
  EncodedDelta delta;
  middlefl::transport::encode_delta(
      diff,
      CompressionConfig{.kind = CompressionKind::kTopK,
                        .top_k_fraction = 0.05},
      delta);
  const std::size_t k = delta.indices.size();
  EXPECT_EQ(k, 10u);  // 5% of 200
  EXPECT_EQ(delta.bytes(), 8 * k);
  EXPECT_TRUE(std::is_sorted(delta.indices.begin(), delta.indices.end()));

  std::vector<float> out(base.size());
  middlefl::transport::decode_delta_onto(delta, base, out);
  std::size_t patched = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (out[i] != base[i]) {
      ++patched;
      EXPECT_EQ(out[i], base[i] + diff[i]) << "coordinate " << i;
    }
  }
  EXPECT_LE(patched, k);
}

// ---------------------------------------------------------------------------
// LazyTrainingOracle: Device::train — pooled runtime, snapshot + at-rest
// delta, saved optimizer slots and dropout cursor — against a reference
// device that owns a private model and optimizer for its whole life.

middlefl::data::Dataset& shared_data() {
  static middlefl::data::Dataset data = SimBundle::make_data(4, 30, 3);
  return data;
}

/// The reference trainer: a private nn::Sequential clone and optimizer
/// clone that persist across rounds, driven through the I-step SGD loop
/// written out in full (sample, forward, cross-entropy, backward, FedProx
/// term, global-norm clip, optimizer step).
struct OracleDevice {
  middlefl::data::DataView data;
  std::unique_ptr<middlefl::nn::Sequential> model;
  std::unique_ptr<middlefl::optim::Optimizer> optimizer;
  middlefl::data::Minibatch batch;

  DeviceTrainStats train(std::size_t local_steps, std::size_t batch_size,
                         double learning_rate, bool reset_optimizer,
                         Xoshiro256& rng, double prox_mu, double clip_norm) {
    if (reset_optimizer) optimizer->reset();
    optimizer->set_learning_rate(learning_rate);
    const std::vector<float> anchor(model->parameters().begin(),
                                    model->parameters().end());
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
      const std::span<float> params = model->parameters();
      const std::span<float> grads = model->gradients();
      if (prox_mu > 0.0) {
        const auto mu = static_cast<float>(prox_mu);
        for (std::size_t i = 0; i < params.size(); ++i) {
          grads[i] += mu * (params[i] - anchor[i]);
        }
      }
      if (clip_norm > 0.0) {
        double norm_sq = 0.0;
        for (float g : grads) norm_sq += static_cast<double>(g) * g;
        const double norm = std::sqrt(norm_sq);
        if (norm > clip_norm) {
          const auto scale = static_cast<float>(clip_norm / norm);
          for (float& g : grads) g *= scale;
        }
      }
      optimizer->step(params, grads);
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

struct OracleFixture {
  middlefl::nn::ModelSpec spec;
  std::unique_ptr<middlefl::nn::Sequential> init;
  Snapshot base;
  DeviceRegistry registry;

  explicit OracleFixture(const middlefl::optim::Optimizer& prototype,
                         float dropout) {
    spec.arch = middlefl::nn::ModelArch::kMlp;
    spec.input_shape = middlefl::tensor::Shape{1, 6, 6};
    spec.num_classes = 4;
    spec.hidden = 16;
    spec.dropout = dropout;
    init = middlefl::nn::build_model(spec, 11);
    base = SnapshotStore::global().publish(init->parameters());
    registry.set_prototypes(*init, prototype);
  }

  TwinPair make_pair(std::size_t id, std::size_t first,
                     const middlefl::optim::Optimizer& prototype) {
    const auto view =
        middlefl::data::DataView::window(shared_data(), first, 40);
    return TwinPair{Device(id, view, base, &registry),
                    OracleDevice{view, init->clone(), prototype.clone_config(),
                                 {}}};
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
  // Momentum SGD with state carried across rounds, dropout, FedProx and
  // clipping: every piece of per-device state the pooled runtime must save
  // and restore around a round.
  const middlefl::optim::Sgd sgd(
      {.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 1e-4});
  OracleFixture fx(sgd, 0.25f);
  ASSERT_TRUE(fx.registry.model_has_dropout());
  TwinPair a = fx.make_pair(3, 0, sgd);
  TwinPair b = fx.make_pair(9, 40, sgd);
  constexpr double kProxMu = 0.05;
  constexpr double kClip = 0.5;

  for (std::size_t round = 0; round < 4; ++round) {
    if (round == 2) {
      // A between-round install (the on-device blend write path) on one
      // twin pair, so the next round starts from a private, settled copy.
      std::vector<float> blended(a.device.params().begin(),
                                 a.device.params().end());
      for (float& w : blended) w *= 0.5f;
      a.device.set_params(blended);
      a.device.settle();
      a.oracle.model->set_parameters(blended);
    }
    // Both devices share one checked-out runtime, interleaved: each must
    // leave no trace in it the other could pick up.
    middlefl::core::DeviceRuntime* runtime = fx.registry.acquire_runtime();
    for (TwinPair* pair : {&a, &b}) {
      const std::uint64_t seed = 100 * round + pair->device.id();
      Xoshiro256 rng_device(seed);
      Xoshiro256 rng_oracle(seed);
      const auto got = pair->device.train(3, 8, 0.05, false, rng_device,
                                          kProxMu, kClip, runtime);
      const auto want = pair->oracle.train(3, 8, 0.05, false, rng_oracle,
                                           kProxMu, kClip);
      expect_twins_equal(*pair, got, want, round);
    }
    fx.registry.release_runtime(runtime);
    // Settle between rounds: the next round decodes the at-rest delta.
    a.device.settle();
    b.device.settle();
    EXPECT_FALSE(a.device.resident());
    EXPECT_GT(a.device.at_rest_bytes(), 0u);
  }
}

TEST(LazyTrainingOracle, AdoptAndResetRoundsMatchPrivateModels) {
  // Adam carries a step count and two moment slots across rounds, the
  // device acquires its own runtime, a broadcast adopt rebases it on a new
  // snapshot mid-run, and the final round resets the optimizer. (A reset
  // round's state is not carried into later rounds — see Device::train —
  // so the reset round comes last, where the oracle agrees.)
  const middlefl::optim::Adam adam({.learning_rate = 0.01});
  OracleFixture fx(adam, 0.0f);
  TwinPair pair = fx.make_pair(1, 20, adam);

  for (std::size_t round = 0; round < 4; ++round) {
    if (round == 2) {
      std::vector<float> global(pair.device.params().begin(),
                                pair.device.params().end());
      for (float& w : global) w = -w;
      pair.device.adopt(SnapshotStore::global().publish(global));
      EXPECT_TRUE(pair.device.shares_snapshot());
      pair.oracle.model->set_parameters(global);
    }
    const bool reset = round == 3;
    Xoshiro256 rng_device(7 + round);
    Xoshiro256 rng_oracle(7 + round);
    const auto got =
        pair.device.train(2, 8, 0.01, reset, rng_device, 0.0, 0.0);
    const auto want =
        pair.oracle.train(2, 8, 0.01, reset, rng_oracle, 0.0, 0.0);
    expect_twins_equal(pair, got, want, round);
    pair.device.settle();
  }
}

// ---------------------------------------------------------------------------
// LazyFleet: whole-simulation fleet behaviour

TEST(LazyFleet, QuantizedAtRestStaysCloseToLossless) {
  SimBundle bundle;
  bundle.cfg.fleet.at_rest.kind = CompressionKind::kQuant8;
  auto sim = bundle.make(middlefl::core::Algorithm::kMiddle);
  const middlefl::core::RunHistory history = sim->run();
  ASSERT_FALSE(history.points.empty());
  // The lossy at-rest codec must not derail training: the run completes
  // and the final model is finite everywhere.
  for (const float v : sim->cloud_params()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  std::size_t at_rest = 0;
  for (std::size_t m = 0; m < sim->num_devices(); ++m) {
    at_rest += sim->device(m).at_rest_bytes();
  }
  // Quantized storage: at most ~1 byte per parameter per settled device.
  EXPECT_LE(at_rest, sim->num_devices() * (sim->cloud_params().size() + 4));
}

TEST(LazyFleet, FleetAccountingTracksSelection) {
  SimBundle bundle;
  auto sim = bundle.make(middlefl::core::Algorithm::kFedMes);
  sim->step();
  // K=2 over 3 edges: at most 6 selected devices materialize in step 1
  // (fewer when an edge has < K members).
  const auto& fleet = sim->fleet();
  EXPECT_GT(fleet.materializations(), 0u);
  EXPECT_LE(fleet.materializations(), 6u);
  // Every chain settles its members after aggregation: nothing stays
  // resident between steps.
  EXPECT_EQ(fleet.resident_devices(), 0u);
  EXPECT_GT(fleet.delta_bytes_at_rest(), 0u);
}

// ---------------------------------------------------------------------------
// Registry invariants under churned ids

Device make_lazy(std::size_t id, const Snapshot& base,
                 DeviceRegistry* registry) {
  return Device(id, middlefl::data::DataView::window(shared_data(), 0, 8),
                base, registry);
}

TEST(RegistryChurn, InsertEraseReinsertKeepsLookupsExact) {
  DeviceRegistry registry;
  registry.configure(FleetConfig{.shards = 4});
  const std::vector<float> init(64, 0.25f);
  const Snapshot base = SnapshotStore::global().publish(init);

  // Sparse, shard-colliding ids well past the dense fast path, plus a few
  // sequential ones.
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 64; ++i) ids.push_back(i);
  for (std::size_t i = 0; i < 64; ++i) ids.push_back((i + 1) * 0x10000021);
  for (const std::size_t id : ids) {
    registry.insert(make_lazy(id, base, &registry));
  }
  EXPECT_EQ(registry.size(), ids.size());
  EXPECT_THROW(registry.insert(make_lazy(ids[7], base, &registry)),
               std::invalid_argument);

  // Erase every third id, confirm the others still resolve.
  std::size_t erased = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    EXPECT_TRUE(registry.erase(ids[i]));
    ++erased;
  }
  EXPECT_EQ(registry.size(), ids.size() - erased);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(registry.find(ids[i]), nullptr) << "id " << ids[i];
      EXPECT_FALSE(registry.erase(ids[i]));
    } else {
      const Device* device = registry.find(ids[i]);
      ASSERT_NE(device, nullptr) << "id " << ids[i];
      EXPECT_EQ(device->id(), ids[i]);
    }
  }

  // Reinsert over the tombstones: recycled slots must key correctly.
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    registry.insert(make_lazy(ids[i], base, &registry));
  }
  EXPECT_EQ(registry.size(), ids.size());
  for (const std::size_t id : ids) {
    EXPECT_EQ(registry.at(id).id(), id);
  }
  EXPECT_THROW(registry.at(0xdeadbeefULL), std::out_of_range);
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
  // configure() is construction-time only.
  const std::vector<float> init(8, 0.0f);
  const Snapshot base = SnapshotStore::global().publish(init);
  registry.insert(make_lazy(1, base, &registry));
  EXPECT_THROW(registry.configure(FleetConfig{}), std::logic_error);
}

TEST(RegistryChurn, ResidentFreelistRecyclesBuffers) {
  DeviceRegistry registry;
  registry.configure(FleetConfig{});
  const std::vector<float> init(32, 1.0f);
  const Snapshot base = SnapshotStore::global().publish(init);
  registry.insert(make_lazy(5, base, &registry));

  middlefl::tensor::Tensor a = registry.acquire_resident(5);
  EXPECT_EQ(registry.materializations(), 1u);
  EXPECT_EQ(registry.resident_devices(), 1u);
  const float* raw = a.data().data();
  registry.release_resident(5, std::move(a));
  EXPECT_EQ(registry.resident_devices(), 0u);

  // Same shard, same buffer back.
  middlefl::tensor::Tensor b = registry.acquire_resident(5);
  EXPECT_EQ(registry.materializations(), 2u);
  EXPECT_EQ(b.data().data(), raw);
  registry.release_resident(5, std::move(b));
}

}  // namespace
