// Determinism pin: a simulation run must be bitwise identical whether
// device training / edge aggregation run on the thread pool or serially.
// This guards the whole deterministic-parallelism design — per-row gemm
// independence, fixed-chunk reductions, per-task result slots reduced in
// task order — against regressions that would make results depend on
// thread count or scheduling.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim_fixture.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::core::RunHistory;
using middlefl::core::Simulation;
using middlefl::testing::SimBundle;

void expect_spans_equal(std::span<const float> a, std::span<const float> b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " element " << i;
  }
}

void expect_identical_runs(
    Algorithm algorithm,
    const std::function<void(middlefl::core::SimulationConfig&)>& tweak = {}) {
  SimBundle bundle;
  bundle.cfg.total_steps = 8;
  bundle.cfg.cloud_interval = 4;
  bundle.cfg.eval_every = 4;
  // Exercise the uplink loss RNG path.
  bundle.cfg.transport.wireless_up.loss_prob = 0.1;
  if (tweak) tweak(bundle.cfg);

  bundle.cfg.parallel_devices = false;
  auto serial = bundle.make(algorithm);
  bundle.cfg.parallel_devices = true;
  auto parallel = bundle.make(algorithm);

  const RunHistory history_serial = serial->run();
  const RunHistory history_parallel = parallel->run();

  ASSERT_EQ(history_serial.points.size(), history_parallel.points.size());
  for (std::size_t i = 0; i < history_serial.points.size(); ++i) {
    EXPECT_EQ(history_serial.points[i].accuracy,
              history_parallel.points[i].accuracy)
        << "eval point " << i;
    EXPECT_EQ(history_serial.points[i].loss, history_parallel.points[i].loss)
        << "eval point " << i;
  }

  expect_spans_equal(serial->cloud_params(), parallel->cloud_params(),
                     "cloud params");
  for (std::size_t n = 0; n < serial->num_edges(); ++n) {
    expect_spans_equal(serial->edge_params(n), parallel->edge_params(n),
                       "edge params");
  }
  for (std::size_t m = 0; m < serial->num_devices(); ++m) {
    expect_spans_equal(serial->device(m).params(),
                       parallel->device(m).params(), "device params");
  }

  // Serially-reduced counters from the parallel loops must agree too.
  EXPECT_EQ(serial->on_device_aggregations(),
            parallel->on_device_aggregations());
  EXPECT_EQ(serial->mean_blend_weight(), parallel->mean_blend_weight());
  EXPECT_EQ(serial->failed_uploads(), parallel->failed_uploads());
  EXPECT_EQ(serial->upload_bytes(), parallel->upload_bytes());

  // Per-link transport accounting (relaxed atomic counters in the parallel
  // stages) must also be scheduling-independent.
  for (const auto kind : middlefl::transport::kAllLinkKinds) {
    const auto s = serial->transport().stats(kind);
    const auto p = parallel->transport().stats(kind);
    EXPECT_EQ(s.transfers, p.transfers) << to_string(kind);
    EXPECT_EQ(s.dropped, p.dropped) << to_string(kind);
    EXPECT_EQ(s.bytes, p.bytes) << to_string(kind);
  }
}

TEST(Determinism, MiddleParallelMatchesSerialBitwise) {
  expect_identical_runs(Algorithm::kMiddle);
}

TEST(Determinism, HierFavgParallelMatchesSerialBitwise) {
  expect_identical_runs(Algorithm::kHierFavg);
}

TEST(Determinism, LossyTransportPoliciesParallelMatchesSerialBitwise) {
  // Loss on every link plus uplink compression: loss draws pull from
  // (seed, entity, step)-keyed streams inside parallel stage bodies, so
  // outcomes must not depend on scheduling.
  expect_identical_runs(Algorithm::kMiddle,
                        [](middlefl::core::SimulationConfig& cfg) {
                          auto& tp = cfg.transport;
                          tp.wireless_down.loss_prob = 0.2;
                          tp.wireless_up.loss_prob = 0.15;
                          tp.wireless_up.compression = {
                              middlefl::transport::CompressionKind::kTopK,
                              0.25};
                          tp.wan_up.loss_prob = 0.1;
                          tp.wan_down.loss_prob = 0.1;
                          tp.broadcast.loss_prob = 0.1;
                        });
}

TEST(Determinism, UplinkLatencyParallelMatchesSerialBitwise) {
  // Delayed uploads enqueue into per-edge delay-queue shards from the
  // parallel Upload stage and drain FIFO; arrival order must be fixed.
  expect_identical_runs(Algorithm::kMiddle,
                        [](middlefl::core::SimulationConfig& cfg) {
                          cfg.transport.wireless_up.latency_steps = 2;
                          cfg.transport.wan_up.latency_steps = 4;
                        });
}

TEST(Determinism, TaskGraphIdenticalAcrossPoolSizes) {
  // The per-edge chain fan-out (parallel_for, one edge claimed at a time)
  // must produce the serial result at every worker count: chains of
  // different edges interleave arbitrarily, but all cross-chain
  // reductions replay in canonical edge order. (The test name predates
  // the fan-out.)
  SimBundle bundle;
  bundle.cfg.total_steps = 8;
  bundle.cfg.cloud_interval = 4;
  bundle.cfg.eval_every = 4;
  bundle.cfg.transport.wireless_up.loss_prob = 0.1;
  bundle.cfg.transport.wireless_down.loss_prob = 0.2;

  bundle.cfg.parallel_devices = false;
  auto serial = bundle.make(Algorithm::kMiddle);
  const RunHistory reference = serial->run();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    middlefl::parallel::ThreadPool pool(threads);
    bundle.cfg.parallel_devices = true;
    bundle.cfg.pool = &pool;
    auto sim = bundle.make(Algorithm::kMiddle);
    const RunHistory history = sim->run();

    ASSERT_EQ(reference.points.size(), history.points.size())
        << threads << " threads";
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      EXPECT_EQ(reference.points[i].accuracy, history.points[i].accuracy)
          << threads << " threads, eval point " << i;
      EXPECT_EQ(reference.points[i].loss, history.points[i].loss)
          << threads << " threads, eval point " << i;
    }
    expect_spans_equal(serial->cloud_params(), sim->cloud_params(),
                       "cloud params");
    for (std::size_t n = 0; n < serial->num_edges(); ++n) {
      expect_spans_equal(serial->edge_params(n), sim->edge_params(n),
                         "edge params");
    }
    for (std::size_t m = 0; m < serial->num_devices(); ++m) {
      expect_spans_equal(serial->device(m).params(), sim->device(m).params(),
                         "device params");
    }
    EXPECT_EQ(serial->mean_blend_weight(), sim->mean_blend_weight())
        << threads << " threads";
    EXPECT_EQ(serial->lost_downloads(), sim->lost_downloads())
        << threads << " threads";
  }
}

TEST(Determinism, RepeatedRunsAreBitwiseIdentical) {
  // Same config, same seed, two fresh simulations: identical histories.
  SimBundle bundle;
  bundle.cfg.total_steps = 6;
  bundle.cfg.eval_every = 3;
  auto first = bundle.make(Algorithm::kMiddle);
  auto second = bundle.make(Algorithm::kMiddle);
  const RunHistory h1 = first->run();
  const RunHistory h2 = second->run();
  ASSERT_EQ(h1.points.size(), h2.points.size());
  for (std::size_t i = 0; i < h1.points.size(); ++i) {
    EXPECT_EQ(h1.points[i].accuracy, h2.points[i].accuracy);
    EXPECT_EQ(h1.points[i].loss, h2.points[i].loss);
  }
  expect_spans_equal(first->cloud_params(), second->cloud_params(),
                     "cloud params");
}

}  // namespace
