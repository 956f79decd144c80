// Substrate micro-benchmarks (google-benchmark): the kernels that dominate
// simulation wall-clock — GEMM, conv lowering and forward/backward, full
// local SGD steps, flat-vector aggregation and similarity, minibatch
// gathering, and thread-pool dispatch.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/aggregation.hpp"
#include "core/similarity.hpp"
#include "data/sampler.hpp"
#include "data/synthetic.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/model_factory.hpp"
#include "optim/sgd.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/blas.hpp"
#include "tensor/cpu_features.hpp"

namespace {

using namespace middlefl;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  parallel::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void BM_GemmSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(n * n, 0.0f);
  for (auto _ : state) {
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, n, n, n, 1.0f, a, b,
                 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}
BENCHMARK(BM_GemmSquare)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// Textbook triple loop — the before-kernel baseline the vectorized GEMM
/// path is measured against.
void naive_gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
                   const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 1);
  const auto b = random_vec(n * n, 2);
  std::vector<float> c(n * n, 0.0f);
  for (auto _ : state) {
    naive_gemm_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// The Linear::forward shape of the Fig-6 MLP (batch 8, 784 -> 48): NT with
/// a wide reduction, served by the pack-B + streaming-NN path.
void BM_GemmLinearForward(benchmark::State& state) {
  const std::size_t m = 8, n = 48, k = 784;
  const auto a = random_vec(m * k, 3);
  const auto b = random_vec(n * k, 4);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, m, n, k, 1.0f, a, b,
                 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          m * n * k);
}
BENCHMARK(BM_GemmLinearForward);

/// The fused Linear-forward epilogue (bias + ReLU + mask) against the same
/// GEMM followed by separate bias/ReLU sweeps — the memory-pass saving the
/// layer fusion buys on the Fig-6 hidden-layer shape (batch 8, 64 -> 48).
void BM_GemmFusedEpilogue(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  const std::size_t m = 8, n = 48, k = 64;
  const auto a = random_vec(m * k, 5);
  const auto b = random_vec(n * k, 6);
  const auto bias = random_vec(n, 7);
  std::vector<float> c(m * n, 0.0f);
  std::vector<std::uint8_t> mask(m * n, 0);
  for (auto _ : state) {
    if (fused) {
      tensor::GemmEpilogue epi;
      epi.col_bias = bias.data();
      epi.relu = true;
      epi.relu_mask = mask.data();
      tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, m, n, k, 1.0f, a,
                   b, 0.0f, c, nullptr, &epi);
    } else {
      tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, m, n, k, 1.0f, a,
                   b, 0.0f, c);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          float v = c[i * n + j] + bias[j];
          v = v > 0.0f ? v : 0.0f;
          c[i * n + j] = v;
          mask[i * n + j] = v > 0.0f ? 1 : 0;
        }
      }
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_GemmFusedEpilogue)->Arg(0)->Arg(1);

/// One GEMM shape through each ISA tier the host supports (0 = scalar,
/// 1 = AVX2, 2 = AVX-512): the speed the runtime dispatch buys. Tiers the
/// CPU lacks are clamped by force_isa and reported skipped.
void BM_GemmDispatchIsa(benchmark::State& state) {
  const auto want = static_cast<tensor::IsaLevel>(state.range(0));
  if (tensor::force_isa(want) != want) {
    tensor::clear_forced_isa();
    state.SkipWithError("ISA tier not supported on this host");
    return;
  }
  const std::size_t n = 128;
  const auto a = random_vec(n * n, 8);
  const auto b = random_vec(n * n, 9);
  std::vector<float> c(n * n, 0.0f);
  for (auto _ : state) {
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, n, n, n, 1.0f, a, b,
                 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  tensor::clear_forced_isa();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}
BENCHMARK(BM_GemmDispatchIsa)->Arg(0)->Arg(1)->Arg(2);

/// The small-NT kernel at its two CNN-2 training shapes (paper scale,
/// batch 16): Arg 0 is conv1's per-sample weight gradient (m x n x k =
/// 8 x 9 x 256, beta 1), Arg 1 the logits forward (16 x 10 x 64).
void BM_GemmSmallNt(benchmark::State& state) {
  const bool logits = state.range(0) != 0;
  const std::size_t m = logits ? 16 : 8;
  const std::size_t n = logits ? 10 : 9;
  const std::size_t k = logits ? 64 : 256;
  const float beta = logits ? 0.0f : 1.0f;
  const auto a = random_vec(m * k, 12);
  const auto b = random_vec(n * k, 13);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, m, n, k, 1.0f, a, b,
                 beta, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          m * n * k);
  state.SetLabel(logits ? "16x10x64" : "8x9x256");
}
BENCHMARK(BM_GemmSmallNt)->Arg(0)->Arg(1);

/// Conv2d's row-run im2col for one sample at CNN-2's two paper-scale
/// layers: Arg 0 is conv1 (1 -> 8 channels, 16 x 16), Arg 1 conv2 (8 -> 16
/// channels, 8 x 8); both 3 x 3, stride 1, padding 1.
void BM_Conv2dIm2col(benchmark::State& state) {
  const bool second = state.range(0) != 0;
  const std::size_t channels = second ? 8 : 1;
  const std::size_t side = second ? 8 : 16;
  nn::Conv2d conv(nn::Conv2dConfig{.in_channels = channels,
                                   .out_channels = 2 * channels,
                                   .kernel = 3,
                                   .stride = 1,
                                   .padding = 1});
  const tensor::Shape out = conv.build(tensor::Shape{channels, side, side});
  const auto sample = random_vec(channels * side * side, 14);
  std::vector<float> col(channels * 9 * out.dim(1) * out.dim(2));
  for (auto _ : state) {
    conv.im2col(sample.data(), col.data());
    benchmark::DoNotOptimize(col.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          col.size() * sizeof(float));
  state.SetLabel(second ? "conv2" : "conv1");
}
BENCHMARK(BM_Conv2dIm2col)->Arg(0)->Arg(1);

void BM_GemmTransB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 3);
  const auto b = random_vec(n * n, 4);
  std::vector<float> c(n * n, 0.0f);
  for (auto _ : state) {
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, n, n, n, 1.0f, a, b,
                 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTransB)->Arg(64)->Arg(128);

void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(n, 5);
  auto y = random_vec(n, 6);
  for (auto _ : state) {
    tensor::axpy(0.5f, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float) * 2);
}
BENCHMARK(BM_Axpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_CosineSimilarity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n, 7);
  const auto b = random_vec(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cosine_similarity(a, b));
  }
}
BENCHMARK(BM_CosineSimilarity)->Arg(1 << 12)->Arg(1 << 16);

/// Eq. 11 selection utility, fused one-pass kernel (the production path).
void BM_SelectionUtilityFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cloud = random_vec(n, 11);
  const auto local = random_vec(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::selection_utility(cloud, local));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float) * 2);
}
BENCHMARK(BM_SelectionUtilityFused)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/// The before-kernel: materialize Delta = w_m - w_c, then separate
/// dot/nrm2 sweeps (three passes plus a temporary vector).
void BM_SelectionUtilityMaterialized(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cloud = random_vec(n, 11);
  const auto local = random_vec(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::selection_utility_reference(cloud, local));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float) * 2);
}
BENCHMARK(BM_SelectionUtilityMaterialized)
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1 << 20);

/// Chunk-deterministic pool reductions vs their serial forms.
void BM_DotParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(n, 13);
  const auto y = random_vec(n, 14);
  parallel::ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::dot(x, y, &pool));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float) * 2);
}
BENCHMARK(BM_DotParallel)->Arg(1 << 16)->Arg(1 << 20);

void BM_Nrm2Parallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(n, 15);
  parallel::ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::nrm2(x, &pool));
  }
}
BENCHMARK(BM_Nrm2Parallel)->Arg(1 << 16)->Arg(1 << 20);

void BM_OnDeviceAggregate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto edge = random_vec(n, 9);
  const auto local = random_vec(n, 10);
  std::vector<float> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::on_device_aggregate(edge, local, out));
  }
}
BENCHMARK(BM_OnDeviceAggregate)->Arg(1 << 12)->Arg(1 << 16);

void BM_WeightedAverage(benchmark::State& state) {
  const auto models = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 1 << 14;
  std::vector<std::vector<float>> storage;
  storage.reserve(models);
  std::vector<core::WeightedModel> weighted;
  for (std::size_t i = 0; i < models; ++i) {
    storage.push_back(random_vec(n, 20 + i));
    weighted.push_back(core::WeightedModel{storage.back(), 1.0 + i});
  }
  std::vector<float> out(n);
  for (auto _ : state) {
    core::weighted_average(weighted, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_WeightedAverage)->Arg(5)->Arg(10)->Arg(50);

void BM_WeightedAverageParallel(benchmark::State& state) {
  const auto models = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 1 << 18;
  parallel::ThreadPool pool(4);
  std::vector<std::vector<float>> storage;
  storage.reserve(models);
  std::vector<core::WeightedModel> weighted;
  for (std::size_t i = 0; i < models; ++i) {
    storage.push_back(random_vec(n, 40 + i));
    weighted.push_back(core::WeightedModel{storage.back(), 1.0 + i});
  }
  std::vector<float> out(n);
  for (auto _ : state) {
    core::weighted_average(weighted, out, &pool);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_WeightedAverageParallel)->Arg(5)->Arg(10)->Arg(50);

void BM_ModelForward(benchmark::State& state) {
  nn::ModelSpec spec;
  spec.arch = state.range(0) == 0 ? nn::ModelArch::kMlp2 : nn::ModelArch::kCnn2;
  spec.input_shape = tensor::Shape{1, 16, 16};
  spec.num_classes = 10;
  spec.hidden = 48;
  auto model = nn::build_model(spec, 1);
  parallel::Xoshiro256 rng(2);
  const auto batch = tensor::Tensor::randn(tensor::Shape{16, 1, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&model->forward(batch, false));
  }
  state.SetLabel(nn::to_string(spec.arch));
}
BENCHMARK(BM_ModelForward)->Arg(0)->Arg(1);

void BM_LocalSgdStep(benchmark::State& state) {
  // One full forward+backward+update on a batch — the simulator's inner
  // loop body.
  nn::ModelSpec spec;
  spec.arch = state.range(0) == 0 ? nn::ModelArch::kMlp2 : nn::ModelArch::kCnn2;
  spec.input_shape = tensor::Shape{1, 16, 16};
  spec.num_classes = 10;
  spec.hidden = 48;
  auto model = nn::build_model(spec, 1);
  optim::Sgd sgd({.learning_rate = 0.01, .momentum = 0.9});
  parallel::Xoshiro256 rng(3);
  const auto batch = tensor::Tensor::randn(tensor::Shape{16, 1, 16, 16}, rng);
  std::vector<std::int32_t> labels(16);
  for (auto& l : labels) l = static_cast<std::int32_t>(rng.bounded(10));
  for (auto _ : state) {
    const auto& logits = model->forward(batch, true);
    auto loss = nn::softmax_cross_entropy(logits, labels);
    model->zero_grad();
    model->backward(loss.grad_logits);
    sgd.step(model->parameters(), model->gradients());
    benchmark::DoNotOptimize(model->parameters().data());
  }
  state.SetLabel(nn::to_string(spec.arch));
}
BENCHMARK(BM_LocalSgdStep)->Arg(0)->Arg(1);

void BM_SyntheticSample(benchmark::State& state) {
  const auto cfg = data::task_config(data::TaskKind::kCifar);
  const data::SyntheticGenerator generator(cfg);
  parallel::Xoshiro256 rng(4);
  std::vector<float> sample(generator.sample_shape().numel());
  for (auto _ : state) {
    generator.sample_into(static_cast<std::int32_t>(rng.bounded(10)), rng,
                          sample);
    benchmark::DoNotOptimize(sample.data());
  }
}
BENCHMARK(BM_SyntheticSample);

void BM_MinibatchGather(benchmark::State& state) {
  const auto cfg = data::task_config(data::TaskKind::kMnist);
  const data::SyntheticGenerator generator(cfg);
  const auto dataset = generator.generate(100, 0);
  const auto view = data::DataView::all(dataset);
  parallel::Xoshiro256 rng(5);
  for (auto _ : state) {
    auto batch = data::sample_minibatch(view, 16, rng);
    benchmark::DoNotOptimize(batch.features.data().data());
  }
}
BENCHMARK(BM_MinibatchGather);

void BM_ParallelForDispatch(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  parallel::ThreadPool pool(4);
  std::vector<double> sink(tasks, 0.0);
  for (auto _ : state) {
    parallel::parallel_for(pool, 0, tasks, [&sink](std::size_t i) {
      double acc = 0.0;
      for (int k = 0; k < 1000; ++k) acc += static_cast<double>(k) * 1e-9;
      sink[i] = acc;
    });
    benchmark::DoNotOptimize(sink.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(8)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
