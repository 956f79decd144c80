// Substrate micro-benchmarks (google-benchmark): the kernels that dominate
// simulation wall-clock — GEMM, conv lowering and forward/backward, full
// local SGD steps, flat-vector aggregation and similarity, minibatch
// gathering, the Adam update, and thread-pool dispatch. The CNN-2
// roofline pair: BM_Cnn2Layer times each paper CNN-2 layer's forward and
// backward, BM_GemmShape each GEMM shape those layers (and the Fig-6 MLP2)
// call, both in GFLOP/s. The 1M-device step prologue, layer by layer:
// BM_MarkovAdvance times the Markov walk per topology, and
// BM_MobilityMembershipStep the walk plus the edge-membership apply.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/edge_membership.hpp"
#include "core/similarity.hpp"
#include "data/partition.hpp"
#include "data/sampler.hpp"
#include "data/synthetic.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_factory.hpp"
#include "nn/pooling.hpp"
#include "mobility/markov_mobility.hpp"
#include "optim/adam.hpp"
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

/// One GEMM call shape the paper CNN-2 runs in a batch-16 SGD step.
struct GemmShape {
  const char* label;  // layer.operand: trans_a trans_b m x n x k
  tensor::Trans trans_a;
  tensor::Trans trans_b;
  std::size_t m, n, k;
  float beta;
  // A conv forward (NN) or dW (NT) call reads its column matrix through
  // the indirect view of one bordered sample of this many channels and
  // side (3 x 3 taps, padding 1); 0 for a plain gemm() call.
  std::size_t conv_channels = 0;
  std::size_t conv_side = 0;
};

// Every conv GEMM runs once per sample (16 per step): the forward and dW
// through the indirect view, conv2's dX (conv1 gets none: first layer with
// parameters) into one sample's column-gradient panel. The Linear GEMMs
// run once per step. NT calls with n or k below 16 take the small-NT
// kernel.
constexpr tensor::Trans kN = tensor::Trans::kNo;
constexpr tensor::Trans kT = tensor::Trans::kYes;
const GemmShape kCnn2GemmShapes[] = {
    {"conv1.fwd NN 8x256x9", kN, kN, 8, 256, 9, 0.0f, 1, 16},
    {"conv1.dW NT 8x9x256", kN, kT, 8, 9, 256, 1.0f, 1, 16},
    {"conv2.fwd NN 16x64x72", kN, kN, 16, 64, 72, 0.0f, 8, 8},
    {"conv2.dW NT 16x72x64", kN, kT, 16, 72, 64, 1.0f, 8, 8},
    {"conv2.dX TN 72x64x16", kT, kN, 72, 64, 16, 0.0f},
    {"fc1.fwd NT 16x64x256", kN, kT, 16, 64, 256, 0.0f},
    {"fc1.dW TN 64x256x16", kT, kN, 64, 256, 16, 1.0f},
    {"fc1.dX NN 16x256x64", kN, kN, 16, 256, 64, 0.0f},
    {"fc2.fwd NT 16x10x64", kN, kT, 16, 10, 64, 0.0f},
    {"fc2.dW TN 10x64x16", kT, kN, 10, 64, 16, 1.0f},
    {"fc2.dX NN 16x64x10", kN, kN, 16, 64, 10, 0.0f},
};

// The Fig-6 fast-scale MLP2 (1 x 8 x 8 input, 64 -> 48 -> 24 -> 10) at
// batch 8, as the fig6_mnist workload trains it: one of each per step.
// fc1 gets no input gradient (first layer with parameters); fc3.fwd is
// small-NT.
const GemmShape kFig6GemmShapes[] = {
    {"mlp.fc1.fwd NT 8x48x64", kN, kT, 8, 48, 64, 0.0f},
    {"mlp.fc2.fwd NT 8x24x48", kN, kT, 8, 24, 48, 0.0f},
    {"mlp.fc3.fwd NT 8x10x24", kN, kT, 8, 10, 24, 0.0f},
    {"mlp.fc1.dW TN 48x64x8", kT, kN, 48, 64, 8, 1.0f},
    {"mlp.fc2.dW TN 24x48x8", kT, kN, 24, 48, 8, 1.0f},
    {"mlp.fc3.dW TN 10x24x8", kT, kN, 10, 24, 8, 1.0f},
    {"mlp.fc2.dX NN 8x48x24", kN, kN, 8, 48, 24, 0.0f},
    {"mlp.fc3.dX NN 8x24x10", kN, kN, 8, 24, 10, 0.0f},
};

// The two paper-scale speech CNN-3 weight gradients past the shapes
// above (hidden 64, batch 16): fc1's dW once per step and conv2's dW once
// per sample, as plain gemm() calls.
const GemmShape kSpeechGemmShapes[] = {
    {"speech.fc1.dW TN 64x1024x16", kT, kN, 64, 1024, 16, 1.0f},
    {"speech.conv2.dW NT 16x72x128", kN, kT, 16, 72, 128, 1.0f},
};

/// The peak each layer's GEMM reaches on its own: one call of a
/// kCnn2GemmShapes entry (args 0 .. 10; conv forward and dW rows through
/// conv_gemm / conv_gemm_nt), a kFig6GemmShapes one (args 11 .. 18) or a
/// kSpeechGemmShapes one (args 19 on) per iteration, FLOPs (2mnk) as
/// items, so the items rate is GFLOP/s to set beside BM_Cnn2Layer's.
void BM_GemmShape(benchmark::State& state) {
  const auto index = static_cast<std::size_t>(state.range(0));
  const std::size_t cnn2 = std::size(kCnn2GemmShapes);
  const std::size_t fig6 = cnn2 + std::size(kFig6GemmShapes);
  const GemmShape& s = index < cnn2   ? kCnn2GemmShapes[index]
                       : index < fig6 ? kFig6GemmShapes[index - cnn2]
                                      : kSpeechGemmShapes[index - fig6];
  const auto a = random_vec(s.m * s.k, 12);
  const auto b = random_vec(s.k * s.n, 13);
  std::vector<float> c(s.m * s.n, 0.0f);
  if (s.conv_side == 0) {
    for (auto _ : state) {
      tensor::gemm(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f, a, b, s.beta,
                   c);
      benchmark::DoNotOptimize(c.data());
      benchmark::ClobberMemory();
    }
  } else {
    // One random sample, bordered, and the view's tap table as Conv2d
    // builds it.
    const std::size_t pitch = s.conv_side + 2;
    const auto sample =
        random_vec(s.conv_channels * s.conv_side * s.conv_side, 14);
    std::vector<float> plane(s.conv_channels * pitch * pitch, 0.0f);
    std::vector<std::size_t> tap;
    for (std::size_t ch = 0; ch < s.conv_channels; ++ch) {
      for (std::size_t y = 0; y < s.conv_side; ++y) {
        for (std::size_t x = 0; x < s.conv_side; ++x) {
          plane[(ch * pitch + y + 1) * pitch + x + 1] =
              sample[(ch * s.conv_side + y) * s.conv_side + x];
        }
      }
      for (std::size_t t = 0; t < 9; ++t) {
        tap.push_back((ch * pitch + t / 3) * pitch + t % 3);
      }
    }
    tensor::ConvColumns cols;
    cols.plane = plane.data();
    cols.tap = tap.data();
    cols.rows = tap.size();
    cols.out_h = s.conv_side;
    cols.out_w = s.conv_side;
    cols.pitch = pitch;
    const bool forward = s.trans_b == kN;
    for (auto _ : state) {
      if (forward) {
        tensor::conv_gemm(s.m, a, cols, c);
      } else {
        tensor::conv_gemm_nt(s.m, a, cols, c);
      }
      benchmark::DoNotOptimize(c.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(s.m * s.n * s.k));
  state.SetLabel(s.label);
}
BENCHMARK(BM_GemmShape)
    ->DenseRange(0, static_cast<int>(std::size(kCnn2GemmShapes) +
                                     std::size(kFig6GemmShapes) +
                                     std::size(kSpeechGemmShapes)) -
                        1);

/// The paper's CNN-2 (§6.1.2 MNIST: 1 x 16 x 16 input, 8 base channels,
/// hidden 64, 10 classes) at batch 16 as standalone layers, every layer's
/// input and output gradient prepared, so one layer's forward or backward
/// can be timed alone. As in Sequential: conv and Linear layers run with
/// the following ReLU fused, the convs write no ReLU mask (the pool after
/// each runs its ReLU's backward: a pool backward row is the fused ReLU +
/// pool step), and conv1 gets no input gradient. fc1's ReLU backward (a
/// mask select) is left out.
class Cnn2Layers {
 public:
  static constexpr std::size_t kBatch = 16;
  static constexpr std::size_t kLayers = 6;

  Cnn2Layers() {
    nn::Layer* layers[kLayers] = {&conv1_, &pool1_, &conv2_,
                                  &pool2_, &fc1_,   &fc2_};
    tensor::Shape shape{1, 16, 16};
    std::size_t total = 0;
    for (nn::Layer* layer : layers) {
      shape = layer->build(shape);
      total += layer->param_count();
    }
    params_.resize(total);
    grads_.resize(total);
    parallel::Xoshiro256 rng(15);
    std::size_t offset = 0;
    for (nn::Layer* layer : layers) {
      const std::size_t count = layer->param_count();
      layer->bind(std::span<float>(params_).subspan(offset, count),
                  std::span<float>(grads_).subspan(offset, count));
      layer->init_params(rng);
      offset += count;
    }
    act_[0] = tensor::Tensor::randn(tensor::Shape{kBatch, 1, 16, 16}, rng);
    for (std::size_t i = 0; i < kLayers; ++i) {
      forward(i);
      grad_[i] = tensor::Tensor::randn(act_[i + 1].shape(), rng, 0.01f);
    }
  }

  /// Layer i's name and per-step FLOPs (multiply-adds count two; pooling
  /// counts one per compare forward and one per routed add backward).
  static const char* name(std::size_t i) {
    static const char* const kNames[kLayers] = {"conv1", "pool1", "conv2",
                                                "pool2", "fc1",   "fc2"};
    return kNames[i];
  }
  static double flops(std::size_t i, bool backward) {
    // conv: 2 * batch * out_ch * (in_ch * 9) * out_positions per GEMM.
    const double conv1 = 2.0 * kBatch * 8 * 9 * 256;
    const double conv2 = 2.0 * kBatch * 16 * 72 * 64;
    const double fc1 = 2.0 * kBatch * 256 * 64;
    const double fc2 = 2.0 * kBatch * 64 * 10;
    const double pool1 = kBatch * 8 * 64;
    const double pool2 = kBatch * 16 * 16;
    const double fwd[kLayers] = {conv1, 4 * pool1, conv2, 4 * pool2, fc1, fc2};
    // Backward: dW (+ dX after the first layer); pooling routes each output.
    const double bwd[kLayers] = {conv1, pool1, 2 * conv2, pool2, 2 * fc1,
                                 2 * fc2};
    return backward ? bwd[i] : fwd[i];
  }

  void forward(std::size_t i) {
    switch (i) {
      case 0: conv1_.forward_fused(act_[0], act_[1], true, nullptr); break;
      case 1: pool1_.forward(act_[1], act_[2], true); break;
      case 2: conv2_.forward_fused(act_[2], act_[3], true, nullptr); break;
      case 3: pool2_.forward(act_[3], act_[4], true); break;
      case 4: fc1_.forward_fused(act_[4], act_[5], true, relu3_); break;
      default: fc2_.forward(act_[5], act_[6], true); break;
    }
  }
  void backward(std::size_t i) {
    if (i == 1 || i == 3) {
      nn::MaxPool2d& pool = i == 1 ? pool1_ : pool2_;
      pool.backward_relu(act_[i], act_[i + 1], grad_[i], &grad_in_);
      return;
    }
    nn::Layer* layers[kLayers] = {&conv1_, &pool1_, &conv2_,
                                  &pool2_, &fc1_,   &fc2_};
    layers[i]->backward(act_[i], grad_[i], i == 0 ? nullptr : &grad_in_);
  }
  const float* output(std::size_t i) const { return act_[i + 1].data().data(); }
  const float* gradients() const { return grads_.data(); }

 private:
  nn::Conv2d conv1_{
      {.in_channels = 1, .out_channels = 8, .padding = 1, .kernel = 3}};
  nn::Conv2d conv2_{
      {.in_channels = 8, .out_channels = 16, .padding = 1, .kernel = 3}};
  nn::MaxPool2d pool1_;
  nn::MaxPool2d pool2_;
  nn::Linear fc1_{256, 64};
  nn::Linear fc2_{64, 10};
  nn::ReLU relu3_;
  std::vector<float> params_, grads_;
  tensor::Tensor act_[kLayers + 1];  // act_[i] is layer i's input
  tensor::Tensor grad_[kLayers];     // d(loss)/d(layer i's output)
  tensor::Tensor grad_in_;
};

/// One CNN-2 layer's forward (even args) or backward (odd args) at batch
/// 16, FLOPs as items: the per-layer GFLOP/s to set beside BM_GemmShape's
/// peaks. Arg 2i / 2i+1 is layer i: conv1, pool1, conv2, pool2, fc1, fc2.
void BM_Cnn2Layer(benchmark::State& state) {
  const auto layer = static_cast<std::size_t>(state.range(0)) / 2;
  const bool backward = state.range(0) % 2 != 0;
  Cnn2Layers model;
  for (auto _ : state) {
    if (backward) {
      model.backward(layer);
      benchmark::DoNotOptimize(model.gradients());
    } else {
      model.forward(layer);
      benchmark::DoNotOptimize(model.output(layer));
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) *
      Cnn2Layers::flops(layer, backward)));
  state.SetLabel(std::string(Cnn2Layers::name(layer)) +
                 (backward ? ".bwd" : ".fwd"));
}
BENCHMARK(BM_Cnn2Layer)
    ->DenseRange(0, 2 * static_cast<int>(Cnn2Layers::kLayers) - 1);

/// One of CNN-2's two paper-scale conv layers, built for the lowering
/// bench: Arg 0 is conv1 (1 -> 8 channels, 16 x 16), Arg 1 conv2 (8 -> 16
/// channels, 8 x 8); both 3 x 3, stride 1, padding 1.
struct LoweringCase {
  explicit LoweringCase(bool second)
      : channels(second ? 8 : 1),
        side(second ? 8 : 16),
        conv(nn::Conv2dConfig{.in_channels = channels,
                              .out_channels = 2 * channels,
                              .padding = 1,
                              .kernel = 3}) {
    const tensor::Shape out = conv.build(tensor::Shape{channels, side, side});
    cols = out.dim(1) * out.dim(2);
  }
  std::size_t channels, side;
  nn::Conv2d conv;
  std::size_t cols = 0;  // output positions: the column matrix's width
};

/// Conv2d's col2im for one sample from its own (C*9) x HW column-gradient
/// panel, as Conv2d::backward runs it; bytes are the panel's.
void BM_Conv2dCol2im(benchmark::State& state) {
  LoweringCase layer(state.range(0) != 0);
  const std::size_t rows = layer.channels * 9;
  const auto panel = random_vec(rows * layer.cols, 15);
  std::vector<float> grad(layer.channels * layer.side * layer.side);
  for (auto _ : state) {
    layer.conv.col2im(panel.data(), layer.cols, grad.data());
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * layer.cols * sizeof(float));
  state.SetLabel(state.range(0) != 0 ? "conv2" : "conv1");
}
BENCHMARK(BM_Conv2dCol2im)->Arg(0)->Arg(1);

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

void BM_AllReduce(benchmark::State& state) {
  const auto models = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 1 << 14;
  std::vector<std::vector<float>> storage;
  storage.reserve(models);
  std::vector<comm::Contribution> weighted;
  for (std::size_t i = 0; i < models; ++i) {
    storage.push_back(random_vec(n, 20 + i));
    weighted.push_back(comm::Contribution{storage.back(), 1.0 + i});
  }
  std::vector<float> out(n);
  comm::InProcessCommunicator communicator(nullptr);
  for (auto _ : state) {
    communicator.all_reduce(weighted, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AllReduce)->Arg(5)->Arg(10)->Arg(50);

void BM_AllReduceParallel(benchmark::State& state) {
  const auto models = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 1 << 18;
  parallel::ThreadPool pool(4);
  std::vector<std::vector<float>> storage;
  storage.reserve(models);
  std::vector<comm::Contribution> weighted;
  for (std::size_t i = 0; i < models; ++i) {
    storage.push_back(random_vec(n, 40 + i));
    weighted.push_back(comm::Contribution{storage.back(), 1.0 + i});
  }
  std::vector<float> out(n);
  comm::InProcessCommunicator communicator(&pool);
  for (auto _ : state) {
    communicator.all_reduce(weighted, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AllReduceParallel)->Arg(5)->Arg(10)->Arg(50);

/// Arg 0: the Fig-6 fast-scale MLP2 stand-in (hidden 48). Arg 1: the
/// paper's CNN-2 (hidden 64, base 8 channels), as `paper_cnn` trains it.
/// Both on a 1 x 16 x 16 input.
nn::ModelSpec bench_model_spec(bool cnn) {
  nn::ModelSpec spec;
  spec.arch = cnn ? nn::ModelArch::kCnn2 : nn::ModelArch::kMlp2;
  spec.input_shape = tensor::Shape{1, 16, 16};
  spec.num_classes = 10;
  spec.hidden = cnn ? 64 : 48;
  spec.base_channels = 8;
  return spec;
}

/// BM_LocalSgdStep's model and batch: args 0 and 1 as bench_model_spec at
/// batch 16; arg 2 the MLP2 as `fig6_mnist` trains it, on a 1 x 8 x 8
/// input at batch 8.
std::pair<nn::ModelSpec, std::size_t> sgd_step_setting(std::int64_t arg) {
  if (arg < 2) return {bench_model_spec(arg != 0), 16};
  nn::ModelSpec spec = bench_model_spec(false);
  spec.input_shape = tensor::Shape{1, 8, 8};
  return {spec, 8};
}

void BM_ModelForward(benchmark::State& state) {
  const nn::ModelSpec spec = bench_model_spec(state.range(0) != 0);
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
  // loop body. Parameters and optimizer state go back to their start every
  // I = 10 steps, as a device round restarts from the model it was sent,
  // so the weights stay in the range training sees.
  const auto [spec, batch_size] = sgd_step_setting(state.range(0));
  auto model = nn::build_model(spec, 1);
  const std::vector<float> start(model->parameters().begin(),
                                 model->parameters().end());
  optim::Sgd sgd({.learning_rate = 0.01, .momentum = 0.9});
  parallel::Xoshiro256 rng(3);
  std::vector<std::size_t> dims{batch_size};
  dims.insert(dims.end(), spec.input_shape.dims().begin(),
              spec.input_shape.dims().end());
  const auto batch = tensor::Tensor::randn(tensor::Shape(dims), rng);
  std::vector<std::int32_t> labels(batch_size);
  for (auto& l : labels) l = static_cast<std::int32_t>(rng.bounded(10));
  tensor::Tensor grad_logits;
  std::size_t step = 0;
  for (auto _ : state) {
    if (step++ % 10 == 0) {
      model->set_parameters(start);
      sgd.reset();
    }
    const auto& logits = model->forward(batch, true);
    nn::softmax_cross_entropy_into(logits, labels, grad_logits);
    model->zero_grad();
    model->backward(grad_logits);
    sgd.step(model->parameters(), model->gradients());
    benchmark::DoNotOptimize(model->parameters().data());
  }
  state.SetLabel(nn::to_string(spec.arch) + " " +
                 spec.input_shape.to_string() + " x " +
                 std::to_string(batch_size));
}
BENCHMARK(BM_LocalSgdStep)->Arg(0)->Arg(1)->Arg(2);

void BM_AdamStep(benchmark::State& state) {
  // One Adam update over a 72k-parameter flat model (the size of the
  // paper-scale speech CNN-3 step it serves), gradients at scale 1e-3.
  constexpr std::size_t kParams = 72'000;
  std::vector<float> params = random_vec(kParams, 1);
  std::vector<float> grads = random_vec(kParams, 2);
  for (auto& g : grads) g *= 1e-3f;
  optim::Adam adam({.learning_rate = 0.001});
  for (auto _ : state) {
    adam.step(params, grads);
    benchmark::DoNotOptimize(params.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kParams));
}
BENCHMARK(BM_AdamStep);

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
    parallel::parallel_for(&pool, 0, tasks, [&sink](std::size_t i) {
      double acc = 0.0;
      for (int k = 0; k < 1000; ++k) acc += static_cast<double>(k) * 1e-9;
      sink[i] = acc;
    });
    benchmark::DoNotOptimize(sink.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(8)->Arg(64)->Arg(512);

/// The fleet_1m prologue's mobility: 1M devices on 8 edges from uniform
/// random initial edges, P = 0.1, serial (no pool).
constexpr std::size_t kFleetDevices = 1'000'000;
constexpr std::size_t kFleetEdges = 8;

mobility::MarkovMobility fleet_mobility(mobility::MoveTopology topology) {
  mobility::MarkovMobility model(
      data::assign_edges_uniform(kFleetDevices, kFleetEdges, 3), kFleetEdges,
      0.1, 14);
  model.set_topology(topology, 0.5);
  return model;
}

void BM_MarkovAdvance(benchmark::State& state) {
  // Arg: 0 uniform, 1 ring, 2 home-ring. items/s = devices walked per
  // second; about one in ten is a mover.
  const auto topology = static_cast<mobility::MoveTopology>(state.range(0));
  mobility::MarkovMobility model = fleet_mobility(topology);
  for (auto _ : state) {
    model.advance();
    benchmark::DoNotOptimize(model.movers()->data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFleetDevices));
  state.SetLabel(mobility::to_string(topology));
}
BENCHMARK(BM_MarkovAdvance)->Arg(0)->Arg(1)->Arg(2);

void BM_MobilityMembershipStep(benchmark::State& state) {
  // The uniform walk, then the edge-membership apply of its movers, as the
  // simulator runs them at the top of every step.
  mobility::MarkovMobility model =
      fleet_mobility(mobility::MoveTopology::kUniform);
  core::EdgeMembership rows;
  rows.rebuild(kFleetEdges, model.assignment());
  for (auto _ : state) {
    model.advance();
    rows.apply(*model.movers(), model.assignment());
    benchmark::DoNotOptimize(rows.movers().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFleetDevices));
}
BENCHMARK(BM_MobilityMembershipStep);

}  // namespace

BENCHMARK_MAIN();
