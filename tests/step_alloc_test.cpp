// Steady-state local SGD makes no heap allocation: after a few warm-up
// steps, a forward, loss, zero_grad, backward and SGD update of the MLP2
// and CNN-2 models allocate nothing. The global operator new/delete are
// replaced with counting versions, which is why this test is a binary of
// its own: the replacement applies to everything linked into it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "nn/loss.hpp"
#include "nn/model_factory.hpp"
#include "optim/sgd.hpp"
#include "parallel/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using middlefl::nn::ModelArch;
using middlefl::tensor::Shape;
using middlefl::tensor::Tensor;

/// Heap allocations made by `steps` local SGD steps after `warmup` ones.
std::size_t allocations_per_steps(const middlefl::nn::ModelSpec& spec,
                                  std::size_t batch, int warmup, int steps) {
  auto model = middlefl::nn::build_model(spec, 1);
  middlefl::optim::Sgd sgd({.learning_rate = 0.01, .momentum = 0.9});
  middlefl::parallel::Xoshiro256 rng(3);
  std::vector<std::size_t> dims{batch};
  dims.insert(dims.end(), spec.input_shape.dims().begin(),
              spec.input_shape.dims().end());
  const auto input = Tensor::randn(Shape(dims), rng);
  std::vector<std::int32_t> labels(batch);
  for (auto& l : labels) l = static_cast<std::int32_t>(rng.bounded(10));
  Tensor grad_logits;
  const auto step = [&] {
    const auto& logits = model->forward(input, true);
    middlefl::nn::softmax_cross_entropy_into(logits, labels, grad_logits);
    model->zero_grad();
    model->backward(grad_logits);
    sgd.step(model->parameters(), model->gradients());
  };
  for (int i = 0; i < warmup; ++i) step();
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < steps; ++i) step();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(WarmedStepAllocations, Mlp2StepAllocatesNothing) {
  // The Fig-6 fast-scale model: 1 x 8 x 8 input, hidden 48, batch 8.
  middlefl::nn::ModelSpec spec;
  spec.arch = ModelArch::kMlp2;
  spec.input_shape = Shape{1, 8, 8};
  spec.hidden = 48;
  EXPECT_EQ(allocations_per_steps(spec, 8, 3, 100), 0u);
}

TEST(WarmedStepAllocations, Cnn2StepAllocatesNothing) {
  // The paper's CNN-2: 1 x 16 x 16 input, 8 base channels, hidden 64,
  // batch 16.
  middlefl::nn::ModelSpec spec;
  spec.arch = ModelArch::kCnn2;
  spec.input_shape = Shape{1, 16, 16};
  spec.hidden = 64;
  spec.base_channels = 8;
  EXPECT_EQ(allocations_per_steps(spec, 16, 3, 100), 0u);
}

}  // namespace
