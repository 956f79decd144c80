// Behavioural tests for individual layers (shape inference, known-value
// forward results, caching contracts). Gradient correctness is covered by
// nn_gradcheck_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "isa_guard.hpp"
#include "nn/pooling.hpp"
#include "parallel/rng.hpp"
#include "tensor/blas.hpp"

namespace {

using middlefl::tensor::GemmEpilogue;
using middlefl::tensor::IsaLevel;
using middlefl::tensor::Trans;
using middlefl::test_support::IsaGuard;
using middlefl::test_support::supported_isas;

using middlefl::nn::Conv2d;
using middlefl::nn::Conv2dConfig;
using middlefl::nn::Flatten;
using middlefl::nn::Linear;
using middlefl::nn::MaxPool2d;
using middlefl::nn::ReLU;
using middlefl::nn::Shape;
using middlefl::nn::Tanh;
using middlefl::nn::Tensor;
using middlefl::parallel::Xoshiro256;

template <typename L>
void bind_layer(L& layer, std::vector<float>& params,
                std::vector<float>& grads) {
  params.assign(layer.param_count(), 0.0f);
  grads.assign(layer.param_count(), 0.0f);
  layer.bind(params, grads);
}

TEST(Linear, ShapeInference) {
  Linear layer(6, 4);
  EXPECT_EQ(layer.build(Shape{6}), Shape{4});
  EXPECT_EQ(layer.param_count(), 6u * 4u + 4u);
}

TEST(Linear, InferInputFromShape) {
  Linear layer(0, 4);
  EXPECT_EQ(layer.build(Shape{2, 3}), Shape{4});  // flattens 2*3 = 6
  EXPECT_EQ(layer.in_features(), 6u);
}

TEST(Linear, RejectsWrongInputSize) {
  Linear layer(6, 4);
  EXPECT_THROW(layer.build(Shape{5}), std::invalid_argument);
}

TEST(Linear, KnownForwardValue) {
  Linear layer(2, 2);
  layer.build(Shape{2});
  std::vector<float> params, grads;
  bind_layer(layer, params, grads);
  // W = [[1, 2], [3, 4]], b = [10, 20]
  params = {1, 2, 3, 4, 10, 20};
  layer.bind(params, grads);
  const Tensor input(Shape{1, 2}, {5, 6});
  Tensor out;
  layer.forward(input, out, false);
  EXPECT_FLOAT_EQ(out.at({0, 0}), 1 * 5 + 2 * 6 + 10);
  EXPECT_FLOAT_EQ(out.at({0, 1}), 3 * 5 + 4 * 6 + 20);
}

TEST(Linear, BatchIndependence) {
  Linear layer(3, 2);
  layer.build(Shape{3});
  std::vector<float> params, grads;
  bind_layer(layer, params, grads);
  Xoshiro256 rng(9);
  layer.init_params(rng);

  const Tensor one(Shape{1, 3}, {1, 2, 3});
  Tensor out_single;
  layer.forward(one, out_single, false);

  const Tensor batch(Shape{2, 3}, {0, 0, 0, 1, 2, 3});
  Tensor out_batch;
  layer.forward(batch, out_batch, false);
  EXPECT_FLOAT_EQ(out_batch.at({1, 0}), out_single.at({0, 0}));
  EXPECT_FLOAT_EQ(out_batch.at({1, 1}), out_single.at({0, 1}));
}

TEST(Conv2d, OutputShape) {
  Conv2d same(Conv2dConfig{3, 8, 1, 3});
  EXPECT_EQ(same.build(Shape{3, 16, 16}), (Shape{8, 16, 16}));

  Conv2d valid(Conv2dConfig{1, 2, 0, 3});
  EXPECT_EQ(valid.build(Shape{1, 5, 5}), (Shape{2, 3, 3}));
}

TEST(Conv2d, RejectsBadInput) {
  Conv2d layer(Conv2dConfig{3, 8, 1, 3});
  EXPECT_THROW(layer.build(Shape{1, 16, 16}), std::invalid_argument);
  EXPECT_THROW(layer.build(Shape{16, 16}), std::invalid_argument);
  Conv2d huge(Conv2dConfig{1, 1, 0, 9});
  EXPECT_THROW(huge.build(Shape{1, 4, 4}), std::invalid_argument);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  // 1x1 kernel with weight 1, bias 0 == identity.
  Conv2d layer(Conv2dConfig{1, 1, 0, 1});
  layer.build(Shape{1, 3, 3});
  std::vector<float> params, grads;
  bind_layer(layer, params, grads);
  params = {1.0f, 0.0f};  // weight, bias
  layer.bind(params, grads);
  Xoshiro256 rng(10);
  const Tensor input = Tensor::randn(Shape{2, 1, 3, 3}, rng);
  Tensor out;
  layer.forward(input, out, false);
  for (std::size_t i = 0; i < input.numel(); ++i) {
    EXPECT_FLOAT_EQ(out[i], input[i]);
  }
}

TEST(Conv2d, KnownSum3x3) {
  // All-ones 3x3 kernel with padding 1 computes the 8-neighbour+self sum.
  Conv2d layer(Conv2dConfig{1, 1, 1, 3});
  layer.build(Shape{1, 3, 3});
  std::vector<float> params, grads;
  bind_layer(layer, params, grads);
  std::fill(params.begin(), params.end() - 1, 1.0f);
  params.back() = 0.0f;
  layer.bind(params, grads);
  Tensor input(Shape{1, 1, 3, 3});
  input.fill(1.0f);
  Tensor out;
  layer.forward(input, out, false);
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 1}), 9.0f);  // full window
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 0}), 4.0f);  // corner
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 1}), 6.0f);  // border
}

TEST(Conv2d, BackwardRequiresTrainingForward) {
  Conv2d layer(Conv2dConfig{1, 1, 1, 3});
  layer.build(Shape{1, 4, 4});
  std::vector<float> params, grads;
  bind_layer(layer, params, grads);
  const Tensor input(Shape{1, 1, 4, 4});
  Tensor out;
  layer.forward(input, out, false);  // eval mode: no cache
  Tensor grad_in;
  EXPECT_THROW(layer.backward(input, out, &grad_in), std::logic_error);
}

/// The per-element, bounds-tested im2col/col2im and per-sample GEMM loop
/// Conv2d ran before its bordered lowering and its indirect convolution:
/// the oracle Conv2dLowering compares against bit for bit.
struct ConvOracle {
  Conv2dConfig cfg;
  std::size_t in_h, in_w, out_h, out_w;

  std::size_t col_rows() const {
    return cfg.in_channels * cfg.kernel * cfg.kernel;
  }
  std::size_t col_cols() const { return out_h * out_w; }

  void im2col(const float* sample, float* col) const {
    const auto pad = static_cast<std::ptrdiff_t>(cfg.padding);
    for (std::size_t c = 0; c < cfg.in_channels; ++c) {
      const float* channel = sample + c * in_h * in_w;
      for (std::size_t ky = 0; ky < cfg.kernel; ++ky) {
        for (std::size_t kx = 0; kx < cfg.kernel; ++kx) {
          float* row =
              col + ((c * cfg.kernel + ky) * cfg.kernel + kx) * col_cols();
          for (std::size_t oy = 0; oy < out_h; ++oy) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy + ky) - pad;
            const bool row_in =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(in_h);
            for (std::size_t ox = 0; ox < out_w; ++ox) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox + kx) - pad;
              const bool in_bounds =
                  row_in && ix >= 0 && ix < static_cast<std::ptrdiff_t>(in_w);
              row[oy * out_w + ox] =
                  in_bounds ? channel[static_cast<std::size_t>(iy) * in_w +
                                      static_cast<std::size_t>(ix)]
                            : 0.0f;
            }
          }
        }
      }
    }
  }

  void col2im(const float* col, float* sample_grad) const {
    const auto pad = static_cast<std::ptrdiff_t>(cfg.padding);
    for (std::size_t c = 0; c < cfg.in_channels; ++c) {
      float* channel = sample_grad + c * in_h * in_w;
      for (std::size_t ky = 0; ky < cfg.kernel; ++ky) {
        for (std::size_t kx = 0; kx < cfg.kernel; ++kx) {
          const float* row =
              col + ((c * cfg.kernel + ky) * cfg.kernel + kx) * col_cols();
          for (std::size_t oy = 0; oy < out_h; ++oy) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy + ky) - pad;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) continue;
            for (std::size_t ox = 0; ox < out_w; ++ox) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox + kx) - pad;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w)) continue;
              channel[static_cast<std::size_t>(iy) * in_w +
                      static_cast<std::size_t>(ix)] += row[oy * out_w + ox];
            }
          }
        }
      }
    }
  }

  /// Forward with the fused bias + ReLU epilogue; keeps every sample's
  /// column panel for backward.
  void forward(std::span<const float> weight, const float* bias,
               const Tensor& input, std::vector<float>& out,
               std::vector<std::uint8_t>& mask, std::vector<float>& cols) {
    const std::size_t batch = input.dim(0);
    const std::size_t sample = cfg.in_channels * in_h * in_w;
    const std::size_t col_size = col_rows() * col_cols();
    const std::size_t out_sample = cfg.out_channels * col_cols();
    out.assign(batch * out_sample, 0.0f);
    mask.assign(batch * out_sample, 0);
    cols.assign(batch * col_size, 0.0f);
    for (std::size_t b = 0; b < batch; ++b) {
      float* col = cols.data() + b * col_size;
      im2col(input.data().data() + b * sample, col);
      GemmEpilogue epi;
      epi.row_bias = bias;
      epi.relu = true;
      epi.relu_mask = mask.data() + b * out_sample;
      middlefl::tensor::gemm(
          Trans::kNo, Trans::kNo, cfg.out_channels, col_cols(), col_rows(),
          1.0f, weight, std::span<const float>(col, col_size), 0.0f,
          std::span<float>(out.data() + b * out_sample, out_sample), nullptr,
          &epi);
    }
  }

  void backward(std::span<const float> weight, const std::vector<float>& cols,
                const Tensor& grad_output, std::span<float> grad_weight,
                std::span<float> grad_bias, std::vector<float>& grad_input) {
    const std::size_t batch = grad_output.dim(0);
    const std::size_t sample = cfg.in_channels * in_h * in_w;
    const std::size_t col_size = col_rows() * col_cols();
    const std::size_t out_sample = cfg.out_channels * col_cols();
    grad_input.assign(batch * sample, 0.0f);
    std::vector<float> dcol(col_size);
    for (std::size_t b = 0; b < batch; ++b) {
      const std::span<const float> dy(
          grad_output.data().data() + b * out_sample, out_sample);
      const std::span<const float> col(cols.data() + b * col_size, col_size);
      middlefl::tensor::gemm(Trans::kNo, Trans::kYes, cfg.out_channels,
                             col_rows(), col_cols(), 1.0f, dy, col, 1.0f,
                             grad_weight);
      for (std::size_t oc = 0; oc < cfg.out_channels; ++oc) {
        double acc = 0.0;
        for (std::size_t p = 0; p < col_cols(); ++p) {
          acc += dy[oc * col_cols() + p];
        }
        grad_bias[oc] += static_cast<float>(acc);
      }
      middlefl::tensor::gemm(Trans::kYes, Trans::kNo, col_rows(), col_cols(),
                             cfg.out_channels, 1.0f, weight, dy, 0.0f, dcol);
      col2im(dcol.data(), grad_input.data() + b * sample);
    }
  }
};

template <typename T>
bool same_bits(const T* a, const T* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(T)) == 0;
}

/// One training forward (fused ReLU) and backward of a Conv2d against the
/// ConvOracle: output, mask, dW, db and dX must match bit for bit. The
/// output and dX start as NaN, so an element left unwritten shows. With
/// `specials`, some input pixels are NaN or +-inf and some dY entries -0.0.
/// A fresh layer's plane cache and the input are allocated exactly, so the
/// last sample's plane ends its allocation: a read past an output row of
/// it faults under ASan.
void expect_conv_matches_oracle(const Conv2dConfig& cfg, std::size_t in_h,
                                std::size_t in_w, std::size_t batch,
                                std::uint64_t seed, bool specials = false) {
  Conv2d layer(cfg);
  const Shape out_shape = layer.build(Shape{cfg.in_channels, in_h, in_w});
  std::vector<float> params, grads;
  bind_layer(layer, params, grads);
  Xoshiro256 rng(seed);
  for (float& v : params) v = static_cast<float>(rng.normal());
  Tensor input =
      Tensor::randn(Shape{batch, cfg.in_channels, in_h, in_w}, rng);
  // Each output plane opens with 1, 2^60, -2^60: summed ascending in
  // position the 1 is absorbed, in any order that adds the pair first it
  // survives, so the bias gradient's summation order shows in its bits.
  Tensor grad_out = Tensor::randn(
      Shape{batch, cfg.out_channels, out_shape.dim(1), out_shape.dim(2)}, rng);
  const std::size_t positions = out_shape.dim(1) * out_shape.dim(2);
  const std::size_t planes = positions >= 3 ? batch * cfg.out_channels : 0;
  for (std::size_t plane = 0; plane < planes; ++plane) {
    grad_out[plane * positions] = 1.0f;
    grad_out[plane * positions + 1] = std::ldexp(1.0f, 60);
    grad_out[plane * positions + 2] = -std::ldexp(1.0f, 60);
  }
  if (specials) {
    const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    for (std::size_t i = 0; i < input.numel(); i += 7) {
      input[i] = kSpecial[i / 7 % 3];
    }
    for (std::size_t i = 3; i < grad_out.numel(); i += 5) grad_out[i] = -0.0f;
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();

  ReLU relu;
  Tensor out(Shape{batch, cfg.out_channels, out_shape.dim(1),
                   out_shape.dim(2)});
  out.fill(nan);
  layer.forward_fused(input, out, /*training=*/true, &relu);
  const std::uint8_t* mask = relu.fused_mask(out.numel());
  Tensor grad_in(input.shape());
  grad_in.fill(nan);
  layer.backward(input, grad_out, &grad_in);

  ConvOracle oracle{cfg, in_h, in_w, out_shape.dim(1), out_shape.dim(2)};
  const std::size_t w_count = params.size() - cfg.out_channels;
  const std::span<const float> weight(params.data(), w_count);
  std::vector<float> want_out, want_cols, want_dx;
  std::vector<std::uint8_t> want_mask;
  oracle.forward(weight, params.data() + w_count, input, want_out, want_mask,
                 want_cols);
  std::vector<float> want_grads(params.size(), 0.0f);
  oracle.backward(
      weight, want_cols, grad_out, std::span<float>(want_grads.data(), w_count),
      std::span<float>(want_grads.data() + w_count, cfg.out_channels),
      want_dx);

  ASSERT_EQ(out.numel(), want_out.size());
  EXPECT_TRUE(same_bits(out.data().data(), want_out.data(), want_out.size()))
      << "forward output";
  EXPECT_TRUE(same_bits(mask, want_mask.data(), want_mask.size()))
      << "ReLU mask";
  EXPECT_TRUE(same_bits(grads.data(), want_grads.data(), w_count)) << "dW";
  EXPECT_TRUE(same_bits(grads.data() + w_count, want_grads.data() + w_count,
                        cfg.out_channels))
      << "db";
  ASSERT_EQ(grad_in.numel(), want_dx.size());
  EXPECT_TRUE(
      same_bits(grad_in.data().data(), want_dx.data(), want_dx.size()))
      << "dX";
}

TEST(Conv2dLowering, RowRunsMatchPerElementOracle) {
  // Output widths cover whole vectors (16), half an AVX-512 vector (8,
  // which pairs two output rows per zmm) and neither (7, 9 and the rest);
  // heights 5 and 6 give odd and even output heights, so the paired rows
  // end both whole and with a lone row. Pad 3 exceeds k/2 for every kernel
  // (whole runs in the border). Every ISA tier drives the GEMMs.
  const std::size_t out_channels = 4;
  for (const IsaLevel level : supported_isas()) {
    IsaGuard guard(level);
    for (const std::size_t in_w : {7, 9, 8, 16}) {
      for (const std::size_t in_h : {5, 6}) {
        for (const std::size_t channels : {1, 3}) {
          for (const std::size_t kernel : {1, 3, 5}) {
            for (const std::size_t pad : {0, 1, 2, 3}) {
              for (const std::size_t batch : {1, 5, 16}) {
                SCOPED_TRACE(::testing::Message()
                             << "isa=" << middlefl::tensor::to_string(level)
                             << " H=" << in_h << " W=" << in_w
                             << " C=" << channels << " k=" << kernel
                             << " pad=" << pad << " batch=" << batch);
                expect_conv_matches_oracle(
                    Conv2dConfig{channels, out_channels, pad, kernel}, in_h,
                    in_w, batch,
                    1000 + channels * 100 + kernel * 10 + pad * 3 + batch +
                        in_w * 1000 + in_h * 7,
                    /*specials=*/batch == 5);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Conv2dLowering, Cnn2ShapesMatchPerElementOracle) {
  // The paper CNN-2's two conv layers at batch 16: conv1 (1 -> 8 channels,
  // 16 x 16) and conv2 (8 -> 16 channels, 8 x 8), 3 x 3, padding 1.
  for (const IsaLevel level : supported_isas()) {
    SCOPED_TRACE(::testing::Message()
                 << "isa=" << middlefl::tensor::to_string(level));
    IsaGuard guard(level);
    expect_conv_matches_oracle(Conv2dConfig{1, 8, 1, 3}, 16, 16, 16, 21);
    expect_conv_matches_oracle(Conv2dConfig{8, 16, 1, 3}, 8, 8, 16, 22);
    expect_conv_matches_oracle(Conv2dConfig{8, 16, 1, 3}, 8, 8, 16, 23,
                               /*specials=*/true);
  }
}

TEST(Conv2dLowering, InferenceForwardLeavesBackwardUnchanged) {
  // An inference forward borders its samples in the thread's workspace,
  // not in the training planes, so a backward after one is bitwise the
  // backward without it.
  for (const std::size_t pad : {0, 1}) {
    SCOPED_TRACE(::testing::Message() << "pad=" << pad);
    Xoshiro256 rng(41);
    const Tensor input = Tensor::randn(Shape{2, 2, 5, 5}, rng);
    const Tensor other = Tensor::randn(Shape{3, 2, 5, 5}, rng);
    std::vector<float> init(2 * 3 * 9 + 3);
    for (float& v : init) v = static_cast<float>(rng.normal());
    std::vector<float> grads_of[2];
    std::vector<float> dx_of[2];
    for (const bool interleave : {false, true}) {
      Conv2d layer(Conv2dConfig{2, 3, pad, 3});
      const Shape out_shape = layer.build(Shape{2, 5, 5});
      std::vector<float> params, grads;
      bind_layer(layer, params, grads);
      params = init;
      Xoshiro256 dy_rng(42);
      const Tensor grad_out = Tensor::randn(
          Shape{2, 3, out_shape.dim(1), out_shape.dim(2)}, dy_rng);
      Tensor out, other_out, grad_in;
      layer.forward(input, out, /*training=*/true);
      if (interleave) layer.forward(other, other_out, /*training=*/false);
      layer.backward(input, grad_out, &grad_in);
      grads_of[interleave] = grads;
      dx_of[interleave].assign(grad_in.data().begin(), grad_in.data().end());
    }
    EXPECT_TRUE(same_bits(grads_of[0].data(), grads_of[1].data(),
                          grads_of[0].size()));
    ASSERT_EQ(dx_of[0].size(), dx_of[1].size());
    EXPECT_TRUE(
        same_bits(dx_of[0].data(), dx_of[1].data(), dx_of[0].size()));
  }
}

TEST(MaxPool2d, ForwardKnownValues) {
  MaxPool2d layer;
  EXPECT_EQ(layer.build(Shape{1, 4, 4}), (Shape{1, 2, 2}));
  const Tensor input(Shape{1, 1, 4, 4},
                     {1, 2, 3, 4,
                      5, 6, 7, 8,
                      9, 10, 11, 12,
                      13, 14, 15, 16});
  Tensor out;
  layer.forward(input, out, false);
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 0}), 6.0f);
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 1}), 8.0f);
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 0}), 14.0f);
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 1}), 16.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d layer;
  layer.build(Shape{1, 2, 2});
  const Tensor input(Shape{1, 1, 2, 2}, {1, 9, 2, 3});
  Tensor out;
  layer.forward(input, out, true);
  const Tensor grad_out(Shape{1, 1, 1, 1}, {5.0f});
  Tensor grad_in;
  layer.backward(input, grad_out, &grad_in);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 5.0f);  // max was at index 1
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[3], 0.0f);
}

/// The compare-and-branch 2 x 2, stride-2 loop MaxPool2d ran before its
/// selects: the oracle MaxPool2dOracle compares against bit for bit.
/// Fills each output's value and flat input index (over the whole batch).
void max_pool_oracle(const Tensor& input, std::vector<float>& out,
                     std::vector<std::size_t>& argmax) {
  const std::size_t planes = input.dim(0) * input.dim(1);
  const std::size_t in_h = input.dim(2), in_w = input.dim(3);
  const std::size_t out_h = in_h / 2, out_w = in_w / 2;
  out.clear();
  argmax.clear();
  for (std::size_t bc = 0; bc < planes; ++bc) {
    const float* plane = input.data().data() + bc * in_h * in_w;
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        std::size_t best_idx = 2 * oy * in_w + 2 * ox;
        float best = plane[best_idx];
        for (std::size_t ky = 0; ky < 2; ++ky) {
          const std::size_t row_base = (2 * oy + ky) * in_w + 2 * ox;
          for (std::size_t kx = 0; kx < 2; ++kx) {
            const float v = plane[row_base + kx];
            if (v > best) {
              best = v;
              best_idx = row_base + kx;
            }
          }
        }
        out.push_back(best);
        argmax.push_back(bc * in_h * in_w + best_idx);
      }
    }
  }
}

/// Forward, argmax and backward of MaxPool2d against the oracle, at every
/// ISA tier. The argmax is read through the public API: output p's
/// gradient p + 1 must land on exactly one input, the chosen one.
void expect_pool_matches_oracle(const Tensor& input) {
  std::vector<float> want_out;
  std::vector<std::size_t> want_argmax;
  max_pool_oracle(input, want_out, want_argmax);
  for (const IsaLevel level : supported_isas()) {
    SCOPED_TRACE(::testing::Message()
                 << "isa=" << middlefl::tensor::to_string(level) << " "
                 << input.shape().to_string());
    IsaGuard guard(level);
    MaxPool2d layer;
    layer.build(Shape{input.dim(1), input.dim(2), input.dim(3)});
    Tensor out;
    layer.forward(input, out, /*training=*/true);
    ASSERT_EQ(out.numel(), want_out.size());
    EXPECT_TRUE(same_bits(out.data().data(), want_out.data(), want_out.size()))
        << "forward output";

    // NaN everywhere first: the backward must write every element,
    // including a ragged row or column no window reads.
    Tensor grad_in(input.shape());
    std::fill(grad_in.data().begin(), grad_in.data().end(),
              std::numeric_limits<float>::quiet_NaN());
    Tensor numbered(out.shape());
    for (std::size_t p = 0; p < out.numel(); ++p) {
      numbered[p] = static_cast<float>(p + 1);
    }
    layer.backward(input, numbered, &grad_in);
    std::size_t routed = 0;
    for (std::size_t i = 0; i < grad_in.numel(); ++i) {
      routed += grad_in[i] != 0.0f ? 1 : 0;
    }
    EXPECT_EQ(routed, out.numel());
    for (std::size_t p = 0; p < out.numel(); ++p) {
      ASSERT_EQ(grad_in[want_argmax[p]], static_cast<float>(p + 1))
          << "argmax of output " << p;
    }

    Xoshiro256 rng(input.numel());
    const Tensor grad_out = Tensor::randn(out.shape(), rng);
    layer.backward(input, grad_out, &grad_in);
    std::vector<float> want_dx(input.numel(), 0.0f);
    for (std::size_t p = 0; p < want_argmax.size(); ++p) {
      want_dx[want_argmax[p]] += grad_out[p];
    }
    EXPECT_TRUE(
        same_bits(grad_in.data().data(), want_dx.data(), want_dx.size()))
        << "backward";
  }
}

/// A batch whose values come from `palette` (many ties).
Tensor palette_input(const Shape& shape, const std::vector<float>& palette,
                     std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Tensor input(shape);
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = palette[rng.bounded(palette.size())];
  }
  return input;
}

// Batch x planes x H x W shapes that reach every kernel path: CNN-2's
// pools (16 x 16 and 8 x 8), Cnn2Tiny's pool2 (4 x 4, out_w 2), the
// paired-row paths with a leftover row (odd plane counts at an odd out_h,
// or at 4 x 4, whose two output rows fill half an AVX2 quad), ragged
// rows and columns no window reads (5 x 7, 7 x 10, 9 x 9, 9 x 4, 7 x 16),
// and widths past one vector with a ragged tail (40, 66).
const Shape kPoolShapes[] = {
    Shape{3, 3, 16, 16}, Shape{2, 5, 8, 8},  Shape{3, 3, 4, 4},
    Shape{1, 3, 5, 7},   Shape{1, 3, 7, 10}, Shape{1, 3, 7, 16},
    Shape{1, 5, 6, 8},   Shape{1, 3, 9, 9},  Shape{2, 3, 9, 4},
    Shape{1, 2, 5, 40},  Shape{1, 1, 2, 66}};

TEST(MaxPool2dOracle, TiesKeepTheFirstMaximum) {
  std::uint64_t seed = 31;
  for (const Shape& shape : kPoolShapes) {
    expect_pool_matches_oracle(
        palette_input(shape, {-1.0f, 0.0f, 1.0f, 2.0f}, seed++));
  }
}

TEST(MaxPool2dOracle, SignedZerosKeepTheFirstOnesSign) {
  // +0.0 and -0.0 compare equal, so the window's first zero decides the
  // output's sign bit.
  std::uint64_t seed = 32;
  for (const Shape& shape : kPoolShapes) {
    expect_pool_matches_oracle(
        palette_input(shape, {0.0f, -0.0f, -1.0f}, seed++));
  }
}

TEST(MaxPool2dOracle, NanAtEveryWindowPosition) {
  // One NaN, moved over every input position, so it sits at every position
  // of every window: first in a window it sticks, later it is skipped. The
  // shapes take the per-row path with a ragged edge and both paired-row
  // paths.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Shape& shape :
       {Shape{1, 1, 7, 7}, Shape{1, 2, 8, 8}, Shape{1, 1, 16, 16}}) {
    const Tensor base = palette_input(shape, {-1.0f, 0.5f, 2.0f, 3.0f}, 33);
    for (std::size_t i = 0; i < base.numel(); ++i) {
      SCOPED_TRACE(::testing::Message() << "nan at " << i);
      Tensor input = base;
      input[i] = nan;
      expect_pool_matches_oracle(input);
    }
  }
}

TEST(MaxPool2dOracle, RandomActivations) {
  for (const Shape& shape : kPoolShapes) {
    Xoshiro256 rng(34);
    expect_pool_matches_oracle(Tensor::randn(shape, rng));
  }
}

TEST(MaxPool2dOracle, InferenceForwardKeepsTrainingArgmax) {
  // Inference writes no tap codes, so a backward after it still routes the
  // training batch's gradients.
  Xoshiro256 rng(36);
  const Tensor input = Tensor::randn(Shape{2, 3, 8, 8}, rng);
  const Tensor other = Tensor::randn(Shape{4, 3, 8, 8}, rng);
  MaxPool2d layer;
  layer.build(Shape{3, 8, 8});
  Tensor out, other_out;
  layer.forward(input, out, /*training=*/true);
  layer.forward(other, other_out, /*training=*/false);
  const Tensor grad_out = Tensor::randn(out.shape(), rng);
  Tensor grad_in;
  layer.backward(input, grad_out, &grad_in);
  std::vector<float> want_out;
  std::vector<std::size_t> want_argmax;
  max_pool_oracle(input, want_out, want_argmax);
  std::vector<float> want_dx(input.numel(), 0.0f);
  for (std::size_t p = 0; p < want_argmax.size(); ++p) {
    want_dx[want_argmax[p]] += grad_out[p];
  }
  EXPECT_TRUE(same_bits(grad_in.data().data(), want_dx.data(), want_dx.size()));
}

TEST(PoolReluFusion, MatchesPoolThenReluBackward) {
  // MaxPool2d::backward_relu against MaxPool2d::backward then
  // ReLU::backward, bit for bit at every tier. A third of the windows
  // have a pre-activation max <= 0 (±0.0 among the negatives), a fifth
  // a NaN at one tap, and dy holds -0.0 and +0.0: 0.0f + dy turns -0.0
  // into +0.0 in both.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::uint64_t seed = 51;
  for (const Shape& shape : kPoolShapes) {
    Xoshiro256 rng(seed++);
    Tensor pre = Tensor::randn(shape, rng);
    const std::size_t in_h = shape.dim(2), in_w = shape.dim(3);
    const std::size_t planes = shape.dim(0) * shape.dim(1);
    std::size_t window = 0;
    for (std::size_t p = 0; p < planes; ++p) {
      for (std::size_t oy = 0; oy < in_h / 2; ++oy) {
        for (std::size_t ox = 0; ox < in_w / 2; ++ox, ++window) {
          const std::size_t origin = p * in_h * in_w + 2 * oy * in_w + 2 * ox;
          const std::size_t taps[4] = {origin, origin + 1, origin + in_w,
                                       origin + in_w + 1};
          if (window % 3 == 0) {
            const float low[4] = {-0.0f, 0.0f, -1.5f, -0.25f};
            for (std::size_t t = 0; t < 4; ++t) {
              pre[taps[t]] = low[(t + window) % 4];
            }
          } else if (window % 5 == 0) {
            pre[taps[window % 4]] = nan;
          }
        }
      }
    }
    for (const IsaLevel level : supported_isas()) {
      SCOPED_TRACE(::testing::Message()
                   << "isa=" << middlefl::tensor::to_string(level) << " "
                   << shape.to_string());
      IsaGuard guard(level);
      ReLU relu;
      MaxPool2d pool;
      relu.build(Shape{shape.dim(1), in_h, in_w});
      pool.build(Shape{shape.dim(1), in_h, in_w});
      Tensor act, pooled;
      relu.forward(pre, act, /*training=*/true);
      pool.forward(act, pooled, /*training=*/true);
      Tensor dy = Tensor::randn(pooled.shape(), rng);
      for (std::size_t q = 0; q < dy.numel(); q += 4) dy[q] = -0.0f;
      for (std::size_t q = 2; q < dy.numel(); q += 7) dy[q] = 0.0f;
      Tensor through_pool, want;
      Tensor got(shape);
      std::fill(got.data().begin(), got.data().end(), nan);
      pool.backward(act, dy, &through_pool);
      relu.backward(pre, through_pool, &want);
      pool.backward_relu(act, pooled, dy, &got);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_TRUE(same_bits(got.data().data(), want.data().data(),
                            want.numel()));
    }
  }
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU layer;
  layer.build(Shape{4});
  const Tensor input(Shape{1, 4}, {-1, 0, 2, -3});
  Tensor out;
  layer.forward(input, out, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU layer;
  layer.build(Shape{3});
  const Tensor input(Shape{1, 3}, {-1, 1, 2});
  Tensor out;
  layer.forward(input, out, true);
  const Tensor grad_out(Shape{1, 3}, {10, 20, 30});
  Tensor grad_in;
  layer.backward(input, grad_out, &grad_in);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 20.0f);
  EXPECT_FLOAT_EQ(grad_in[2], 30.0f);
}

TEST(Tanh, ForwardSaturates) {
  Tanh layer;
  layer.build(Shape{2});
  const Tensor input(Shape{1, 2}, {100.0f, -100.0f});
  Tensor out;
  layer.forward(input, out, false);
  EXPECT_NEAR(out[0], 1.0f, 1e-6);
  EXPECT_NEAR(out[1], -1.0f, 1e-6);
}

TEST(Flatten, CollapsesSampleDims) {
  Flatten layer;
  EXPECT_EQ(layer.build(Shape{2, 3, 4}), Shape{24});
  const Tensor input(Shape{5, 2, 3, 4});
  Tensor out;
  layer.forward(input, out, false);
  EXPECT_EQ(out.shape(), (Shape{5, 24}));
}

TEST(Flatten, BackwardRestoresShape) {
  Flatten layer;
  layer.build(Shape{2, 2});
  const Tensor input(Shape{3, 2, 2});
  Tensor out;
  layer.forward(input, out, true);
  Tensor grad_in;
  layer.backward(input, out, &grad_in);
  EXPECT_EQ(grad_in.shape(), (Shape{3, 2, 2}));
}

TEST(Init, KaimingVarianceMatchesFanIn) {
  std::vector<float> weights(20000);
  Xoshiro256 rng(99);
  const std::size_t fan_in = 50;
  middlefl::nn::kaiming_normal(weights, fan_in, rng);
  double mean = 0.0;
  for (float w : weights) mean += w;
  mean /= static_cast<double>(weights.size());
  double var = 0.0;
  for (float w : weights) var += (w - mean) * (w - mean);
  var /= static_cast<double>(weights.size());
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 2.0 / fan_in, 0.004);  // He init: Var = 2/fan_in
}

TEST(Init, XavierUniformBounds) {
  std::vector<float> weights(10000);
  Xoshiro256 rng(100);
  middlefl::nn::xavier_uniform(weights, 30, 70, rng);
  const float bound = std::sqrt(6.0f / 100.0f);
  for (float w : weights) {
    EXPECT_GE(w, -bound);
    EXPECT_LE(w, bound);
  }
}

TEST(Layers, CloneProducesIndependentLayer) {
  Linear layer(3, 2);
  layer.build(Shape{3});
  auto copy = layer.clone();
  EXPECT_EQ(copy->build(Shape{3}), Shape{2});
  EXPECT_EQ(copy->param_count(), layer.param_count());
}

}  // namespace
