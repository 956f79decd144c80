// Property tests for the GEMM kernels (src/tensor/kernels/): value
// correctness against a naive double-accumulated reference across shapes
// that exercise partial edge tiles and deep k, exact fused-epilogue
// semantics (bias / ReLU / mask / row-sums bitwise equal to the unfused
// elementwise passes), dispatch parity — every ISA tier the host supports
// must produce byte-identical output for the same input — every transpose
// byte for byte against NN on materialised operands, a sweep over the
// column and depth edges of the row-major and transposed B views, the
// small path byte for byte against a scalar spelling of its rounding
// contract, and the indirect convolution against gemm() over a built
// column matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "isa_guard.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/blas.hpp"
#include "tensor/cpu_features.hpp"
#include "tensor/kernels/gemm_kernel.hpp"

namespace {

using middlefl::tensor::GemmEpilogue;
using middlefl::tensor::IsaLevel;
using middlefl::tensor::Trans;
using middlefl::test_support::IsaGuard;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Naive op(A)*op(B) with double accumulation — the correctness oracle.
std::vector<float> naive_gemm(Trans ta, Trans tb, std::size_t m,
                              std::size_t n, std::size_t k, float alpha,
                              const std::vector<float>& a,
                              const std::vector<float>& b, float beta,
                              const std::vector<float>& c_in) {
  std::vector<float> c = c_in;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta == Trans::kNo ? a[i * k + p] : a[p * m + i];
        const float bv = tb == Trans::kNo ? b[p * n + j] : b[j * k + p];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] =
          alpha * static_cast<float>(acc) + beta * c_in[i * n + j];
    }
  }
  return c;
}

void check_against_naive(Trans ta, Trans tb, std::size_t m, std::size_t n,
                         std::size_t k, float alpha, float beta) {
  SCOPED_TRACE(::testing::Message()
               << "ta=" << (ta == Trans::kYes) << " tb="
               << (tb == Trans::kYes) << " m=" << m << " n=" << n
               << " k=" << k << " alpha=" << alpha << " beta=" << beta);
  const auto a = random_vec(m * k, 101 + m * 13 + k * 3);
  const auto b = random_vec(k * n, 202 + n * 17 + k * 5);
  const auto c0 = random_vec(m * n, 303 + m * 7 + n);
  const auto expected = naive_gemm(ta, tb, m, n, k, alpha, a, b, beta, c0);
  std::vector<float> c = c0;
  middlefl::tensor::gemm(ta, tb, m, n, k, alpha, a, b, beta, c);
  const double tol = 1e-4 * (1.0 + static_cast<double>(k) * 0.01);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], tol) << "at flat index " << i;
  }
}

// Shapes chosen to hit the kernels' structural cases: whole and partial
// vectors and tiles in M and N, single rows/columns, n/k below the
// small-NT threshold, and deeper k.
struct ShapeCase {
  std::size_t m, n, k;
};
const ShapeCase kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {8, 32, 16},  {16, 64, 64},
    {6, 16, 8},   {13, 33, 21},  {17, 48, 19}, {9, 40, 257},
    {5, 17, 300}, {12, 70, 513}, {33, 10, 64}, {2, 100, 31},
};

TEST(GemmKernel, MatchesNaiveReferenceAllTransposes) {
  for (const auto& s : kShapes) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        check_against_naive(ta, tb, s.m, s.n, s.k, 1.0f, 0.0f);
      }
    }
  }
}

TEST(GemmKernel, AlphaBetaVariants) {
  const float alphas[] = {1.0f, 0.5f, -2.0f};
  const float betas[] = {0.0f, 1.0f, -0.75f};
  for (const auto& s : {ShapeCase{13, 33, 21}, ShapeCase{9, 40, 257}}) {
    for (const float alpha : alphas) {
      for (const float beta : betas) {
        check_against_naive(Trans::kNo, Trans::kNo, s.m, s.n, s.k, alpha,
                            beta);
        check_against_naive(Trans::kYes, Trans::kNo, s.m, s.n, s.k, alpha,
                            beta);
      }
    }
  }
}

TEST(GemmKernel, KZeroScalesCAndAppliesEpilogue) {
  const std::size_t m = 7, n = 19;
  const auto c0 = random_vec(m * n, 42);
  const auto bias = random_vec(n, 43);

  std::vector<float> c = c0;
  GemmEpilogue epi;
  epi.col_bias = bias.data();
  epi.relu = true;
  middlefl::tensor::gemm(Trans::kNo, Trans::kNo, m, n, 0, 1.0f, {}, {},
                         0.5f, c, nullptr, &epi);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float want = 0.5f * c0[i * n + j];
      want += bias[j];
      want = want > 0.0f ? want : 0.0f;
      EXPECT_EQ(c[i * n + j], want) << "at (" << i << "," << j << ")";
    }
  }
}

/// Applies the documented epilogue steps elementwise to a plain GEMM
/// result — the reference the fused path must match bitwise.
void apply_epilogue_reference(const GemmEpilogue& epi, std::size_t m,
                              std::size_t n, std::vector<float>& c,
                              std::vector<std::uint8_t>* mask) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float v = c[i * n + j];
      if (epi.col_bias != nullptr) v += epi.col_bias[j];
      if (epi.row_bias != nullptr) v += epi.row_bias[i];
      if (epi.relu) v = v > 0.0f ? v : 0.0f;
      c[i * n + j] = v;
      if (mask != nullptr) (*mask)[i * n + j] = v > 0.0f ? 1 : 0;
    }
  }
}

void check_fused_epilogue_bitwise(Trans ta, Trans tb, std::size_t m,
                                  std::size_t n, std::size_t k) {
  SCOPED_TRACE(::testing::Message() << "ta=" << (ta == Trans::kYes)
                                    << " tb=" << (tb == Trans::kYes)
                                    << " m=" << m << " n=" << n
                                    << " k=" << k);
  const auto a = random_vec(m * k, 900 + m + k);
  const auto b = random_vec(k * n, 901 + n + k);
  const auto c0 = random_vec(m * n, 902 + m + n);
  const auto col_bias = random_vec(n, 903);
  const auto row_bias = random_vec(m, 904);

  // Unfused reference: plain gemm, then the elementwise passes.
  std::vector<float> ref = c0;
  middlefl::tensor::gemm(ta, tb, m, n, k, 1.0f, a, b, 1.0f, ref);
  GemmEpilogue epi;
  epi.col_bias = col_bias.data();
  epi.row_bias = row_bias.data();
  epi.relu = true;
  std::vector<std::uint8_t> ref_mask(m * n, 0);
  apply_epilogue_reference(epi, m, n, ref, &ref_mask);

  // Fused: one gemm call with the epilogue attached.
  std::vector<float> fused = c0;
  std::vector<std::uint8_t> fused_mask(m * n, 0xCC);
  epi.relu_mask = fused_mask.data();
  middlefl::tensor::gemm(ta, tb, m, n, k, 1.0f, a, b, 1.0f, fused, nullptr,
                         &epi);

  ASSERT_EQ(0, std::memcmp(ref.data(), fused.data(),
                           ref.size() * sizeof(float)))
      << "fused epilogue changed output bits";
  EXPECT_EQ(ref_mask, fused_mask);
}

TEST(GemmKernel, FusedEpilogueBitwiseEqualsUnfused) {
  // Small-path shapes (n, k >= 16) and small-NT shapes (n < 16), plus a
  // deeper k: the epilogue must behave identically on both kernels.
  check_fused_epilogue_bitwise(Trans::kNo, Trans::kNo, 13, 33, 21);
  check_fused_epilogue_bitwise(Trans::kNo, Trans::kNo, 9, 40, 257);
  check_fused_epilogue_bitwise(Trans::kNo, Trans::kYes, 11, 10, 24);
  check_fused_epilogue_bitwise(Trans::kNo, Trans::kYes, 16, 48, 32);
  check_fused_epilogue_bitwise(Trans::kYes, Trans::kNo, 12, 20, 18);
}

TEST(GemmKernel, RowSumsAccumulateExactly) {
  for (const Trans ta : {Trans::kNo, Trans::kYes}) {
    for (const auto& s : {ShapeCase{13, 33, 21}, ShapeCase{9, 40, 257},
                          ShapeCase{11, 10, 24}}) {
      SCOPED_TRACE(::testing::Message() << "ta=" << (ta == Trans::kYes)
                                        << " m=" << s.m << " n=" << s.n
                                        << " k=" << s.k);
      const auto a = random_vec(s.m * s.k, 700 + s.m);
      const auto b = random_vec(s.k * s.n, 701 + s.n);
      std::vector<float> c(s.m * s.n, 0.0f);

      // The contract: row_sums[i] += sum_p op(A)[i,p], raw values (no
      // alpha), ascending p, float accumulation, exactly once per row.
      auto sums = random_vec(s.m, 702);  // nonzero start proves +=
      std::vector<float> want = sums;
      for (std::size_t i = 0; i < s.m; ++i) {
        float acc = want[i];
        for (std::size_t p = 0; p < s.k; ++p) {
          acc += ta == Trans::kNo ? a[i * s.k + p] : a[p * s.m + i];
        }
        want[i] = acc;
      }

      GemmEpilogue epi;
      epi.row_sums = sums.data();
      middlefl::tensor::gemm(ta, Trans::kNo, s.m, s.n, s.k, 2.0f, a, b,
                             0.0f, c, nullptr, &epi);
      ASSERT_EQ(0, std::memcmp(want.data(), sums.data(),
                               want.size() * sizeof(float)));
    }
  }
}

TEST(GemmKernel, RowSumsOnSmallNtPath) {
  // n < 16 routes through the small-NT kernel; the row-sums helper that
  // follows it must obey the same contract as the small path.
  const std::size_t m = 9, n = 10, k = 24;
  const auto a = random_vec(m * k, 750);
  const auto b = random_vec(n * k, 751);
  std::vector<float> c(m * n, 0.0f);

  auto sums = random_vec(m, 752);
  std::vector<float> want = sums;
  for (std::size_t i = 0; i < m; ++i) {
    float acc = want[i];
    for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p];
    want[i] = acc;
  }

  GemmEpilogue epi;
  epi.row_sums = sums.data();
  middlefl::tensor::gemm(Trans::kNo, Trans::kYes, m, n, k, 1.0f, a, b, 0.0f,
                         c, nullptr, &epi);
  ASSERT_EQ(0,
            std::memcmp(want.data(), sums.data(), m * sizeof(float)));
}

TEST(GemmKernel, RowSumsExactlyOnceWithThreadPool) {
  // Parallel row splits must not double-count: each row's sum is folded
  // once, by the chunk that owns the row.
  const std::size_t m = 64, n = 48, k = 512;  // big enough to parallelize
  const auto a = random_vec(m * k, 800);
  const auto b = random_vec(k * n, 801);

  std::vector<float> c_serial(m * n, 0.0f);
  std::vector<float> sums_serial(m, 1.0f);
  GemmEpilogue epi;
  epi.row_sums = sums_serial.data();
  middlefl::tensor::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a, b, 0.0f,
                         c_serial, nullptr, &epi);

  middlefl::parallel::ThreadPool pool(4);
  std::vector<float> c_par(m * n, 0.0f);
  std::vector<float> sums_par(m, 1.0f);
  epi.row_sums = sums_par.data();
  middlefl::tensor::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a, b, 0.0f,
                         c_par, &pool, &epi);

  ASSERT_EQ(0, std::memcmp(sums_serial.data(), sums_par.data(),
                           m * sizeof(float)));
  ASSERT_EQ(0, std::memcmp(c_serial.data(), c_par.data(),
                           m * n * sizeof(float)));
}

// Dispatch parity: the same inputs through every ISA tier this host
// supports must produce byte-identical C (and mask). This is the
// determinism contract the golden-run fingerprints rely on — a portable
// binary's output cannot depend on which CPU it lands on. trans_b = kYes
// covers the transposed B panel and, for n < 16 or k < 16, the small-NT
// kernel.
TEST(GemmKernel, DispatchParityAcrossIsaTiers) {
  const IsaLevel detected = middlefl::tensor::detected_isa();

  for (const auto& s : kShapes) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        const auto a = random_vec(s.m * s.k, 500 + s.m + s.k);
        const auto b = random_vec(s.k * s.n, 501 + s.n + s.k);
        const auto c0 = random_vec(s.m * s.n, 502 + s.m + s.n);
        const auto bias = random_vec(s.n, 503);

        GemmEpilogue epi;
        epi.col_bias = bias.data();
        epi.relu = true;

        // Baseline: forced scalar.
        std::vector<float> c_scalar = c0;
        std::vector<std::uint8_t> mask_scalar(s.m * s.n, 0);
        {
          IsaGuard guard(IsaLevel::kScalar);
          ASSERT_EQ(guard.applied, IsaLevel::kScalar);
          epi.relu_mask = mask_scalar.data();
          middlefl::tensor::gemm(ta, tb, s.m, s.n, s.k, 1.0f, a, b, 0.5f,
                                 c_scalar, nullptr, &epi);
        }

        for (const IsaLevel level : {IsaLevel::kAvx2, IsaLevel::kAvx512}) {
          if (static_cast<int>(level) > static_cast<int>(detected)) continue;
          SCOPED_TRACE(::testing::Message()
                       << "isa=" << middlefl::tensor::to_string(level)
                       << " ta=" << (ta == Trans::kYes)
                       << " tb=" << (tb == Trans::kYes) << " m=" << s.m
                       << " n=" << s.n << " k=" << s.k);
          std::vector<float> c_simd = c0;
          std::vector<std::uint8_t> mask_simd(s.m * s.n, 0);
          IsaGuard guard(level);
          ASSERT_EQ(guard.applied, level);
          epi.relu_mask = mask_simd.data();
          middlefl::tensor::gemm(ta, tb, s.m, s.n, s.k, 1.0f, a, b, 0.5f,
                                 c_simd, nullptr, &epi);
          ASSERT_EQ(0, std::memcmp(c_scalar.data(), c_simd.data(),
                                   c_scalar.size() * sizeof(float)))
              << "ISA tier changed output bits";
          ASSERT_EQ(mask_scalar, mask_simd);
        }
      }
    }
  }
}

/// One gemm call's outputs: C, the ReLU mask and the row sums.
struct GemmOutputs {
  std::vector<float> c;
  std::vector<std::uint8_t> mask;
  std::vector<float> sums;

  bool operator==(const GemmOutputs& o) const {
    return c.size() == o.c.size() &&
           std::memcmp(c.data(), o.c.data(), c.size() * sizeof(float)) == 0 &&
           mask == o.mask &&
           std::memcmp(sums.data(), o.sums.data(),
                       sums.size() * sizeof(float)) == 0;
  }
};

enum class EpilogueKind { kNone, kBiasReluMask, kRowSums };

/// C = 0.75 * op(A) * op(B) + beta * C0 with the given epilogue (bias and
/// ReLU with its mask, or row sums starting from 0.5).
GemmOutputs run_gemm(Trans ta, Trans tb, std::size_t m, std::size_t n,
                     std::size_t k, std::span<const float> a,
                     std::span<const float> b,
                     float beta, const std::vector<float>& c0,
                     EpilogueKind kind, const std::vector<float>& col_bias,
                     const std::vector<float>& row_bias,
                     middlefl::parallel::ThreadPool* pool) {
  GemmOutputs out{c0, std::vector<std::uint8_t>(m * n, 0),
                  std::vector<float>(m, 0.5f)};
  GemmEpilogue epi;
  if (kind == EpilogueKind::kBiasReluMask) {
    epi.col_bias = col_bias.data();
    epi.row_bias = row_bias.data();
    epi.relu = true;
    epi.relu_mask = out.mask.data();
  } else if (kind == EpilogueKind::kRowSums) {
    epi.row_sums = out.sums.data();
  }
  middlefl::tensor::gemm(ta, tb, m, n, k, 0.75f, a, b, beta, out.c, pool,
                         kind == EpilogueKind::kNone ? nullptr : &epi);
  return out;
}

// A row-major op(B) is read in place (row stride n); a transposed one is
// register-transposed into a panel with rows padded to whole vectors. n
// steps over every tier's vector and tile widths and the ragged widths
// around them, k from 1 to past 1024, and B sits one float past an
// aligned start. Every result must match the naive reference, stay
// bitwise equal under a 2-thread pool's row splits, and be bitwise equal
// to the forced-scalar tier, for every beta and epilogue.
TEST(GemmKernel, BSweepMatchesReferenceAndScalarTier) {
  const std::size_t m = 19;  // a partial tile on every tier
  middlefl::parallel::ThreadPool pool(2);
  const std::vector<IsaLevel> levels = middlefl::test_support::supported_isas();
  for (const std::size_t n : {1, 15, 16, 31, 32, 33, 64, 72, 257}) {
    for (const std::size_t k : {1, 16, 255, 256, 257, 1024, 1025, 2048}) {
      const auto a = random_vec(m * k, 1000 + n * 7 + k);
      const auto b_store = random_vec(k * n + 1, 1001 + n * 7 + k);
      const std::span<const float> b(b_store.data() + 1, k * n);
      const auto c0 = random_vec(m * n, 1002 + n * 7 + k);
      const auto col_bias = random_vec(n, 1003);
      const auto row_bias = random_vec(m, 1004);
      const std::vector<float> b_vec(b.begin(), b.end());
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        for (const float beta : {0.0f, 1.0f, -0.75f}) {
          const auto want =
              naive_gemm(Trans::kNo, tb, m, n, k, 0.75f, a, b_vec, beta, c0);
          for (const EpilogueKind kind :
               {EpilogueKind::kNone, EpilogueKind::kBiasReluMask,
                EpilogueKind::kRowSums}) {
            GemmOutputs scalar;
            for (const IsaLevel level : levels) {
              SCOPED_TRACE(::testing::Message()
                           << "isa=" << middlefl::tensor::to_string(level)
                           << " tb=" << (tb == Trans::kYes) << " n=" << n
                           << " k=" << k << " beta=" << beta
                           << " epilogue=" << static_cast<int>(kind));
              IsaGuard guard(level);
              const GemmOutputs serial =
                  run_gemm(Trans::kNo, tb, m, n, k, a, b, beta, c0, kind,
                           col_bias, row_bias, nullptr);
              ASSERT_TRUE(serial == run_gemm(Trans::kNo, tb, m, n, k, a, b,
                                             beta, c0, kind, col_bias,
                                             row_bias, &pool))
                  << "row split changed the result";
              if (level == IsaLevel::kScalar) {
                scalar = serial;
              } else {
                ASSERT_TRUE(serial == scalar) << "ISA tier changed the result";
              }
              if (kind != EpilogueKind::kNone) continue;
              const double tol = 1e-4 * (1.0 + static_cast<double>(k) * 0.01);
              for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_NEAR(serial.c[i], want[i], tol) << "at flat index " << i;
              }
            }
          }
        }
      }
    }
  }
}

/// One call of a kernel table's small path (small_b + small) over `out`,
/// its rows split at `split` into two calls (no split when split is 0 or
/// m). C starts one float into out.c.
void run_table_path(const middlefl::tensor::detail::GemmKernels& kern,
                    bool ta, bool tb, std::size_t m, std::size_t n,
                    std::size_t k, float alpha, const float* a,
                    const float* b, float beta, EpilogueKind kind,
                    const std::vector<float>& col_bias,
                    const std::vector<float>& row_bias, std::size_t split,
                    std::vector<float>& panel, GemmOutputs& out) {
  GemmEpilogue epi;
  if (kind == EpilogueKind::kBiasReluMask) {
    epi.col_bias = col_bias.data();
    epi.row_bias = row_bias.data();
    epi.relu = true;
    epi.relu_mask = out.mask.data();
  } else if (kind == EpilogueKind::kRowSums) {
    epi.row_sums = out.sums.data();
  }
  middlefl::tensor::detail::GemmArgs args;
  args.m = m;
  args.n = n;
  args.k = k;
  args.alpha = alpha;
  args.beta = beta;
  args.a = a;
  args.trans_a = ta;
  args.c = out.c.data() + 1;
  args.epilogue = kind == EpilogueKind::kNone ? nullptr : &epi;
  panel.resize(kern.small_b_floats(k, n, tb));
  kern.small_b(b, tb, panel.data(), args);
  for (const auto& [lo, hi] : {std::pair{std::size_t{0}, split},
                              std::pair{split, m}}) {
    if (lo == hi) continue;
    args.row_lo = lo;
    args.row_hi = hi;
    kern.small(args);
  }
}

/// The GEMM contracts' madd: fused exactly when the build defines
/// MIDDLEFL_GEMM_FMA. The volatile product keeps the compiler from
/// contracting the unfused form.
float contract_madd(float a, float b, float c) {
#if defined(MIDDLEFL_GEMM_FMA)
  return std::fma(a, b, c);
#else
  const volatile float product = a * b;
  return product + c;
#endif
}

/// The small path's outputs spelled out in its contract's order (see
/// kernels/gemm_kernel_impl.hpp), over `out` as run_table_path reads it:
/// C (one float into out.c) starts as zero (beta 0), as it is (beta 1) or
/// as beta * C, then takes madd(alpha * op(A)[i,p], op(B)[p,j], c) for
/// ascending p, then col_bias, row_bias and ReLU; the mask is the stored
/// value > 0, and row_sums add the raw op(A) values in ascending p.
void contract_reference(bool ta, bool tb, std::size_t m, std::size_t n,
                        std::size_t k, float alpha, const float* a,
                        const float* b, float beta, EpilogueKind kind,
                        const std::vector<float>& col_bias,
                        const std::vector<float>& row_bias,
                        GemmOutputs& out) {
  const auto op_a = [&](std::size_t i, std::size_t p) {
    return ta ? a[p * m + i] : a[i * k + p];
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float& cij = out.c[1 + i * n + j];
      float v = beta == 0.0f ? 0.0f : beta == 1.0f ? cij : beta * cij;
      for (std::size_t p = 0; p < k; ++p) {
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        v = contract_madd(alpha * op_a(i, p), bv, v);
      }
      if (kind == EpilogueKind::kBiasReluMask) {
        v += col_bias[j];
        v += row_bias[i];
        v = v > 0.0f ? v : 0.0f;
        out.mask[i * n + j] = v > 0.0f ? 1 : 0;
      }
      cij = v;
    }
    if (kind == EpilogueKind::kRowSums) {
      float sum = out.sums[i];
      for (std::size_t p = 0; p < k; ++p) sum += op_a(i, p);
      out.sums[i] = sum;
    }
  }
}

// The small path reads op(A) in place by stride, a row-major op(B) in
// place and a transposed op(B) through a padded register-transposed panel;
// it must give its contract's bytes in C, the ReLU mask and the row sums
// for every transpose pair, row count (every tile height and its tails),
// every tier's column widths around kW and the small path's column
// blocks, depths around the register-transpose blocks, alpha and beta
// variants (beta 0 never reads C) and each epilogue, with A, B and C one
// float past an aligned start, through each tier's kernel table. alpha
// 0.75 runs the small path as two row chunks.
TEST(GemmKernel, SmallPathOracle) {
  std::vector<std::size_t> rows;
  for (std::size_t m = 1; m <= 17; ++m) rows.push_back(m);
  rows.push_back(24);
  rows.push_back(48);
  const std::size_t cols[] = {1, 7, 8, 15, 16, 17, 24, 31, 32, 33, 47, 48, 49,
                              64};
  const std::size_t depths[] = {1, 2, 8, 10, 16, 24, 48, 64, 65};
  const std::vector<IsaLevel> levels = middlefl::test_support::supported_isas();
  std::vector<float> panel;
  GemmOutputs want;
  GemmOutputs got;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const std::size_t m : rows) {
        for (const std::size_t n : cols) {
          for (const std::size_t k : depths) {
            const std::uint64_t seed = 7000 + m * 131 + n * 17 + k;
            const auto a = random_vec(m * k + 1, seed);
            const auto b = random_vec(k * n + 1, seed + 1);
            const auto c0 = random_vec(m * n + 1, seed + 2);
            const auto col_bias = random_vec(n, seed + 3);
            const auto row_bias = random_vec(m, seed + 4);
            for (const float alpha : {1.0f, 0.75f}) {
              for (const float beta : {0.0f, 1.0f, 0.5f}) {
                for (const EpilogueKind kind :
                     {EpilogueKind::kNone, EpilogueKind::kBiasReluMask,
                      EpilogueKind::kRowSums}) {
                  want.c = c0;
                  want.mask.assign(m * n, 2);
                  want.sums.assign(m, 0.5f);
                  contract_reference(ta, tb, m, n, k, alpha, a.data() + 1,
                                     b.data() + 1, beta, kind, col_bias,
                                     row_bias, want);
                  for (const IsaLevel level : levels) {
                    got.c = c0;
                    got.mask.assign(m * n, 2);
                    got.sums.assign(m, 0.5f);
                    run_table_path(
                        middlefl::tensor::detail::gemm_kernels(level), ta, tb,
                        m, n, k, alpha, a.data() + 1, b.data() + 1, beta,
                        kind, col_bias, row_bias, alpha == 1.0f ? 0 : m / 2,
                        panel, got);
                    ASSERT_TRUE(got == want)
                        << "small path differs from its contract: isa="
                        << middlefl::tensor::to_string(level) << " ta=" << ta
                        << " tb=" << tb << " m=" << m << " n=" << n
                        << " k=" << k << " alpha=" << alpha
                        << " beta=" << beta
                        << " epilogue=" << static_cast<int>(kind);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

// Every transpose pair but the small-NT calls (NT with n < 16 or k < 16,
// a contract of its own) runs the small path's contract on op(A) and
// op(B) wherever they are read from, so gemm(ta, tb) must give the bytes
// of gemm(kNo, kNo) on explicitly transposed copies: C, the ReLU mask and
// the row sums, at every tier.
TEST(GemmKernel, EveryTransposeMatchesMaterialisedNN) {
  for (const IsaLevel level : middlefl::test_support::supported_isas()) {
    IsaGuard guard(level);
    for (const auto& s : kShapes) {
      const auto a = random_vec(s.m * s.k, 1100 + s.m + s.k);
      const auto b = random_vec(s.k * s.n, 1101 + s.n + s.k);
      const auto c0 = random_vec(s.m * s.n, 1102 + s.m + s.n);
      const auto col_bias = random_vec(s.n, 1103);
      const auto row_bias = random_vec(s.m, 1104);
      for (const Trans ta : {Trans::kNo, Trans::kYes}) {
        for (const Trans tb : {Trans::kNo, Trans::kYes}) {
          if (ta == Trans::kNo && tb == Trans::kYes &&
              (s.n < 16 || s.k < 16)) {
            continue;
          }
          // op(A) as m x k and op(B) as k x n, both row-major.
          std::vector<float> op_a(s.m * s.k), op_b(s.k * s.n);
          for (std::size_t i = 0; i < s.m; ++i) {
            for (std::size_t p = 0; p < s.k; ++p) {
              op_a[i * s.k + p] =
                  ta == Trans::kNo ? a[i * s.k + p] : a[p * s.m + i];
            }
          }
          for (std::size_t p = 0; p < s.k; ++p) {
            for (std::size_t j = 0; j < s.n; ++j) {
              op_b[p * s.n + j] =
                  tb == Trans::kNo ? b[p * s.n + j] : b[j * s.k + p];
            }
          }
          for (const float beta : {0.0f, 0.5f}) {
            for (const EpilogueKind kind :
                 {EpilogueKind::kNone, EpilogueKind::kBiasReluMask,
                  EpilogueKind::kRowSums}) {
              SCOPED_TRACE(::testing::Message()
                           << "isa=" << middlefl::tensor::to_string(level)
                           << " ta=" << (ta == Trans::kYes)
                           << " tb=" << (tb == Trans::kYes) << " m=" << s.m
                           << " n=" << s.n << " k=" << s.k << " beta=" << beta
                           << " epilogue=" << static_cast<int>(kind));
              const GemmOutputs got =
                  run_gemm(ta, tb, s.m, s.n, s.k, a, b, beta, c0, kind,
                           col_bias, row_bias, nullptr);
              const GemmOutputs want =
                  run_gemm(Trans::kNo, Trans::kNo, s.m, s.n, s.k, op_a, op_b,
                           beta, c0, kind, col_bias, row_bias, nullptr);
              ASSERT_TRUE(got == want);
            }
          }
        }
      }
    }
  }
}

/// C = alpha * A * B^T + beta * C spelled out in the small-NT contract's
/// order (see kernels/gemm_kernel_impl.hpp): four p-lanes, the k % 4 tail
/// into lane 0, then alpha * ((s0 + s1) + (s2 + s3)) and the beta madd.
std::vector<float> small_nt_reference(std::size_t m, std::size_t n,
                                      std::size_t k, float alpha,
                                      const std::vector<float>& a,
                                      const std::vector<float>& b, float beta,
                                      const std::vector<float>& c_in) {
  std::vector<float> c = c_in;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const float* ai = a.data() + i * k;
      const float* bj = b.data() + j * k;
      float s[4] = {0.0f, 0.0f, 0.0f, 0.0f};
      std::size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        for (std::size_t l = 0; l < 4; ++l) {
          s[l] = contract_madd(ai[p + l], bj[p + l], s[l]);
        }
      }
      for (; p < k; ++p) s[0] = contract_madd(ai[p], bj[p], s[0]);
      const float d = alpha * ((s[0] + s[1]) + (s[2] + s[3]));
      c[i * n + j] = beta == 0.0f ? d : contract_madd(beta, c_in[i * n + j], d);
    }
  }
  return c;
}

TEST(GemmKernel, SmallNtContract) {
  std::vector<std::size_t> depths;
  for (std::size_t k = 1; k <= 40; ++k) depths.push_back(k);
  for (const std::size_t k : {63, 64, 255, 257}) depths.push_back(k);
  // m = 9 covers a full row block of every tier (4 or 8 rows) plus a tail.
  const std::size_t m = 9;
  const IsaLevel detected = middlefl::tensor::detected_isa();
  for (const IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (static_cast<int>(level) > static_cast<int>(detected)) continue;
    IsaGuard guard(level);
    for (std::size_t n = 1; n < 16; ++n) {
      for (const std::size_t k : depths) {
        const auto a = random_vec(m * k, 600 + n + k);
        const auto b = random_vec(n * k, 601 + n + k);
        const auto c0 = random_vec(m * n, 602 + n + k);
        for (const float alpha : {1.0f, 0.5f}) {
          for (const float beta : {0.0f, 1.0f, -0.75f}) {
            SCOPED_TRACE(::testing::Message()
                         << "isa=" << middlefl::tensor::to_string(level)
                         << " n=" << n << " k=" << k << " alpha=" << alpha
                         << " beta=" << beta);
            const auto want =
                small_nt_reference(m, n, k, alpha, a, b, beta, c0);
            std::vector<float> c = c0;
            middlefl::tensor::gemm(Trans::kNo, Trans::kYes, m, n, k, alpha, a,
                                   b, beta, c);
            ASSERT_EQ(0, std::memcmp(want.data(), c.data(),
                                     c.size() * sizeof(float)))
                << "small-NT result differs from the contract";
          }
        }
      }
    }
  }
}

// The indirect convolution (conv_gemm, conv_gemm_nt) against gemm() over
// the column matrix built from the same bordered plane, byte for byte at
// every tier: forward C with its fused epilogue and ReLU mask (C starting
// as NaN, so an unwritten element shows), and the weight gradient onto a
// nonzero start. The plane holds NaN and +-inf pixels and is allocated to
// its exact size, so a read past an output row of its last channel runs
// off the allocation (ASan). Output widths cover whole vectors, half an
// AVX-512 vector (two rows per zmm, with a lone last row at odd heights)
// and ragged ends; the weight gradients cover the small-NT kernel and the
// small path.
TEST(GemmKernel, ConvColumnsMatchBuiltMatrix) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const IsaLevel level : middlefl::test_support::supported_isas()) {
    IsaGuard guard(level);
    for (const std::size_t channels : {1, 3}) {
      for (const std::size_t kernel : {1, 3, 5}) {
        for (const std::size_t pad : {0, 1, 2, 3}) {
          for (const std::size_t in_h : {5, 6}) {
            for (const std::size_t in_w : {7, 8, 9, 16}) {
              SCOPED_TRACE(::testing::Message()
                           << "isa=" << middlefl::tensor::to_string(level)
                           << " C=" << channels << " k=" << kernel
                           << " pad=" << pad << " H=" << in_h
                           << " W=" << in_w);
              const std::size_t bh = in_h + 2 * pad, bw = in_w + 2 * pad;
              const std::size_t out_h = bh - kernel + 1;
              const std::size_t out_w = bw - kernel + 1;
              const std::size_t rows = channels * kernel * kernel;
              const std::size_t k = out_h * out_w;
              const std::size_t plane_size = channels * bh * bw;
              const std::unique_ptr<float[]> plane(new float[plane_size]);
              const auto pixels = random_vec(plane_size, 700 + plane_size);
              for (std::size_t i = 0; i < plane_size; ++i) {
                const std::size_t y = i / bw % bh, x = i % bw;
                const bool inside = y >= pad && y < pad + in_h && x >= pad &&
                                    x < pad + in_w;
                plane[i] = !inside ? 0.0f
                           : i % 11 == 3 ? nan
                           : i % 13 == 5 ? (i % 2 == 0 ? inf : -inf)
                                         : pixels[i];
              }
              std::vector<std::size_t> tap;
              for (std::size_t c = 0; c < channels; ++c) {
                for (std::size_t ky = 0; ky < kernel; ++ky) {
                  for (std::size_t kx = 0; kx < kernel; ++kx) {
                    tap.push_back((c * bh + ky) * bw + kx);
                  }
                }
              }
              std::vector<float> col(rows * k);
              for (std::size_t r = 0; r < rows; ++r) {
                for (std::size_t j = 0; j < k; ++j) {
                  col[r * k + j] = plane[tap[r] + j / out_w * bw + j % out_w];
                }
              }
              middlefl::tensor::ConvColumns view;
              view.plane = plane.get();
              view.tap = tap.data();
              view.rows = rows;
              view.out_h = out_h;
              view.out_w = out_w;
              view.pitch = bw;

              const std::size_t m = 4 + channels;
              const auto w = random_vec(m * rows, 710 + rows);
              const auto bias = random_vec(m, 711);
              std::vector<float> got(m * k, nan), want(m * k, nan);
              std::vector<std::uint8_t> got_mask(m * k, 7), want_mask(m * k, 7);
              GemmEpilogue epi;
              epi.row_bias = bias.data();
              epi.relu = true;
              epi.relu_mask = got_mask.data();
              middlefl::tensor::conv_gemm(m, w, view, got, &epi);
              epi.relu_mask = want_mask.data();
              middlefl::tensor::gemm(Trans::kNo, Trans::kNo, m, k, rows,
                                     1.0f, w, col, 0.0f, want, nullptr, &epi);
              EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                       got.size() * sizeof(float)))
                  << "forward";
              EXPECT_EQ(got_mask, want_mask) << "ReLU mask";

              auto dy = random_vec(m * k, 712 + k);
              for (std::size_t i = 5; i < dy.size(); i += 9) dy[i] = -0.0f;
              std::vector<float> dw = random_vec(m * rows, 713);
              std::vector<float> dw_want = dw;
              middlefl::tensor::conv_gemm_nt(m, dy, view, dw);
              middlefl::tensor::gemm(Trans::kNo, Trans::kYes, m, rows, k,
                                     1.0f, dy, col, 1.0f, dw_want);
              EXPECT_EQ(0, std::memcmp(dw.data(), dw_want.data(),
                                       dw.size() * sizeof(float)))
                  << "weight gradient";
            }
          }
        }
      }
    }
  }
}

TEST(GemmKernel, ForceIsaClampsToDetected) {
  const IsaLevel detected = middlefl::tensor::detected_isa();
  IsaGuard guard(IsaLevel::kAvx512);
  EXPECT_LE(static_cast<int>(guard.applied), static_cast<int>(detected));
  EXPECT_EQ(middlefl::tensor::active_isa(), guard.applied);
}

TEST(GemmKernel, IsaStringRoundTrip) {
  using middlefl::tensor::isa_from_string;
  using middlefl::tensor::to_string;
  for (const IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto parsed = isa_from_string(to_string(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(isa_from_string("sse9").has_value());
}

}  // namespace
