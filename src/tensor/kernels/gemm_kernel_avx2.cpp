// AVX2+FMA instantiation of the GEMM kernels. Packed: 6x16 micro-tile (12
// ymm accumulators + 2 B vectors + 1 broadcast within the 16-register
// file). Small path: tiles of up to 12 ymm accumulators with masked loads
// and stores at a ragged edge. Small NT: one ymm holds two columns' four
// p-lanes.
// Compiled with -mavx2 -mfma -ffp-contract=off on x86 builds; when the
// toolchain cannot target AVX2 this TU falls back to the scalar geometry
// so the symbol always links (the runtime dispatch never selects it on a
// CPU without AVX2, so the fallback body is effectively dead code there).
#include "tensor/kernels/gemm_kernel_impl.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

namespace middlefl::tensor::detail {
namespace {

__m256 madd_ps(__m256 a, __m256 b, __m256 c) noexcept {
#if defined(MIDDLEFL_GEMM_FMA)
  return _mm256_fmadd_ps(a, b, c);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}

struct ArchAvx2 {
  using Vec = __m256;
  static constexpr std::size_t kW = 8;
  static constexpr std::size_t kMR = 6;
  static constexpr std::size_t kNV = 2;  // NR = 16

  static Vec zero() noexcept { return _mm256_setzero_ps(); }
  static Vec load(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static void store(float* p, Vec v) noexcept { _mm256_storeu_ps(p, v); }
  static Vec broadcast(float v) noexcept { return _mm256_set1_ps(v); }
  static Vec add(Vec a, Vec b) noexcept { return _mm256_add_ps(a, b); }
  static Vec mul(Vec a, Vec b) noexcept { return _mm256_mul_ps(a, b); }
  static Vec madd(Vec a, Vec b, Vec c) noexcept { return madd_ps(a, b, c); }
  static Vec relu(Vec v) noexcept {
    // compare-and-select, not max: NaN and -0.0 must map to +0.0 exactly
    // like the scalar `v > 0 ? v : 0`.
    return _mm256_and_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ),
                         v);
  }
  // Small path: up to 8 rows x 1 ymm down to 3 rows x 4 ymm, 12
  // accumulators.
  static constexpr std::size_t kSmallMR = 8;
  static constexpr std::size_t kSmallNV = 4;
  static constexpr std::size_t kSmallAcc = 12;
  using Mask = __m256i;
  /// Lanes [0, valid), valid in [1, 8].
  static Mask mask(std::size_t valid) noexcept {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(valid)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Vec load_masked(const float* p, Mask m) noexcept {
    return _mm256_maskload_ps(p, m);
  }
  static void store_masked(float* p, Vec v, Mask m) noexcept {
    _mm256_maskstore_ps(p, m, v);
  }
  /// 8 x 8 transpose: dst[j * ldd + i] = src[i * lds + j]. Interleave row
  /// pairs, then pairs of pairs, then swap 128-bit halves.
  static void transpose(const float* src, std::size_t lds, float* dst,
                        std::size_t ldd) noexcept {
    __m256 r[8];
    for (std::size_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lds);
    __m256 t[8];
    for (std::size_t i = 0; i < 8; i += 2) {
      t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
      t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    __m256 u[8];  // u[4g + c]: columns c and c + 4 of rows 4g .. 4g + 3
    for (std::size_t g = 0; g < 2; ++g) {
      const __m256* q = t + 4 * g;
      u[4 * g + 0] = _mm256_shuffle_ps(q[0], q[2], 0x44);
      u[4 * g + 1] = _mm256_shuffle_ps(q[0], q[2], 0xEE);
      u[4 * g + 2] = _mm256_shuffle_ps(q[1], q[3], 0x44);
      u[4 * g + 3] = _mm256_shuffle_ps(q[1], q[3], 0xEE);
    }
    for (std::size_t c = 0; c < 4; ++c) {
      _mm256_storeu_ps(dst + c * ldd,
                       _mm256_permute2f128_ps(u[c], u[4 + c], 0x20));
      _mm256_storeu_ps(dst + (c + 4) * ldd,
                       _mm256_permute2f128_ps(u[c], u[4 + c], 0x31));
    }
  }
};

/// Small NT: lanes [4t, 4t+4) hold column t's s0..s3.
struct NtAvx2 {
  using Vec = __m256;
  static constexpr std::size_t kCols = 2;
  static constexpr std::size_t kRows = 4;

  static Vec zero() noexcept { return _mm256_setzero_ps(); }
  static Vec load_a(const float* a) noexcept {
    const __m128 x = _mm_loadu_ps(a);
    return _mm256_set_m128(x, x);
  }
  static Vec load_a_tail(float a) noexcept { return _mm256_set1_ps(a); }
  static Vec load_b(const float* const* cols, std::size_t p) noexcept {
    return _mm256_set_m128(_mm_loadu_ps(cols[1] + p),
                           _mm_loadu_ps(cols[0] + p));
  }
  static Vec load_b_tail(const float* const* cols, std::size_t p) noexcept {
    return _mm256_set_m128(_mm_load_ss(cols[1] + p),
                           _mm_load_ss(cols[0] + p));
  }
  static Vec madd(Vec a, Vec b, Vec c) noexcept { return madd_ps(a, b, c); }
  static Vec madd_lane0(Vec a, Vec b, Vec c) noexcept {
    return _mm256_blend_ps(c, madd_ps(a, b, c), 0x11);
  }
  static void reduce(Vec v, float* out) noexcept {
    // Lane 4t ends as (s0 + s1) + (s2 + s3) of column t.
    const __m256 pairs = _mm256_add_ps(v, _mm256_permute_ps(v, 0xB1));
    const __m256 tree = _mm256_add_ps(pairs, _mm256_permute_ps(pairs, 0x4E));
    out[0] = _mm256_cvtss_f32(tree);
    out[1] = _mm_cvtss_f32(_mm256_extractf128_ps(tree, 1));
  }
  static float madd1(float a, float b, float c) noexcept {
#if defined(MIDDLEFL_GEMM_FMA)
    return __builtin_fmaf(a, b, c);
#else
    return a * b + c;
#endif
  }
};

}  // namespace

const GemmKernels& avx2_kernels() noexcept {
  return kernel_table<ArchAvx2, NtAvx2>();
}

}  // namespace middlefl::tensor::detail

#else  // toolchain cannot emit AVX2: link-compatible scalar fallback

namespace middlefl::tensor::detail {

const GemmKernels& avx2_kernels() noexcept {
  return kernel_table<ArchScalar, NtScalar>();
}

}  // namespace middlefl::tensor::detail

#endif
