// AVX2+FMA instantiation of the GEMM kernels. GEMM: tiles of up to 12 ymm
// accumulators with masked loads and stores at a ragged edge. Small NT:
// one ymm holds two columns' four p-lanes.
// Pooling: eight windows per ymm, columns split and merged by
// shuffle + 64-bit permute.
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
  // Indirect convolution: output rows of 4 take masked whole-ymm loads.
  static constexpr bool kHalves = false;
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

/// 2 x 2 pooling: eight outputs per ymm. Tap codes ride as int32 lanes.
struct PoolAvx2 {
  using Vec = __m256;
  using Code = __m256i;
  static constexpr std::size_t kW = 8;

  static Vec zero() noexcept { return _mm256_setzero_ps(); }
  static Vec load(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static void store(float* p, Vec v) noexcept { _mm256_storeu_ps(p, v); }
  /// Lanes [0, n), n in [1, 8].
  static __m256i mask(std::size_t n) noexcept {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Vec load_n(const float* p, std::size_t n) noexcept {
    return _mm256_maskload_ps(p, mask(n));
  }
  static void store_n(float* p, Vec v, std::size_t n) noexcept {
    _mm256_maskstore_ps(p, mask(n), v);
  }
  /// a[0..4) in the low half, b[0..4) in the high one.
  static Vec load_halves(const float* a, const float* b) noexcept {
    return _mm256_set_m128(_mm_loadu_ps(b), _mm_loadu_ps(a));
  }
  static void store_halves(float* a, float* b, Vec v) noexcept {
    _mm_storeu_ps(a, _mm256_castps256_ps128(v));
    _mm_storeu_ps(b, _mm256_extractf128_ps(v, 1));
  }
  /// Columns 0, 2, .., 14 and 1, 3, .., 15 of lo:hi. The in-lane shuffle
  /// leaves [lo0 lo2 hi0 hi2 | lo4 lo6 hi4 hi6]; the 64-bit permute puts
  /// the lo pairs first.
  static void split(Vec lo, Vec hi, Vec& even, Vec& odd) noexcept {
    even = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, 0x88)), 0xD8));
    odd = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, 0xDD)), 0xD8));
  }
  /// split's inverse: interleave, then put 128-bit halves in order.
  static void merge(Vec even, Vec odd, Vec& lo, Vec& hi) noexcept {
    const __m256 low = _mm256_unpacklo_ps(even, odd);
    const __m256 high = _mm256_unpackhi_ps(even, odd);
    lo = _mm256_permute2f128_ps(low, high, 0x20);
    hi = _mm256_permute2f128_ps(low, high, 0x31);
  }
  static Code code(unsigned k) noexcept {
    return _mm256_set1_epi32(static_cast<int>(k));
  }
  static void take(Vec t, unsigned k, Vec& best, Code& c) noexcept {
    const __m256 greater = _mm256_cmp_ps(t, best, _CMP_GT_OQ);
    best = _mm256_blendv_ps(best, t, greater);
    c = _mm256_blendv_epi8(c, code(k), _mm256_castps_si256(greater));
  }
  /// Narrows the lanes to bytes: each 128-bit half packs its four codes
  /// into its low dword, and the permute joins the two dwords.
  static void store_codes(std::uint8_t* p, Code c) noexcept {
    const __m256i words = _mm256_packs_epi32(c, c);
    const __m256i bytes = _mm256_packus_epi16(words, words);
    const __m256i joined = _mm256_permutevar8x32_epi32(
        bytes, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                     _mm256_castsi256_si128(joined));
  }
  static Code load_codes(const std::uint8_t* p) noexcept {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static Vec pick(Code c, unsigned k, Vec g) noexcept {
    return _mm256_and_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(c, code(k))), g);
  }
  static Vec grad(Vec dy) noexcept {
    return _mm256_add_ps(_mm256_setzero_ps(), dy);
  }
  static Vec relu_grad(Vec pooled, Vec dy) noexcept {
    return _mm256_and_ps(
        _mm256_cmp_ps(pooled, _mm256_setzero_ps(), _CMP_GT_OQ), grad(dy));
  }
};

}  // namespace

const GemmKernels& avx2_kernels() noexcept {
  return kernel_table<ArchAvx2, NtAvx2, PoolAvx2>();
}

}  // namespace middlefl::tensor::detail

#else  // toolchain cannot emit AVX2: link-compatible scalar fallback

namespace middlefl::tensor::detail {

const GemmKernels& avx2_kernels() noexcept {
  return kernel_table<ArchScalar, NtScalar, PoolScalar>();
}

}  // namespace middlefl::tensor::detail

#endif
