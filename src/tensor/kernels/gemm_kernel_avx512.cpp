// AVX-512F instantiation of the GEMM kernels. GEMM: tiles of up to 24 zmm
// accumulators with masked loads and stores at a ragged edge; the indirect
// convolution's tiles join two 8-float output rows per zmm. Small NT:
// one zmm holds four columns' four p-lanes, and eight rows share each B
// vector. Pooling: sixteen windows per zmm, columns split and merged by
// two-source permutes.
// Compiled with -mavx512f -ffp-contract=off on x86 builds; falls back to
// the scalar geometry when the toolchain cannot target AVX-512 so the
// symbol always links (the runtime dispatch never selects it on a CPU
// without AVX-512F). Only AVX-512F instructions are used: no VL/DQ/BW.
#include "tensor/kernels/gemm_kernel_impl.hpp"

#if defined(__AVX512F__)
// GCC 12 reports the _mm512_undefined_ps() placeholders inside its own
// broadcast/permute/cast/shuffle intrinsics as (maybe-)uninitialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#include <immintrin.h>

namespace middlefl::tensor::detail {
namespace {

__m512 madd_ps(__m512 a, __m512 b, __m512 c) noexcept {
#if defined(MIDDLEFL_GEMM_FMA)
  return _mm512_fmadd_ps(a, b, c);
#else
  return _mm512_add_ps(_mm512_mul_ps(a, b), c);
#endif
}

struct ArchAvx512 {
  using Vec = __m512;
  static constexpr std::size_t kW = 16;

  static Vec zero() noexcept { return _mm512_setzero_ps(); }
  static Vec load(const float* p) noexcept { return _mm512_loadu_ps(p); }
  static void store(float* p, Vec v) noexcept { _mm512_storeu_ps(p, v); }
  static Vec broadcast(float v) noexcept { return _mm512_set1_ps(v); }
  static Vec add(Vec a, Vec b) noexcept { return _mm512_add_ps(a, b); }
  static Vec mul(Vec a, Vec b) noexcept { return _mm512_mul_ps(a, b); }
  static Vec madd(Vec a, Vec b, Vec c) noexcept { return madd_ps(a, b, c); }
  static Vec relu(Vec v) noexcept {
    // Masked move keeps exactly the lanes where v > 0 (ordered compare:
    // NaN lanes zero out), matching the scalar `v > 0 ? v : 0`.
    const __mmask16 pos =
        _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ);
    return _mm512_maskz_mov_ps(pos, v);
  }
  // Indirect convolution: an output row of 8 (CNN-2's conv2) is half a
  // zmm, so one zmm holds two rows, joined from two 256-bit loads.
  static constexpr bool kHalves = true;
  /// a[0..8) in the low half, b[0..8) in the high one.
  static Vec load_halves(const float* a, const float* b) noexcept {
    const __m512d low =
        _mm512_castps_pd(_mm512_castps256_ps512(_mm256_loadu_ps(a)));
    return _mm512_castpd_ps(_mm512_insertf64x4(
        low, _mm256_castps_pd(_mm256_loadu_ps(b)), 1));
  }
  // Small path: up to 8 rows x 4 zmm (8 x 3 at n = 48), 24 accumulators.
  static constexpr std::size_t kSmallMR = 8;
  static constexpr std::size_t kSmallNV = 4;
  static constexpr std::size_t kSmallAcc = 24;
  using Mask = __mmask16;
  /// Lanes [0, valid), valid in [1, 16].
  static Mask mask(std::size_t valid) noexcept {
    return static_cast<Mask>((1u << valid) - 1u);
  }
  static Vec load_masked(const float* p, Mask m) noexcept {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void store_masked(float* p, Vec v, Mask m) noexcept {
    _mm512_mask_storeu_ps(p, m, v);
  }
  /// 16 x 16 transpose: dst[j * ldd + i] = src[i * lds + j]. Interleave
  /// row pairs (ps), then pairs of pairs (pd), so 128-bit lane L of u[4g+c]
  /// holds column 4L + c of rows 4g .. 4g + 3; two rounds of 128-bit lane
  /// shuffles then gather each column's four row groups.
  static void transpose(const float* src, std::size_t lds, float* dst,
                        std::size_t ldd) noexcept {
    __m512 r[16];
    for (std::size_t i = 0; i < 16; ++i) r[i] = _mm512_loadu_ps(src + i * lds);
    __m512 t[16];
    for (std::size_t i = 0; i < 16; i += 2) {
      t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
      t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    __m512 u[16];
    for (std::size_t g = 0; g < 4; ++g) {
      const __m512* q = t + 4 * g;
      const auto pd = [](__m512 v) { return _mm512_castps_pd(v); };
      u[4 * g + 0] = _mm512_castpd_ps(_mm512_unpacklo_pd(pd(q[0]), pd(q[2])));
      u[4 * g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(pd(q[0]), pd(q[2])));
      u[4 * g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(pd(q[1]), pd(q[3])));
      u[4 * g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(pd(q[1]), pd(q[3])));
    }
    for (std::size_t c = 0; c < 4; ++c) {
      // Lanes (0, 2) and (1, 3) of row groups 0-1 and 2-3.
      const __m512 even01 = _mm512_shuffle_f32x4(u[c], u[4 + c], 0x88);
      const __m512 odd01 = _mm512_shuffle_f32x4(u[c], u[4 + c], 0xDD);
      const __m512 even23 = _mm512_shuffle_f32x4(u[8 + c], u[12 + c], 0x88);
      const __m512 odd23 = _mm512_shuffle_f32x4(u[8 + c], u[12 + c], 0xDD);
      _mm512_storeu_ps(dst + c * ldd,
                       _mm512_shuffle_f32x4(even01, even23, 0x88));
      _mm512_storeu_ps(dst + (c + 8) * ldd,
                       _mm512_shuffle_f32x4(even01, even23, 0xDD));
      _mm512_storeu_ps(dst + (c + 4) * ldd,
                       _mm512_shuffle_f32x4(odd01, odd23, 0x88));
      _mm512_storeu_ps(dst + (c + 12) * ldd,
                       _mm512_shuffle_f32x4(odd01, odd23, 0xDD));
    }
  }
};

/// Small NT: lanes [4t, 4t+4) hold column t's s0..s3.
struct NtAvx512 {
  using Vec = __m512;
  static constexpr std::size_t kCols = 4;
  static constexpr std::size_t kRows = 8;
  static constexpr __mmask16 kLane0 = 0x1111;

  static Vec zero() noexcept { return _mm512_setzero_ps(); }
  static Vec load_a(const float* a) noexcept {
    return _mm512_broadcast_f32x4(_mm_loadu_ps(a));
  }
  static Vec load_a_tail(float a) noexcept { return _mm512_set1_ps(a); }
  static Vec load_b(const float* const* cols, std::size_t p) noexcept {
    Vec v = _mm512_castps128_ps512(_mm_loadu_ps(cols[0] + p));
    v = _mm512_insertf32x4(v, _mm_loadu_ps(cols[1] + p), 1);
    v = _mm512_insertf32x4(v, _mm_loadu_ps(cols[2] + p), 2);
    return _mm512_insertf32x4(v, _mm_loadu_ps(cols[3] + p), 3);
  }
  static Vec load_b_tail(const float* const* cols, std::size_t p) noexcept {
    Vec v = _mm512_castps128_ps512(_mm_load_ss(cols[0] + p));
    v = _mm512_insertf32x4(v, _mm_load_ss(cols[1] + p), 1);
    v = _mm512_insertf32x4(v, _mm_load_ss(cols[2] + p), 2);
    return _mm512_insertf32x4(v, _mm_load_ss(cols[3] + p), 3);
  }
  static Vec madd(Vec a, Vec b, Vec c) noexcept { return madd_ps(a, b, c); }
  static Vec madd_lane0(Vec a, Vec b, Vec c) noexcept {
    return _mm512_mask_mov_ps(c, kLane0, madd_ps(a, b, c));
  }
  static void reduce(Vec v, float* out) noexcept {
    // Lane 4t ends as (s0 + s1) + (s2 + s3) of column t; compress packs
    // lanes 0, 4, 8, 12 into the low quarter.
    const __m512 pairs = _mm512_add_ps(v, _mm512_permute_ps(v, 0xB1));
    const __m512 tree = _mm512_add_ps(pairs, _mm512_permute_ps(pairs, 0x4E));
    const __m512 packed = _mm512_maskz_compress_ps(kLane0, tree);
    _mm_storeu_ps(out, _mm512_castps512_ps128(packed));
  }
  static float madd1(float a, float b, float c) noexcept {
#if defined(MIDDLEFL_GEMM_FMA)
    return __builtin_fmaf(a, b, c);
#else
    return a * b + c;
#endif
  }
};

/// 2 x 2 pooling: sixteen outputs per zmm; compares and tap codes use
/// mask registers, and the tap codes narrow to bytes with vpmovdb.
struct PoolAvx512 {
  using Vec = __m512;
  using Code = __m512i;
  static constexpr std::size_t kW = 16;

  static Vec zero() noexcept { return _mm512_setzero_ps(); }
  static Vec load(const float* p) noexcept { return _mm512_loadu_ps(p); }
  static void store(float* p, Vec v) noexcept { _mm512_storeu_ps(p, v); }
  /// Lanes [0, n), n in [1, 16].
  static __mmask16 mask(std::size_t n) noexcept {
    return static_cast<__mmask16>((1u << n) - 1u);
  }
  static Vec load_n(const float* p, std::size_t n) noexcept {
    return _mm512_maskz_loadu_ps(mask(n), p);
  }
  static void store_n(float* p, Vec v, std::size_t n) noexcept {
    _mm512_mask_storeu_ps(p, mask(n), v);
  }
  static Vec load_halves(const float* a, const float* b) noexcept {
    return ArchAvx512::load_halves(a, b);
  }
  static void store_halves(float* a, float* b, Vec v) noexcept {
    _mm256_storeu_ps(a, _mm512_castps512_ps256(v));
    _mm256_storeu_ps(b, _mm256_castpd_ps(
                            _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
  }
  /// Columns 0, 2, .., 30 and 1, 3, .., 31 of lo:hi, one two-source
  /// permute each.
  static void split(Vec lo, Vec hi, Vec& even, Vec& odd) noexcept {
    const __m512i evens = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16,
                                            18, 20, 22, 24, 26, 28, 30);
    const __m512i odds = _mm512_add_epi32(evens, _mm512_set1_epi32(1));
    even = _mm512_permutex2var_ps(lo, evens, hi);
    odd = _mm512_permutex2var_ps(lo, odds, hi);
  }
  /// split's inverse: lo interleaves lanes 0..7 of even and odd, hi lanes
  /// 8..15 (index 16 + i is odd's lane i).
  static void merge(Vec even, Vec odd, Vec& lo, Vec& hi) noexcept {
    const __m512i low = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20,
                                          5, 21, 6, 22, 7, 23);
    const __m512i high = _mm512_add_epi32(low, _mm512_set1_epi32(8));
    lo = _mm512_permutex2var_ps(even, low, odd);
    hi = _mm512_permutex2var_ps(even, high, odd);
  }
  static Code code(unsigned k) noexcept {
    return _mm512_set1_epi32(static_cast<int>(k));
  }
  static void take(Vec t, unsigned k, Vec& best, Code& c) noexcept {
    const __mmask16 greater = _mm512_cmp_ps_mask(t, best, _CMP_GT_OQ);
    best = _mm512_mask_mov_ps(best, greater, t);
    c = _mm512_mask_mov_epi32(c, greater, code(k));
  }
  static void store_codes(std::uint8_t* p, Code c) noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm512_cvtepi32_epi8(c));
  }
  static Code load_codes(const std::uint8_t* p) noexcept {
    return _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static Vec pick(Code c, unsigned k, Vec g) noexcept {
    return _mm512_maskz_mov_ps(_mm512_cmpeq_epi32_mask(c, code(k)), g);
  }
  static Vec grad(Vec dy) noexcept {
    return _mm512_add_ps(_mm512_setzero_ps(), dy);
  }
  static Vec relu_grad(Vec pooled, Vec dy) noexcept {
    return _mm512_maskz_mov_ps(
        _mm512_cmp_ps_mask(pooled, _mm512_setzero_ps(), _CMP_GT_OQ),
        grad(dy));
  }
};

}  // namespace

const GemmKernels& avx512_kernels() noexcept {
  return kernel_table<ArchAvx512, NtAvx512, PoolAvx512>();
}

}  // namespace middlefl::tensor::detail

#else  // toolchain cannot emit AVX-512: link-compatible scalar fallback

namespace middlefl::tensor::detail {

const GemmKernels& avx512_kernels() noexcept {
  return kernel_table<ArchScalar, NtScalar, PoolScalar>();
}

}  // namespace middlefl::tensor::detail

#endif
