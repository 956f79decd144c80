// AVX-512F instantiation of the GEMM kernels. Packed: 8x32 micro-tile (16
// zmm accumulators out of 32). Small NT: one zmm holds four columns' four
// p-lanes, and eight rows share each B vector.
// Compiled with -mavx512f -ffp-contract=off on x86 builds; falls back to
// the scalar geometry when the toolchain cannot target AVX-512 so the
// symbol always links (the runtime dispatch never selects it on a CPU
// without AVX-512F). Only AVX-512F instructions are used: no VL/DQ/BW.
#include "tensor/kernels/gemm_kernel_impl.hpp"

#if defined(__AVX512F__)
// GCC 12 reports the _mm512_undefined_ps() placeholders inside its own
// broadcast/permute/cast intrinsics as maybe-uninitialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
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
  static constexpr std::size_t kMR = 8;
  static constexpr std::size_t kNV = 2;  // NR = 32

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

}  // namespace

const GemmKernels& avx512_kernels() noexcept {
  return kernel_table<ArchAvx512, NtAvx512>();
}

}  // namespace middlefl::tensor::detail

#else  // toolchain cannot emit AVX-512: link-compatible scalar fallback

namespace middlefl::tensor::detail {

const GemmKernels& avx512_kernels() noexcept {
  return kernel_table<ArchScalar, NtScalar>();
}

}  // namespace middlefl::tensor::detail

#endif
