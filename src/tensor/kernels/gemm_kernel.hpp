// Dispatch table for the GEMM kernels, and for the 2 x 2 max-pooling
// kernels that ride the same per-ISA tiers.
//
// blas.cpp's gemm() routes every call through one of three kernel
// translation units — scalar, AVX2+FMA, AVX-512F — selected at runtime via
// cpu_features.hpp. Each TU compiles the same algorithms
// (kernels/gemm_kernel_impl.hpp) with a different register geometry: the
// GEMM (the small path), which packs nothing, and the small-NT kernel for
// NT calls with a small B (n < 16 or k < 16). The determinism contracts
// (see the impl header) guarantee all three tiers produce
// bitwise-identical C.
//
// Call protocol:
//   1. Pick the table:    const GemmKernels& k = gemm_kernels(active_isa())
//   2. Prepare B once:    k.small_b(b, trans_b, panel, args): a row-major
//                         op(B) is read in place; a transposed one is
//                         register-transposed into an aligned Workspace
//                         span (kGemmPanelB) of k.small_b_floats(k_dim, n,
//                         trans_b) floats, rows padded to whole vectors.
//   3. Compute rows:      k.small(args) — serial over [0, m), or once per
//                         disjoint row chunk from parallel workers. A and B
//                         are read in place or from the panel, which is
//                         read-only after step 2.
// The small-NT kernel reads A and B in place and needs no preparation; it
// too may run once per disjoint row chunk.
//
// Indirect convolution: conv (the forward's small path), conv_b (the
// weight gradient's transposed B panel) and conv_rows (its B for the
// small-NT kernel) read the column matrix through a ConvColumns view
// (blas.hpp) instead of building it.
//
// Pooling: max_pool2x2 and max_pool2x2_backward (pool_kernel_impl.hpp)
// run MaxPool2d's forward and backward, with the same bits at every tier.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/cpu_features.hpp"

namespace middlefl::tensor {
struct ConvColumns;
struct GemmEpilogue;
}

namespace middlefl::tensor::detail {

/// One GEMM invocation over C rows [row_lo, row_hi).
struct GemmArgs {
  std::size_t row_lo = 0;
  std::size_t row_hi = 0;
  std::size_t m = 0;  // full C height (row_sums / relu_mask indexing)
  std::size_t n = 0;
  std::size_t k = 0;  // must be > 0 (k == 0 degenerates in blas.cpp)
  float alpha = 1.0f;
  float beta = 0.0f;
  const float* a = nullptr;  // op(A): m x k row-major, or k x m if trans_a
  bool trans_a = false;
  // Row p of op(B) is at b + p * ldb, and b_extent floats are readable
  // from b (set by small_b() or conv_b()).
  const float* b = nullptr;
  std::size_t ldb = 0;
  std::size_t b_extent = 0;
  float* c = nullptr;               // full C, row stride n
  const GemmEpilogue* epilogue = nullptr;  // may be null
  // conv(): op(B), k = rows by n = out_h * out_w.
  const ConvColumns* conv = nullptr;
};

struct GemmKernels {
  /// The GEMM: small_b() sets the args' b, ldb and b_extent, reading a
  /// row-major op(B) in place or transposing a transposed one into `out`
  /// (small_b_floats(k, n, trans_b) floats, 0 when row-major); small()
  /// then computes rows [row_lo, row_hi) reading op(A) in place.
  std::size_t (*small_b_floats)(std::size_t k, std::size_t n, bool trans_b);
  void (*small_b)(const float* b, bool trans_b, float* out, GemmArgs& args);
  void (*small)(const GemmArgs& args);
  /// Small NT: C[i, j] = alpha * <A[i, :], B[j, :]> + beta * C[i, j] for
  /// rows [row_lo, row_hi); A is m x k and B is n x k, both row-major,
  /// k > 0. No epilogue (blas.cpp applies it afterwards).
  void (*small_nt)(std::size_t row_lo, std::size_t row_hi, std::size_t n,
                   std::size_t k, float alpha, const float* a, const float* b,
                   float beta, float* c);
  /// Indirect convolution (ConvColumns, blas.hpp). conv() is the small
  /// path for C = op(A) * cols, rows [row_lo, row_hi), with alpha == 1 and
  /// beta == 0 (of the epilogue, row_bias, relu and relu_mask), reading
  /// the view through args.conv. conv_b() is small_b() for a transposed B
  /// whose n x k matrix is the view: it builds the same panel from the
  /// planes, for small().
  void (*conv)(const GemmArgs& args);
  void (*conv_b)(const ConvColumns& cols, float* out, GemmArgs& args);
  /// Writes the view as its row-major cols.rows x (out_h * out_w) matrix:
  /// the B small_nt reads in place.
  void (*conv_rows)(const ConvColumns& cols, float* out);
  /// 2 x 2, stride-2 max pooling of `planes` planes of in_h x in_w floats
  /// (both >= 2) into (in_h / 2) x (in_w / 2) planes; a ragged last row
  /// or column is never read. Each output is the running max of its
  /// window's taps in (ky, kx) order under a strict `>` (the first maximum
  /// wins ties, and a NaN only when it is the first tap). When `taps` is
  /// non-null, taps[q] gets the code 2 * ky + kx of output q's tap; it
  /// needs kPoolTapSlack bytes past the last output.
  void (*max_pool2x2)(const float* in, std::size_t planes, std::size_t in_h,
                      std::size_t in_w, float* out, std::uint8_t* taps);
  /// Its backward: writes every element of the input-shaped `dx`, 0.0f +
  /// dy[q] at output q's tap and +0.0 elsewhere. With `pooled` (the
  /// forward's output) it folds in the backward of a ReLU right before the
  /// pool: (pooled[q] > 0) ? 0.0f + dy[q] : +0.0f at the tap.
  void (*max_pool2x2_backward)(const float* dy, const std::uint8_t* taps,
                               const float* pooled, std::size_t planes,
                               std::size_t in_h, std::size_t in_w,
                               float* dx);
};

/// Bytes a tap-code buffer holds past its last output: the pool kernels
/// read and write the codes a whole vector at a time.
inline constexpr std::size_t kPoolTapSlack = 16;

// One table per TU; every table exists in every binary (a TU compiled
// without its ISA falls back to the scalar geometry), and the dispatch
// never selects a table the CPU cannot run.
const GemmKernels& scalar_kernels() noexcept;
const GemmKernels& avx2_kernels() noexcept;
const GemmKernels& avx512_kernels() noexcept;

inline const GemmKernels& gemm_kernels(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kAvx512:
      return avx512_kernels();
    case IsaLevel::kAvx2:
      return avx2_kernels();
    default:
      return scalar_kernels();
  }
}

}  // namespace middlefl::tensor::detail
