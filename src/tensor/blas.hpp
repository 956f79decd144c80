// Level-1/2/3 dense kernels over raw float spans.
//
// These are the hot loops under local SGD: Linear layers lower to sgemm,
// Conv2d to the indirect convolution (conv_gemm / conv_gemm_nt, sgemm
// reading its column matrix in place from the input planes), and model
// aggregation / similarity utilities to axpy/dot/nrm2 on flat parameter
// vectors. Kernels take spans (size-checked on entry) so both Tensor
// storage and flat model vectors reuse them.
//
// GEMM runs one path, the small path, with runtime CPU dispatch (see
// cpu_features.hpp and kernels/gemm_kernel.hpp): op(A) and a row-major
// op(B) are read in place, a transposed op(B) is register-transposed into
// an aligned thread-local Workspace panel, and C is swept by register
// tiles as wide as n in scalar, AVX2+FMA or AVX-512 form, chosen by cpuid
// at run time. Every dispatch target accumulates each C element in the
// same fixed K order, so the selected ISA never changes an output bit.
// NT with a small B (n < 16 or k < 16) instead runs the dispatched small-NT
// kernel, which reads the operands in place (the transposed panel would
// dominate there) and sums each element in four p-lanes; it too is
// bitwise-identical across ISA tiers. Row panels parallelize when a thread
// pool is provided; every row's arithmetic order is independent of the
// panel split, so parallel and serial runs produce bitwise-identical
// results.
//
// dot/nrm2 overloads taking a pool use a FIXED chunk decomposition (chunk
// partials summed in chunk order) so the result is identical whether the
// chunks run serially or in parallel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace middlefl::parallel {
class ThreadPool;
}

namespace middlefl::tensor {

enum class Trans { kNo, kYes };

/// Optional per-element epilogue fused into gemm's final sweep over C, so
/// layer bias/activation passes need not re-traverse activation memory.
/// Applied per element, after the full K accumulation, in this order:
///
///   c = beta * c + alpha * sum_p op(A)[i,p] * op(B)[p,j]
///   c += col_bias[j]                   (if col_bias)
///   c += row_bias[i]                   (if row_bias)
///   c = c > 0 ? c : 0                  (if relu)
///   relu_mask[i*n + j] = c > 0 ? 1 : 0 (if relu_mask)
///
/// Each step is the exact elementwise operation the unfused layer code
/// performed, so fused and unfused results are bitwise identical.
struct GemmEpilogue {
  const float* col_bias = nullptr;  // length n (Linear bias)
  const float* row_bias = nullptr;  // length m (Conv2d per-channel bias)
  bool relu = false;
  std::uint8_t* relu_mask = nullptr;  // length m*n; requires relu
  /// When set (length m): row_sums[i] += sum_p op(A)[i,p], accumulated in
  /// ascending-p order directly into the caller's array — the grad-bias
  /// column reduction of the TN backward GEMM, folded into the A sweep.
  float* row_sums = nullptr;
};

/// y += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void scal(float alpha, std::span<float> x) noexcept;

/// Dot product accumulated in double (4-way unrolled lanes).
double dot(std::span<const float> x, std::span<const float> y);

/// Chunk-deterministic dot: fixed-size chunks are reduced independently
/// and their partials summed in order. With a multi-thread pool the chunks
/// run in parallel; the result is bitwise-identical either way.
double dot(std::span<const float> x, std::span<const float> y,
           parallel::ThreadPool* pool);

/// Euclidean norm accumulated in double (4-way unrolled lanes).
double nrm2(std::span<const float> x) noexcept;

/// Chunk-deterministic nrm2 (see the dot overload).
double nrm2(std::span<const float> x, parallel::ThreadPool* pool);

/// C = alpha * op(A) * op(B) + beta * C where op is identity or transpose.
/// A is m x k after op, B is k x n after op, C is m x n, all row-major.
/// When `pool` is non-null and the output is large, row panels of C are
/// computed in parallel (deterministic: each row's arithmetic order does
/// not depend on the split). `epilogue`, when non-null, is applied in the
/// same sweep that writes C (see GemmEpilogue for the exact semantics).
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, std::span<const float> a,
          std::span<const float> b, float beta, std::span<float> c,
          parallel::ThreadPool* pool = nullptr,
          const GemmEpilogue* epilogue = nullptr);

/// The column matrix of a stride-1 convolution over one sample, read in
/// place from its zero-bordered planes (the indirect convolution): element
/// (p, j) of the rows x (out_h * out_w) matrix, p = (c, ky, kx) and
/// j = oy * out_w + ox, is plane[tap[p] + oy * pitch + ox], where
/// tap[p] = (c * (H + 2 pad) + ky) * pitch + kx and pitch = W + 2 pad:
/// output row oy of matrix row p is out_w consecutive floats, so no column
/// matrix is built. Every element the view names must be readable; nothing
/// past them is read.
struct ConvColumns {
  const float* plane = nullptr;
  const std::size_t* tap = nullptr;  // rows entries
  std::size_t rows = 0;              // C * k * k, > 0
  std::size_t out_h = 0;
  std::size_t out_w = 0;
  std::size_t pitch = 0;
};

/// C = A * cols, A m x cols.rows and C m x (out_h * out_w), row-major: a
/// convolution's forward. Bitwise gemm(kNo, kNo, ...) over the built
/// column matrix with alpha 1 and beta 0, for every input. Of the
/// epilogue only row_bias, relu and relu_mask may be set.
void conv_gemm(std::size_t m, std::span<const float> a,
               const ConvColumns& cols, std::span<float> c,
               const GemmEpilogue* epilogue = nullptr);

/// C += A * cols^T, A m x (out_h * out_w) and C m x cols.rows: a
/// convolution's weight gradient. Bitwise gemm(kNo, kYes, m, cols.rows,
/// out_h * out_w, 1, A, col, 1, C) over the built column matrix, for every
/// input: the same kernels run, and only op(B)'s panel is built from the
/// planes.
void conv_gemm_nt(std::size_t m, std::span<const float> a,
                  const ConvColumns& cols, std::span<float> c);

/// y = alpha * op(A) * x + beta * y. A is m x n row-major before op.
void gemv(Trans trans_a, std::size_t m, std::size_t n, float alpha,
          std::span<const float> a, std::span<const float> x, float beta,
          std::span<float> y);

}  // namespace middlefl::tensor
