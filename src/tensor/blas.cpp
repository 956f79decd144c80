#include "tensor/blas.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/cpu_features.hpp"
#include "tensor/kernels/gemm_kernel.hpp"
#include "tensor/workspace.hpp"

namespace middlefl::tensor {
namespace {

void check_size(std::span<const float> s, std::size_t expected,
                const char* what) {
  if (s.size() != expected) {
    throw std::invalid_argument(std::string(what) + ": expected " +
                                std::to_string(expected) + " elements, got " +
                                std::to_string(s.size()));
  }
}

/// Applies the beta prologue to one C row: zero, keep, or scale.
inline void scale_row(float* c, std::size_t n, float beta) noexcept {
  if (beta == 0.0f) {
    std::fill(c, c + n, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t j = 0; j < n; ++j) c[j] *= beta;
  }
}

/// Core 4-lane dot kernel; the lane structure fixes the summation order so
/// every caller (serial, chunked, row-split gemm) gets identical floats.
inline double dot_kernel(const float* x, const float* y,
                         std::size_t n) noexcept {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(x[i]) * y[i];
    acc1 += static_cast<double>(x[i + 1]) * y[i + 1];
    acc2 += static_cast<double>(x[i + 2]) * y[i + 2];
    acc3 += static_cast<double>(x[i + 3]) * y[i + 3];
  }
  for (; i < n; ++i) acc0 += static_cast<double>(x[i]) * y[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

inline double sumsq_kernel(const float* x, std::size_t n) noexcept {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(x[i]) * x[i];
    acc1 += static_cast<double>(x[i + 1]) * x[i + 1];
    acc2 += static_cast<double>(x[i + 2]) * x[i + 2];
    acc3 += static_cast<double>(x[i + 3]) * x[i + 3];
  }
  for (; i < n; ++i) acc0 += static_cast<double>(x[i]) * x[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

/// Fixed chunk size for the deterministic parallel reductions. Partial
/// sums are combined in chunk order, so the result does not depend on
/// whether (or how) the chunks were distributed over threads.
constexpr std::size_t kReduceChunk = std::size_t{1} << 15;

template <typename ChunkFn>
double chunked_reduce(std::size_t n, parallel::ThreadPool* pool,
                      ChunkFn&& chunk_fn) {
  if (n <= kReduceChunk) return chunk_fn(0, n);
  const std::size_t num_chunks = (n + kReduceChunk - 1) / kReduceChunk;
  auto partials =
      Workspace::tls().doubles(WsDoubleSlot::kPartials, num_chunks);
  const auto compute = [&](std::size_t chunk) {
    const std::size_t lo = chunk * kReduceChunk;
    const std::size_t hi = std::min(n, lo + kReduceChunk);
    partials[chunk] = chunk_fn(lo, hi);
  };
  parallel::parallel_for(pool, 0, num_chunks, compute);
  double total = 0.0;
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    total += partials[chunk];
  }
  return total;
}

// --- GEMM kernels -----------------------------------------------------------
//
// The kernels live in kernels/ (the small path and the small-NT kernel,
// with runtime ISA dispatch); this file picks between them by shape and
// keeps the epilogue helpers the small-NT path applies afterwards. Every
// kernel computes rows [row_lo, row_hi) of C and each row's arithmetic
// order depends only on the row itself, so any row split yields identical
// results — the property the parallel path and the determinism pin rely
// on.

/// Applies the fused epilogue to rows [row_lo, row_hi) of C after the
/// small-NT kernel: the same elementwise steps, in the same order, as
/// the small path applies in-register (see GemmEpilogue).
void epilogue_rows(const GemmEpilogue& epi, std::size_t row_lo,
                   std::size_t row_hi, std::size_t n, float* c) noexcept {
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    float* ci = c + i * n;
    if (epi.col_bias != nullptr) {
      for (std::size_t j = 0; j < n; ++j) ci[j] += epi.col_bias[j];
    }
    if (epi.row_bias != nullptr) {
      const float rb = epi.row_bias[i];
      for (std::size_t j = 0; j < n; ++j) ci[j] += rb;
    }
    if (epi.relu) {
      for (std::size_t j = 0; j < n; ++j) ci[j] = ci[j] > 0.0f ? ci[j] : 0.0f;
    }
    if (epi.relu_mask != nullptr) {
      std::uint8_t* mrow = epi.relu_mask + i * n;
      for (std::size_t j = 0; j < n; ++j) mrow[j] = ci[j] > 0.0f ? 1 : 0;
    }
  }
}

/// row_sums side channel for the small-NT path: fold op(A) row values
/// (ascending p) into the caller's accumulator array. `a` is op(A) in
/// row-major m x k form here (the small-NT path never sees a transposed A).
void row_sums_rows(float* row_sums, std::size_t row_lo, std::size_t row_hi,
                   std::size_t k, const float* a) noexcept {
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    const float* ai = a + i * k;
    float sums = row_sums[i];
    for (std::size_t p = 0; p < k; ++p) sums += ai[p];
    row_sums[i] = sums;
  }
}

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check_size(x, y.size(), "axpy");
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t n = y.size();
  for (std::size_t i = 0; i < n; ++i) yp[i] += alpha * xp[i];
}

void scal(float alpha, std::span<float> x) noexcept {
  for (float& v : x) v *= alpha;
}

double dot(std::span<const float> x, std::span<const float> y) {
  check_size(x, y.size(), "dot");
  return dot_kernel(x.data(), y.data(), x.size());
}

double dot(std::span<const float> x, std::span<const float> y,
           parallel::ThreadPool* pool) {
  check_size(x, y.size(), "dot");
  const float* xp = x.data();
  const float* yp = y.data();
  return chunked_reduce(x.size(), pool, [=](std::size_t lo, std::size_t hi) {
    return dot_kernel(xp + lo, yp + lo, hi - lo);
  });
}

double nrm2(std::span<const float> x) noexcept {
  return std::sqrt(sumsq_kernel(x.data(), x.size()));
}

double nrm2(std::span<const float> x, parallel::ThreadPool* pool) {
  const float* xp = x.data();
  return std::sqrt(
      chunked_reduce(x.size(), pool, [=](std::size_t lo, std::size_t hi) {
        return sumsq_kernel(xp + lo, hi - lo);
      }));
}

void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, std::span<const float> a,
          std::span<const float> b, float beta, std::span<float> c,
          parallel::ThreadPool* pool, const GemmEpilogue* epilogue) {
  check_size(a, m * k, "gemm: A");
  check_size(b, k * n, "gemm: B");
  check_size(c, m * n, "gemm: C");
  if (m == 0 || n == 0) return;

  // Degenerate k == 0: the product contributes nothing, so C is just the
  // beta prologue plus the epilogue (row_sums stays untouched — the sum
  // over an empty p range is empty).
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i) scale_row(c.data() + i * n, n, beta);
    if (epilogue != nullptr) epilogue_rows(*epilogue, 0, m, n, c.data());
    return;
  }

  const float* a_ptr = a.data();
  float* c_ptr = c.data();

  // Parallel heuristic, shared by both kernels: split into row panels when
  // there is enough arithmetic to amortize the fork/join (>= ~1 MFLOP and
  // >= 2 rows per worker). Row splits do not change any row's arithmetic
  // order, so the parallel result is bitwise-identical to the serial one.
  const std::size_t flops = 2 * m * n * k;
  const bool go_parallel = pool != nullptr && pool->size() > 1 &&
                           flops >= (1u << 20) && m >= 2 * pool->size();
  const auto run_split = [&](const auto& run_rows) {
    if (go_parallel) {
      const std::size_t grain = std::max<std::size_t>(
          4, ((m / (pool->size() * 4)) + 3) & ~std::size_t{3});
      const std::size_t num_blocks = (m + grain - 1) / grain;
      parallel::parallel_for(pool, 0, num_blocks, [&](std::size_t block) {
        const std::size_t lo = block * grain;
        run_rows(lo, std::min(m, lo + grain));
      });
    } else {
      run_rows(0, m);
    }
  };

  // NT with a small B (n < 16 or k < 16) runs the small-NT kernel, which
  // reads A and B in place: the transposed B panel would dominate at these
  // shapes. Its four-lane summation tree is a rounding contract of its own
  // (see kernels/gemm_kernel_impl.hpp). Everything else, TT included, runs
  // the small path, which reads a transposed A by stride.
  const auto& kern = detail::gemm_kernels(active_isa());
  if (trans_a == Trans::kNo && trans_b == Trans::kYes && (n < 16 || k < 16)) {
    run_split([&](std::size_t lo, std::size_t hi) {
      kern.small_nt(lo, hi, n, k, alpha, a_ptr, b.data(), beta, c_ptr);
      if (epilogue != nullptr) {
        if (epilogue->row_sums != nullptr) {
          row_sums_rows(epilogue->row_sums, lo, hi, k, a_ptr);
        }
        epilogue_rows(*epilogue, lo, hi, n, c_ptr);
      }
    });
    return;
  }

  // The small path. B is prepared once on the calling thread (read in
  // place, or transposed into its aligned workspace slot); row-chunk
  // workers only read it, and read A in place.
  detail::GemmArgs args;
  args.m = m;
  args.n = n;
  args.k = k;
  args.alpha = alpha;
  args.beta = beta;
  args.a = a_ptr;
  args.trans_a = trans_a == Trans::kYes;
  args.c = c_ptr;
  args.epilogue = epilogue;
  const bool b_transposed = trans_b == Trans::kYes;
  auto bpanel = Workspace::tls().aligned_floats(
      WsAlignedSlot::kGemmPanelB, kern.small_b_floats(k, n, b_transposed));
  kern.small_b(b.data(), b_transposed, bpanel.data(), args);
  run_split([&](std::size_t lo, std::size_t hi) {
    detail::GemmArgs chunk = args;
    chunk.row_lo = lo;
    chunk.row_hi = hi;
    kern.small(chunk);
  });
}

// The indirect convolution runs the small path's tiles, with B read
// through the view. Each call is one sample, so nothing here splits rows.

void conv_gemm(std::size_t m, std::span<const float> a,
               const ConvColumns& cols, std::span<float> c,
               const GemmEpilogue* epilogue) {
  const std::size_t n = cols.out_h * cols.out_w;
  if (cols.rows == 0) throw std::invalid_argument("conv_gemm: no rows");
  check_size(a, m * cols.rows, "conv_gemm: A");
  check_size(c, m * n, "conv_gemm: C");
  if (epilogue != nullptr &&
      (epilogue->col_bias != nullptr || epilogue->row_sums != nullptr)) {
    throw std::invalid_argument("conv_gemm: col_bias/row_sums unsupported");
  }
  if (m == 0 || n == 0) return;
  detail::GemmArgs args;
  args.row_hi = m;
  args.m = m;
  args.n = n;
  args.k = cols.rows;
  args.a = a.data();
  args.c = c.data();
  args.epilogue = epilogue;
  args.conv = &cols;
  detail::gemm_kernels(active_isa()).conv(args);
}

void conv_gemm_nt(std::size_t m, std::span<const float> a,
                  const ConvColumns& cols, std::span<float> c) {
  const std::size_t n = cols.rows;
  const std::size_t k = cols.out_h * cols.out_w;
  if (n == 0) throw std::invalid_argument("conv_gemm_nt: no rows");
  check_size(a, m * k, "conv_gemm_nt: A");
  check_size(c, m * n, "conv_gemm_nt: C");
  if (m == 0 || k == 0) return;
  // gemm()'s choices for gemm(kNo, kYes, m, n, k, ...), made the same way,
  // run the same kernels: only B's panel comes from the planes. Which NaN
  // an FMA passes on when two meet depends on the instruction form the
  // compiler picked, so NaN bits match only when the same code runs.
  const auto& kern = detail::gemm_kernels(active_isa());
  if (n < 16 || k < 16) {
    // The small-NT kernel reads B's n rows of k in place: gather them.
    auto rows =
        Workspace::tls().aligned_floats(WsAlignedSlot::kGemmPanelB, n * k);
    kern.conv_rows(cols, rows.data());
    kern.small_nt(0, m, n, k, 1.0f, a.data(), rows.data(), 1.0f, c.data());
    return;
  }
  detail::GemmArgs args;
  args.row_hi = m;
  args.m = m;
  args.n = n;
  args.k = k;
  args.beta = 1.0f;
  args.a = a.data();
  args.c = c.data();
  auto bpanel = Workspace::tls().aligned_floats(
      WsAlignedSlot::kGemmPanelB, kern.small_b_floats(k, n, true));
  kern.conv_b(cols, bpanel.data(), args);
  kern.small(args);
}

void gemv(Trans trans_a, std::size_t m, std::size_t n, float alpha,
          std::span<const float> a, std::span<const float> x, float beta,
          std::span<float> y) {
  check_size(a, m * n, "gemv: A");
  if (trans_a == Trans::kNo) {
    check_size(x, n, "gemv: x");
    check_size(std::span<const float>(y.data(), y.size()), m, "gemv: y");
    for (std::size_t i = 0; i < m; ++i) {
      const double acc = dot_kernel(a.data() + i * n, x.data(), n);
      y[i] = alpha * static_cast<float>(acc) + beta * y[i];
    }
  } else {
    check_size(x, m, "gemv: x");
    check_size(std::span<const float>(y.data(), y.size()), n, "gemv: y");
    scale_row(y.data(), n, beta);
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float v0 = alpha * x[i];
      const float v1 = alpha * x[i + 1];
      const float v2 = alpha * x[i + 2];
      const float v3 = alpha * x[i + 3];
      const float* r0 = a.data() + i * n;
      const float* r1 = r0 + n;
      const float* r2 = r1 + n;
      const float* r3 = r2 + n;
      float* yp = y.data();
      for (std::size_t j = 0; j < n; ++j) {
        yp[j] += v0 * r0[j] + v1 * r1[j] + v2 * r2[j] + v3 * r3[j];
      }
    }
    for (; i < m; ++i) {
      const float v = alpha * x[i];
      const float* row = a.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) y[j] += v * row[j];
    }
  }
}

}  // namespace middlefl::tensor
