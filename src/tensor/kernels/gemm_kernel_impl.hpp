// GEMM algorithms, templated over a register geometry: the GEMM (Gemm),
// which reads its operands in place and packs nothing but a transposed B,
// the indirect convolution on the same tiles (Gemm::conv), and the
// small-NT kernel (SmallNt, at the end of this file). None may call a
// shared inline helper compiled under another TU's ISA flags: the linker
// keeps one copy of such a function for all TUs, so the geometry structs
// carry every op, including scalar ones.
//
// Each ISA translation unit instantiates Gemm<Arch> where Arch supplies
// the vector type and a handful of primitive ops. One call:
//
//   view op(B) as k rows: a row-major op(B) in place (row stride n), a
//     transposed one register-transposed once into a panel whose rows are
//     n rounded up to whole Vecs
//   sweep C in tiles of R rows x NV Vecs, NV * kW just covering the
//     tile's columns, each tile's k madds in registers, op(A) read in
//     place by stride (row-major or transposed)
//
// Determinism contract (pinned by the pipeline_test goldens): every C
// element is computed as
//
//   c = beta * c                      (exactly once, before any product)
//   for p = 0 .. k-1, ascending:
//     c = madd(round(alpha * op(A)[i,p]), op(B)[p,j], c)
//
// where madd is a fused multiply-add when MIDDLEFL_GEMM_FMA is defined
// (the MIDDLEFL_NATIVE build, matching the compiler-contracted baseline)
// and a separately-rounded multiply+add otherwise. Where B's values are
// read from (op(B) in place or the transposed panel) never changes them,
// tile shapes and row splits only reorder across elements, and the vector
// width never mixes lanes, so scalar, AVX2 and AVX-512 instantiations,
// with any row split, produce bitwise-identical C. These translation
// units are compiled with -ffp-contract=off so the compiler cannot
// introduce fusions the contract does not specify.
//
// The optional GemmEpilogue (bias add / ReLU / mask write / row sums) uses
// only elementwise operations in a fixed order, so it is bit-identical to
// the unfused layer loops it replaces; it is applied to a tile while it is
// still in registers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/blas.hpp"
#include "tensor/kernels/gemm_kernel.hpp"
#include "tensor/kernels/pool_kernel_impl.hpp"

namespace middlefl::tensor::detail {

/// Fixed-lane fallback geometry: Vec is a plain float, so every op below
/// is ordinary scalar arithmetic (the compiler may still autovectorize the
/// elementwise loops — that never changes per-element rounding).
struct ArchScalar {
  using Vec = float;
  static constexpr std::size_t kW = 1;  // lanes per Vec

  static Vec zero() noexcept { return 0.0f; }
  static Vec load(const float* p) noexcept { return *p; }
  static void store(float* p, Vec v) noexcept { *p = v; }
  static Vec broadcast(float v) noexcept { return v; }
  static Vec add(Vec a, Vec b) noexcept { return a + b; }
  static Vec mul(Vec a, Vec b) noexcept { return a * b; }
  static Vec madd(Vec a, Vec b, Vec c) noexcept {
#if defined(MIDDLEFL_GEMM_FMA)
    return __builtin_fmaf(a, b, c);
#else
    return a * b + c;
#endif
  }
  static Vec relu(Vec v) noexcept { return v > 0.0f ? v : 0.0f; }
  // Indirect convolution: no half-Vec loads (see Gemm::conv).
  static constexpr bool kHalves = false;
  // Small path: kW = 1, so a row's last Vec is never partial.
  static constexpr std::size_t kSmallMR = 4;    // tile rows, at most
  static constexpr std::size_t kSmallNV = 4;    // tile Vecs per row, at most
  static constexpr std::size_t kSmallAcc = 16;  // accumulators per tile
  using Mask = bool;
  static Mask mask(std::size_t /*valid*/) noexcept { return true; }
  static Vec load_masked(const float* p, Mask /*m*/) noexcept { return *p; }
  static void store_masked(float* p, Vec v, Mask /*m*/) noexcept { *p = v; }
  /// dst[j * ldd + i] = src[i * lds + j] for i, j < kW.
  static void transpose(const float* src, std::size_t /*lds*/, float* dst,
                        std::size_t /*ldd*/) noexcept {
    *dst = *src;
  }
};

template <class Arch>
struct Gemm {
  using Vec = typename Arch::Vec;
  static constexpr std::size_t kW = Arch::kW;

  /// Lanes [0, valid) of the transposed slab: lane t of slab row p is
  /// src[t * k + p] (`src` holds the slab's `valid` rows of b), slab rows
  /// `ld` floats apart (ld >= valid rounded up to kW). kW x kW blocks are
  /// transposed in registers, so each step reads kW source rows along p,
  /// one cache line each, and writes kW slab rows along t. A partial block
  /// of lanes (valid % kW rows) is transposed from a zero-padded copy; the
  /// rows left over (k % kW) go element by element.
  static void pack_transposed_slab(const float* src, std::size_t k,
                                   std::size_t valid, float* slab,
                                   std::size_t ld) {
    const std::size_t blocked = valid - valid % kW;
    alignas(64) float edge[kW * kW] = {};
    std::size_t p = 0;
    for (; p + kW <= k; p += kW) {
      for (std::size_t t = 0; t < blocked; t += kW) {
        Arch::transpose(src + t * k + p, k, slab + p * ld + t, ld);
      }
      if (blocked == valid) continue;
      for (std::size_t i = 0; i < valid - blocked; ++i) {
        const float* row = src + (blocked + i) * k + p;
        for (std::size_t j = 0; j < kW; ++j) edge[i * kW + j] = row[j];
      }
      Arch::transpose(edge, kW, slab + p * ld + blocked, ld);
    }
    for (; p < k; ++p) {
      for (std::size_t t = 0; t < valid; ++t) {
        slab[p * ld + t] = src[t * k + p];
      }
      for (std::size_t t = valid; t < ld; ++t) slab[p * ld + t] = 0.0f;
    }
  }

  // --- Small path ---------------------------------------------------------
  //
  // Every gemm() call but the small-NT ones. Operands are read from:
  //   op(A) in place by stride, alpha applied at each use (`alpha * a`,
  //     one rounding);
  //   op(B) row p at b + p * ldb: a row-major op(B) in place (ldb = n), a
  //     transposed one register-transposed once per call (ldb = n rounded
  //     up to kW); when kW does not divide n, a row's last Vec is read
  //     whole where it lies inside B and masked where it does not, so
  //     nothing is zero-filled or staged;
  //   C in tiles of R rows x NV Vecs, NV * kW just covering the tile's
  //     columns, so no accumulator Vec is all padding.
  // row_sums are folded in ascending p before the sweep, once per row.

  static std::size_t small_ldb(std::size_t n) {
    return (n + kW - 1) / kW * kW;
  }

  static std::size_t small_b_floats(std::size_t k, std::size_t n,
                                    bool trans_b) {
    return trans_b ? k * small_ldb(n) : 0;
  }

  /// Sets g's B view for small(): b, ldb and b_extent. The transposed
  /// copy's padding lanes are zeros.
  static void small_b(const float* b, bool trans_b, float* out, GemmArgs& g) {
    if (!trans_b) {
      g.b = b;
      g.ldb = g.n;
      g.b_extent = g.k * g.n;
      return;
    }
    g.b = out;
    g.ldb = small_ldb(g.n);
    g.b_extent = g.k * g.ldb;
    pack_transposed_slab(b, g.k, g.n, out, g.ldb);
  }

  /// Rows per tile of NV Vecs: as many as the accumulator budget allows.
  static constexpr std::size_t small_rows(std::size_t nv) {
    return Arch::kSmallAcc / nv < Arch::kSmallMR ? Arch::kSmallAcc / nv
                                                 : Arch::kSmallMR;
  }

  /// Folds op(A) rows [row_lo, row_hi) into row_sums in ascending p. A
  /// transposed A holds a column p of op(A) contiguously, so one Vec adds
  /// kW rows' p-th values at once, each lane still in ascending p.
  static void small_row_sums(const GemmArgs& g, float* sums) {
    std::size_t i = g.row_lo;
    if (g.trans_a) {
      for (; i + kW <= g.row_hi; i += kW) {
        Vec s = Arch::load(sums + i);
        for (std::size_t p = 0; p < g.k; ++p) {
          s = Arch::add(s, Arch::load(g.a + p * g.m + i));
        }
        Arch::store(sums + i, s);
      }
    }
    const std::size_t rs = g.trans_a ? 1 : g.k;
    const std::size_t ps = g.trans_a ? g.m : 1;
    for (; i < g.row_hi; ++i) {
      float s = sums[i];
      for (std::size_t p = 0; p < g.k; ++p) s += g.a[i * rs + p * ps];
      sums[i] = s;
    }
  }

  /// Vec v of a tile row starting at `row`; the tile's last Vec is masked.
  template <std::size_t NV>
  static Vec small_load(const float* row, std::size_t v,
                        typename Arch::Mask last) noexcept {
    return v + 1 < NV ? Arch::load(row + v * kW)
                      : Arch::load_masked(row + v * kW, last);
  }

  /// One p of a tile: acc[r][v] = madd(op(A)[i0 + r, p], brow[v], acc[r][v])
  /// with op(A)[i0 + r, p] at ap[r * rs + off]; kMasked: the last Vec of
  /// brow is a masked load.
  template <std::size_t R, std::size_t NV, bool kScale, bool kMasked>
  [[gnu::always_inline]] static inline void small_step(
      Vec (&acc)[R][NV], const float* brow, const float* ap, std::size_t rs,
      std::size_t off, float alpha, typename Arch::Mask last) noexcept {
    Vec bv[NV];
    for (std::size_t v = 0; v < NV; ++v) {
      bv[v] = kMasked ? small_load<NV>(brow, v, last)
                      : Arch::load(brow + v * kW);
    }
    // Unrolled before loop-invariant motion, so GCC keeps acc in
    // registers across p rather than storing it back every step.
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
      float a = ap[r * rs + off];
      if constexpr (kScale) a = alpha * a;
      const Vec av = Arch::broadcast(a);
      for (std::size_t v = 0; v < NV; ++v) {
        acc[r][v] = Arch::madd(av, bv[v], acc[r][v]);
      }
    }
  }

  /// C rows [i0, i0 + R), columns [col0, col0 + width), width in
  /// ((NV - 1) * kW, NV * kW]: the beta prologue, k madds per element and
  /// the epilogue, all in registers. kScale: alpha != 1.
  template <std::size_t R, std::size_t NV, bool kScale>
  static void small_tile(const GemmArgs& g, std::size_t i0,
                         std::size_t col0, std::size_t width) {
    const typename Arch::Mask last = Arch::mask(width - (NV - 1) * kW);
    const std::size_t n = g.n;
    Vec acc[R][NV];
    float* ct = g.c + i0 * n + col0;
    if (g.beta == 0.0f) {
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t v = 0; v < NV; ++v) acc[r][v] = Arch::zero();
      }
    } else {
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t v = 0; v < NV; ++v) {
          acc[r][v] = small_load<NV>(ct + r * n, v, last);
        }
      }
      if (g.beta != 1.0f) {
        const Vec vb = Arch::broadcast(g.beta);
        for (std::size_t r = 0; r < R; ++r) {
          for (std::size_t v = 0; v < NV; ++v) {
            acc[r][v] = Arch::mul(acc[r][v], vb);
          }
        }
      }
    }

    // op(A)[i0 + r, p] is ap[r * rs + p * ps].
    const std::size_t k = g.k;
    const std::size_t rs = g.trans_a ? 1 : k;
    const std::size_t ps = g.trans_a ? g.m : 1;
    const float* ap = g.a + i0 * rs;
    const float* bp = g.b + col0;
    const std::size_t ldb = g.ldb;
    const float alpha = g.alpha;
    // Rows p < k_full read their last Vec whole: its lanes past the
    // tile's width lie inside B (the next row, or the padded panel), feed
    // only accumulator lanes that are never stored, and a plain load keeps
    // GCC from spilling acc around a masked one. The rest is masked.
    const std::size_t reach = col0 + NV * kW;
    std::size_t k_full = 0;
    if (g.b_extent >= reach) {
      k_full = (g.b_extent - reach) / ldb + 1;
      if (k_full > k) k_full = k;
    }
    for (std::size_t p = 0; p < k_full; ++p) {
      small_step<R, NV, kScale, false>(acc, bp + p * ldb, ap, rs, p * ps,
                                       alpha, last);
    }
    for (std::size_t p = k_full; p < k; ++p) {
      small_step<R, NV, kScale, true>(acc, bp + p * ldb, ap, rs, p * ps,
                                      alpha, last);
    }

    const GemmEpilogue* epi = g.epilogue;
    if (epi != nullptr) {
      if (epi->col_bias != nullptr) {
        Vec cb[NV];
        for (std::size_t v = 0; v < NV; ++v) {
          cb[v] = small_load<NV>(epi->col_bias + col0, v, last);
        }
        for (std::size_t r = 0; r < R; ++r) {
          for (std::size_t v = 0; v < NV; ++v) {
            acc[r][v] = Arch::add(acc[r][v], cb[v]);
          }
        }
      }
      if (epi->row_bias != nullptr) {
        for (std::size_t r = 0; r < R; ++r) {
          const Vec rb = Arch::broadcast(epi->row_bias[i0 + r]);
          for (std::size_t v = 0; v < NV; ++v) {
            acc[r][v] = Arch::add(acc[r][v], rb);
          }
        }
      }
      if (epi->relu) {
        for (std::size_t r = 0; r < R; ++r) {
          for (std::size_t v = 0; v < NV; ++v) {
            acc[r][v] = Arch::relu(acc[r][v]);
          }
        }
      }
    }

    for (std::size_t r = 0; r < R; ++r) {
      float* crow = ct + r * n;
      for (std::size_t v = 0; v + 1 < NV; ++v) {
        Arch::store(crow + v * kW, acc[r][v]);
      }
      Arch::store_masked(crow + (NV - 1) * kW, acc[r][NV - 1], last);
    }

    if (epi != nullptr && epi->relu_mask != nullptr) {
      // From the stored values: post-ReLU values are > 0 exactly where
      // the pre-ReLU input was (NaN and -0.0 both map to stored +0.0,
      // mask 0 — the unfused semantics).
      for (std::size_t r = 0; r < R; ++r) {
        const float* crow = ct + r * n;
        std::uint8_t* mrow = epi->relu_mask + (i0 + r) * n + col0;
        for (std::size_t j = 0; j < width; ++j) {
          mrow[j] = crow[j] > 0.0f ? 1 : 0;
        }
      }
    }
  }

  // The sweep below runs a tile policy's tile<R, NV>(g, i0, v0): C rows
  // [i0, i0 + R) by NV column Vecs from Vec v0 on. A column Vec of the
  // ordinary small path is kW consecutive columns of C.
  template <bool kScale>
  struct InPlaceTiles {
    template <std::size_t R, std::size_t NV>
    static void tile(const GemmArgs& g, std::size_t i0, std::size_t v0) {
      const std::size_t col0 = v0 * kW;
      const std::size_t width = g.n - col0 < NV * kW ? g.n - col0 : NV * kW;
      small_tile<R, NV, kScale>(g, i0, col0, width);
    }
  };

  /// Rows [i, row_hi), fewer than small_rows(NV), as tiles of T, T / 2,
  /// ..., 1 rows, one for each bit set in their count.
  template <std::size_t T, std::size_t NV, class Tiles>
  static void small_tail(const GemmArgs& g, std::size_t i, std::size_t v0) {
    if constexpr (T > 0) {
      if constexpr (T < small_rows(NV)) {
        if (((g.row_hi - i) & T) != 0) {
          Tiles::template tile<T, NV>(g, i, v0);
          i += T;
        }
      }
      small_tail<T / 2, NV, Tiles>(g, i, v0);
    }
  }

  template <std::size_t NV, class Tiles>
  static void small_cols(const GemmArgs& g, std::size_t v0) {
    constexpr std::size_t kR = small_rows(NV);
    static_assert(kR <= 8, "small_tail splits fewer than 8 rows");
    std::size_t i = g.row_lo;
    for (; i + kR <= g.row_hi; i += kR) {
      Tiles::template tile<kR, NV>(g, i, v0);
    }
    small_tail<4, NV, Tiles>(g, i, v0);
  }

  /// Runs small_cols<nv> for a runtime nv in [1, NV].
  template <class Tiles, std::size_t NV = Arch::kSmallNV>
  static void small_width(std::size_t nv, const GemmArgs& g,
                          std::size_t v0) {
    if constexpr (NV > 0) {
      if (nv == NV) {
        small_cols<NV, Tiles>(g, v0);
      } else {
        small_width<Tiles, NV - 1>(nv, g, v0);
      }
    }
  }

  /// C's `vecs` column Vecs as few column blocks of at most kSmallNV Vecs
  /// as possible, their widths as even as whole Vecs allow.
  template <class Tiles>
  static void small_sweep(const GemmArgs& g, std::size_t vecs) {
    const std::size_t blocks = (vecs + Arch::kSmallNV - 1) / Arch::kSmallNV;
    std::size_t v0 = 0;
    for (std::size_t left = blocks; left > 0; --left) {
      const std::size_t nv = (vecs - v0 + left - 1) / left;
      small_width<Tiles>(nv, g, v0);
      v0 += nv;
    }
  }

  /// C rows [row_lo, row_hi) on the small path; B as set by small_b().
  static void small(const GemmArgs& g) {
    if (g.row_hi <= g.row_lo || g.n == 0) return;
    if (g.epilogue != nullptr && g.epilogue->row_sums != nullptr) {
      small_row_sums(g, g.epilogue->row_sums);
    }
    const std::size_t vecs = (g.n + kW - 1) / kW;
    if (g.alpha == 1.0f) {
      small_sweep<InPlaceTiles<false>>(g, vecs);
    } else {
      small_sweep<InPlaceTiles<true>>(g, vecs);
    }
  }

  // --- Indirect convolution -----------------------------------------------
  //
  // A convolution's column matrix read through a ConvColumns view
  // (blas.hpp) instead of built; the contract above holds unchanged.
  //
  // conv(), the forward: the small path with op(B) row p the view's row p,
  // out_h runs of out_w floats at plane + tap[p] + oy * pitch. C's columns
  // (output positions) are swept in segments, one Vec each:
  //   rows: a segment is up to kW positions of one output row, from x0 a
  //     multiple of kW; when kW does not divide out_w, every load and
  //     store is masked to its segment's lanes, so no lane past an output
  //     row is read;
  //   pairs (Arch::kHalves, out_w == kW / 2): a segment is two whole
  //     output rows, consecutive in C, loaded as two half-Vecs. An odd last
  //     row is a segment of its own: its high half re-reads its low one and
  //     its store is masked.
  // conv_b() and conv_rows(), the weight gradient's B: the panel small_b()
  // would build for op(B) = cols^T, or the rows small_nt reads in place,
  // gathered from the planes for the unchanged kernels.

  /// One segment of conv()'s sweep: C offset, plane offsets of the low and
  /// high halves (pairs), and valid lanes.
  struct Segment {
    std::size_t c_off = 0;
    std::size_t b_off = 0;
    std::size_t b_off2 = 0;
    std::size_t valid = 0;
  };

  template <bool kPairs>
  static Segment segment(const ConvColumns& cv, std::size_t s) {
    Segment seg;
    if constexpr (kPairs) {
      const std::size_t oy = 2 * s;
      const bool two = oy + 1 < cv.out_h;
      seg.c_off = oy * cv.out_w;
      seg.b_off = oy * cv.pitch;
      seg.b_off2 = two ? seg.b_off + cv.pitch : seg.b_off;
      seg.valid = two ? kW : cv.out_w;
    } else {
      const std::size_t per_row = (cv.out_w + kW - 1) / kW;
      const std::size_t oy = s / per_row;
      const std::size_t x0 = s % per_row * kW;
      seg.c_off = oy * cv.out_w + x0;
      seg.b_off = oy * cv.pitch + x0;
      seg.valid = cv.out_w - x0 < kW ? cv.out_w - x0 : kW;
    }
    return seg;
  }

  /// conv()'s tile: C rows [i0, i0 + R) over segments [s0, s0 + NV).
  /// kMasked: some segment of the call is partial.
  template <std::size_t R, std::size_t NV, bool kPairs, bool kMasked>
  static void conv_tile(const GemmArgs& g, std::size_t i0, std::size_t s0) {
    const ConvColumns& cv = *g.conv;
    Segment seg[NV];
    typename Arch::Mask mask[NV];
    for (std::size_t v = 0; v < NV; ++v) {
      seg[v] = segment<kPairs>(cv, s0 + v);
      if constexpr (kMasked) mask[v] = Arch::mask(seg[v].valid);
    }
    Vec acc[R][NV];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] = Arch::zero();
    }

    const std::size_t k = g.k;
    const float* ap = g.a + i0 * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float* brow = cv.plane + cv.tap[p];
      Vec bv[NV];
      for (std::size_t v = 0; v < NV; ++v) {
        if constexpr (kPairs) {
          bv[v] = Arch::load_halves(brow + seg[v].b_off, brow + seg[v].b_off2);
        } else if constexpr (kMasked) {
          bv[v] = Arch::load_masked(brow + seg[v].b_off, mask[v]);
        } else {
          bv[v] = Arch::load(brow + seg[v].b_off);
        }
      }
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        const Vec av = Arch::broadcast(ap[r * k + p]);
        for (std::size_t v = 0; v < NV; ++v) {
          acc[r][v] = Arch::madd(av, bv[v], acc[r][v]);
        }
      }
    }

    const GemmEpilogue* epi = g.epilogue;
    if (epi != nullptr) {
      if (epi->row_bias != nullptr) {
        for (std::size_t r = 0; r < R; ++r) {
          const Vec rb = Arch::broadcast(epi->row_bias[i0 + r]);
          for (std::size_t v = 0; v < NV; ++v) {
            acc[r][v] = Arch::add(acc[r][v], rb);
          }
        }
      }
      if (epi->relu) {
        for (std::size_t r = 0; r < R; ++r) {
          for (std::size_t v = 0; v < NV; ++v) {
            acc[r][v] = Arch::relu(acc[r][v]);
          }
        }
      }
    }

    const std::size_t n = g.n;
    for (std::size_t r = 0; r < R; ++r) {
      float* crow = g.c + (i0 + r) * n;
      for (std::size_t v = 0; v < NV; ++v) {
        if constexpr (kMasked) {
          Arch::store_masked(crow + seg[v].c_off, acc[r][v], mask[v]);
        } else {
          Arch::store(crow + seg[v].c_off, acc[r][v]);
        }
      }
    }

    if (epi != nullptr && epi->relu_mask != nullptr) {
      // From the stored values, as small_tile does.
      for (std::size_t r = 0; r < R; ++r) {
        const float* crow = g.c + (i0 + r) * n;
        std::uint8_t* mrow = epi->relu_mask + (i0 + r) * n;
        for (std::size_t v = 0; v < NV; ++v) {
          for (std::size_t j = seg[v].c_off; j < seg[v].c_off + seg[v].valid;
               ++j) {
            mrow[j] = crow[j] > 0.0f ? 1 : 0;
          }
        }
      }
    }
  }

  template <bool kPairs, bool kMasked>
  struct ConvTiles {
    template <std::size_t R, std::size_t NV>
    static void tile(const GemmArgs& g, std::size_t i0, std::size_t s0) {
      conv_tile<R, NV, kPairs, kMasked>(g, i0, s0);
    }
  };

  /// C rows [row_lo, row_hi) = op(A) * cols; see GemmKernels::conv.
  static void conv(const GemmArgs& g) {
    if (g.row_hi <= g.row_lo || g.n == 0) return;
    const ConvColumns& cv = *g.conv;
    if constexpr (Arch::kHalves) {
      if (2 * cv.out_w == kW) {
        const std::size_t segments = (cv.out_h + 1) / 2;
        if (cv.out_h % 2 == 0) {
          small_sweep<ConvTiles<true, false>>(g, segments);
        } else {
          small_sweep<ConvTiles<true, true>>(g, segments);
        }
        return;
      }
    }
    const std::size_t segments = cv.out_h * ((cv.out_w + kW - 1) / kW);
    if (cv.out_w % kW == 0) {
      small_sweep<ConvTiles<false, false>>(g, segments);
    } else {
      small_sweep<ConvTiles<false, true>>(g, segments);
    }
  }

  /// Sets g's B view of op(B) = cols^T (k positions by n = cols.rows) for
  /// small(): the panel small_b() would build from the column matrix with
  /// trans_b, the same floats and zero lanes, built from the planes
  /// instead.
  static void conv_b(const ConvColumns& cv, float* out, GemmArgs& g) {
    g.b = out;
    g.ldb = small_ldb(g.n);
    g.b_extent = g.k * g.ldb;
    pack_conv_slab(cv, 0, g.n, out, g.ldb);
  }

  /// The view as its row-major rows x (out_h * out_w) matrix, into `out`:
  /// the B the small-NT kernel reads in place.
  static void conv_rows(const ConvColumns& cv, float* out) {
    // Locals: a vector store may alias anything, even the view's fields.
    const float* plane = cv.plane;
    const std::size_t* tap = cv.tap;
    const std::size_t out_h = cv.out_h;
    const std::size_t out_w = cv.out_w;
    const std::size_t pitch = cv.pitch;
    const std::size_t whole = out_w - out_w % kW;
    float* dst = out;
    for (std::size_t r = 0; r < cv.rows; ++r) {
      const float* src = plane + tap[r];
      for (std::size_t oy = 0; oy < out_h; ++oy, src += pitch, dst += out_w) {
        std::size_t x = 0;
        for (; x < whole; x += kW) Arch::store(dst + x, Arch::load(src + x));
        for (; x < out_w; ++x) dst[x] = src[x];
      }
    }
  }

  /// pack_transposed_slab() over the view's rows [row0, row0 + valid):
  /// lane t of slab row p is cols[row0 + t, p]. Each kW x kW block is
  /// gathered into a buffer row by row, then transposed in registers. A
  /// block's kW positions are one Vec of an output row when kW divides
  /// out_w, two half-Vec rows when out_w is half a Vec (Arch::kHalves),
  /// and runs that end with output rows otherwise.
  static void pack_conv_slab(const ConvColumns& cv, std::size_t row0,
                             std::size_t valid, float* slab, std::size_t ld) {
    // Locals: a vector store may alias anything, even the view's fields.
    const float* plane = cv.plane;
    const std::size_t* tap = cv.tap + row0;
    const std::size_t out_w = cv.out_w;
    const std::size_t pitch = cv.pitch;
    const std::size_t k = cv.out_h * out_w;
    const std::size_t blocked = valid - valid % kW;
    bool halves = false;
    if constexpr (Arch::kHalves) halves = 2 * out_w == kW;
    const bool whole = out_w % kW == 0;
    alignas(64) float block[kW * kW];
    std::size_t p = 0;
    for (; p + kW <= k; p += kW) {
      const std::size_t off = p / out_w * pitch + p % out_w;
      for (std::size_t t = 0; t < valid; t += kW) {
        const std::size_t rows = t < blocked ? kW : valid - blocked;
        for (std::size_t i = 0; i < kW; ++i) {
          float* dst = block + i * kW;
          if (i >= rows) {
            Arch::store(dst, Arch::zero());
            continue;
          }
          const float* row = plane + tap[t + i];
          if (whole) {
            Arch::store(dst, Arch::load(row + off));
            continue;
          }
          if constexpr (Arch::kHalves) {
            if (halves) {
              Arch::store(dst, Arch::load_halves(row + off, row + off + pitch));
              continue;
            }
          }
          for (std::size_t j = 0; j < kW;) {
            const std::size_t ox = (p + j) % out_w;
            const float* src = row + (p + j) / out_w * pitch + ox;
            std::size_t run = out_w - ox;
            if (run > kW - j) run = kW - j;
            for (std::size_t x = 0; x < run; ++x) dst[j + x] = src[x];
            j += run;
          }
        }
        Arch::transpose(block, kW, slab + p * ld + t, ld);
      }
    }
    for (; p < k; ++p) {
      for (std::size_t t = 0; t < valid; ++t) {
        slab[p * ld + t] = plane[tap[t] + p / out_w * pitch + p % out_w];
      }
      for (std::size_t t = valid; t < ld; ++t) slab[p * ld + t] = 0.0f;
    }
  }
};

// --- Small NT -----------------------------------------------------------
//
// NT with a small B (n < 16 or k < 16: a logits layer, the weight gradient
// of a conv layer with few input channels) reads A and B in place, since
// transposing B would dominate at these shapes. Rounding contract (pinned by
// gemm_kernel_test SmallNtContract): every C element is computed as
//
//   s0 = s1 = s2 = s3 = 0
//   for each full block p = 4q .. 4q+3, ascending q:
//     s_l = madd(A[i,p+l], B[j,p+l], s_l)          (l = 0..3)
//   for each tail p in [4*floor(k/4), k), ascending:
//     s0 = madd(A[i,p], B[j,p], s0)
//   d = alpha * ((s0 + s1) + (s2 + s3))
//   C[i,j] = beta == 0 ? d : madd(beta, C[i,j], d)
//
// with madd fused exactly when MIDDLEFL_GEMM_FMA is defined, as in the
// GEMM contract. An NtArch vector holds kCols columns' four lanes side by
// side and every op keeps lanes apart until the final tree, so the vector
// tiers compute the scalar loop's bits. Rows in a block of kRows share
// each B vector.

/// One column's four p-lanes. Every op below is the per-lane scalar
/// contract step.
struct NtScalar {
  struct Vec {
    float l[4];
  };
  static constexpr std::size_t kCols = 1;
  static constexpr std::size_t kRows = 4;

  static Vec zero() noexcept { return Vec{{0.0f, 0.0f, 0.0f, 0.0f}}; }
  static Vec load_a(const float* a) noexcept {
    return Vec{{a[0], a[1], a[2], a[3]}};
  }
  static Vec load_a_tail(float a) noexcept {
    return Vec{{a, 0.0f, 0.0f, 0.0f}};
  }
  static Vec load_b(const float* const* cols, std::size_t p) noexcept {
    return load_a(cols[0] + p);
  }
  static Vec load_b_tail(const float* const* cols, std::size_t p) noexcept {
    return load_a_tail(cols[0][p]);
  }
  static Vec madd(Vec a, Vec b, Vec c) noexcept {
    for (std::size_t l = 0; l < 4; ++l) c.l[l] = madd1(a.l[l], b.l[l], c.l[l]);
    return c;
  }
  static Vec madd_lane0(Vec a, Vec b, Vec c) noexcept {
    c.l[0] = madd1(a.l[0], b.l[0], c.l[0]);
    return c;
  }
  static void reduce(Vec v, float* out) noexcept {
    out[0] = (v.l[0] + v.l[1]) + (v.l[2] + v.l[3]);
  }
  static float madd1(float a, float b, float c) noexcept {
    return ArchScalar::madd(a, b, c);
  }
};

template <class Arch>
struct SmallNt {
  using Vec = typename Arch::Vec;
  static constexpr std::size_t kC = Arch::kCols;

  /// Rows [i0, i0 + R) against every column, kC columns per pass. A
  /// partial last pass repeats column n-1 in the spare slots; those
  /// results are never stored.
  template <std::size_t R>
  static void block(std::size_t i0, std::size_t n, std::size_t k,
                    float alpha, const float* a, const float* b, float beta,
                    float* c) noexcept {
    const float* arow[R];
    for (std::size_t r = 0; r < R; ++r) arow[r] = a + (i0 + r) * k;
    for (std::size_t j = 0; j < n; j += kC) {
      const std::size_t valid = n - j < kC ? n - j : kC;
      const float* bcol[kC];
      for (std::size_t t = 0; t < kC; ++t) {
        bcol[t] = b + (j + (t < valid ? t : valid - 1)) * k;
      }
      Vec acc[R];
      for (std::size_t r = 0; r < R; ++r) acc[r] = Arch::zero();
      std::size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const Vec bv = Arch::load_b(bcol, p);
        for (std::size_t r = 0; r < R; ++r) {
          acc[r] = Arch::madd(Arch::load_a(arow[r] + p), bv, acc[r]);
        }
      }
      for (; p < k; ++p) {
        const Vec bv = Arch::load_b_tail(bcol, p);
        for (std::size_t r = 0; r < R; ++r) {
          acc[r] = Arch::madd_lane0(Arch::load_a_tail(arow[r][p]), bv, acc[r]);
        }
      }
      for (std::size_t r = 0; r < R; ++r) {
        float sums[kC];
        Arch::reduce(acc[r], sums);
        float* ci = c + (i0 + r) * n + j;
        for (std::size_t t = 0; t < valid; ++t) {
          const float d = alpha * sums[t];
          ci[t] = beta == 0.0f ? d : Arch::madd1(beta, ci[t], d);
        }
      }
    }
  }

  /// The last `rows` (< kRows) rows of a call, as one block of that height.
  template <std::size_t R>
  static void tail_block(std::size_t rows, std::size_t i0, std::size_t n,
                         std::size_t k, float alpha, const float* a,
                         const float* b, float beta, float* c) noexcept {
    if constexpr (R > 0) {
      if (rows == R) {
        block<R>(i0, n, k, alpha, a, b, beta, c);
      } else {
        tail_block<R - 1>(rows, i0, n, k, alpha, a, b, beta, c);
      }
    }
  }

  static void compute(std::size_t row_lo, std::size_t row_hi, std::size_t n,
                      std::size_t k, float alpha, const float* a,
                      const float* b, float beta, float* c) {
    std::size_t i = row_lo;
    for (; i + Arch::kRows <= row_hi; i += Arch::kRows) {
      block<Arch::kRows>(i, n, k, alpha, a, b, beta, c);
    }
    tail_block<Arch::kRows - 1>(row_hi - i, i, n, k, alpha, a, b, beta, c);
  }
};

/// The dispatch table of one TU: the GEMM in geometry `Arch`, the small-NT
/// kernel in geometry `NtArch` and the 2 x 2 max pool in `Pool`.
template <class Arch, class NtArch, class Pool>
const GemmKernels& kernel_table() noexcept {
  using G = Gemm<Arch>;
  static const GemmKernels t{&G::small_b_floats,
                             &G::small_b,
                             &G::small,
                             &SmallNt<NtArch>::compute,
                             &G::conv,
                             &G::conv_b,
                             &G::conv_rows,
                             &MaxPool2x2<Pool>::forward,
                             &MaxPool2x2<Pool>::backward};
  return t;
}

}  // namespace middlefl::tensor::detail
