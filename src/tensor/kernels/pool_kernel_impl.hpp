// 2 x 2, stride-2 max pooling, templated over a pooling geometry like the
// GEMM (gemm_kernel_impl.hpp); the same no-shared-inline-helper rule holds.
//
// A geometry `P` handles kW outputs per Vec. The forward loads the 2 kW
// floats of a window row pair's top row as two Vecs (lo, hi) and splits
// them into even and odd columns with explicit permutes (P::split), and
// likewise the bottom row: the four Vecs are taps (0,0), (0,1), (1,0) and
// (1,1) of kW windows. The running max takes them in that order with a
// strict `>` select (P::take), so it keeps the first maximum on ties and a
// NaN only when it is the window's first tap, exactly as a compare-and-
// branch loop does, and the tap code 2 * ky + kx of the chosen tap goes to
// a byte per output. The backward routes each output's gradient to its tap
// code's lane (P::pick) and interleaves the columns back (P::merge).
//
// Output rows are walked in order over all planes. Where kW outputs span
// exactly two or four output rows (out_w = kW / 2 or kW / 4: CNN-2's pool2
// on AVX2, both CNN-2 pools on AVX-512), one Vec pair holds the rows'
// input runs side by side; the rows left over, and every other width,
// take a per-row loop whose ragged end uses masked loads and stores that
// never touch past a row's last used column. Each output is computed by
// the same elementwise operations at every tier, so every tier writes the
// same bits.
#pragma once

#include <cstddef>
#include <cstdint>

namespace middlefl::tensor::detail {

/// One output per Vec: the dispatch floor.
struct PoolScalar {
  using Vec = float;
  using Code = std::uint8_t;
  static constexpr std::size_t kW = 1;

  static Vec zero() noexcept { return 0.0f; }
  static Vec load(const float* p) noexcept { return *p; }
  static void store(float* p, Vec v) noexcept { *p = v; }
  static void split(Vec lo, Vec hi, Vec& even, Vec& odd) noexcept {
    even = lo;
    odd = hi;
  }
  static void merge(Vec even, Vec odd, Vec& lo, Vec& hi) noexcept {
    lo = even;
    hi = odd;
  }
  static Code code(unsigned k) noexcept { return static_cast<Code>(k); }
  static void take(Vec t, unsigned k, Vec& best, Code& code) noexcept {
    const bool greater = t > best;
    best = greater ? t : best;
    code = greater ? static_cast<Code>(k) : code;
  }
  static void store_codes(std::uint8_t* p, Code c) noexcept { *p = c; }
  static Code load_codes(const std::uint8_t* p) noexcept { return *p; }
  static Vec pick(Code c, unsigned k, Vec g) noexcept {
    return c == k ? g : 0.0f;
  }
  static Vec grad(Vec dy) noexcept { return 0.0f + dy; }
  static Vec relu_grad(Vec pooled, Vec dy) noexcept {
    return pooled > 0.0f ? 0.0f + dy : 0.0f;
  }
};

template <class P>
struct MaxPool2x2 {
  using Vec = typename P::Vec;
  using Code = typename P::Code;
  static constexpr std::size_t kW = P::kW;

  /// The offset of each output row's top input row, for the rows of every
  /// plane in order (a ragged last input row is stepped over).
  struct Rows {
    std::size_t out_h, in_plane, pitch;
    std::size_t plane = 0, top = 0, oy = 0;
    std::size_t next() noexcept {
      const std::size_t row = top;
      if (++oy == out_h) {
        oy = 0;
        plane += in_plane;
        top = plane;
      } else {
        top += pitch;
      }
      return row;
    }
  };

  static void window_max(Vec top_lo, Vec top_hi, Vec bot_lo, Vec bot_hi,
                         Vec& best, Code& code) noexcept {
    Vec t[4];
    P::split(top_lo, top_hi, t[0], t[1]);
    P::split(bot_lo, bot_hi, t[2], t[3]);
    best = t[0];
    code = P::code(0);
    for (unsigned k = 1; k < 4; ++k) P::take(t[k], k, best, code);
  }

  template <bool kCodes>
  static void forward_rows(const float* in, std::size_t planes,
                           std::size_t in_h, std::size_t in_w, float* out,
                           std::uint8_t* taps) noexcept {
    const std::size_t out_h = in_h / 2;
    const std::size_t out_w = in_w / 2;
    const std::size_t rows = planes * out_h;
    Rows cursor{out_h, in_h * in_w, 2 * in_w};
    Vec best = P::zero();
    Code code = P::code(0);
    std::size_t r = 0;
    if constexpr (kW > 1) {
      if (2 * out_w == kW) {
        for (; r + 2 <= rows; r += 2) {
          const float* a = in + cursor.next();
          const float* b = in + cursor.next();
          window_max(P::load(a), P::load(b), P::load(a + in_w),
                     P::load(b + in_w), best, code);
          P::store(out + r * out_w, best);
          if constexpr (kCodes) P::store_codes(taps + r * out_w, code);
        }
      } else if (4 * out_w == kW) {
        for (; r + 4 <= rows; r += 4) {
          const float* a = in + cursor.next();
          const float* b = in + cursor.next();
          const float* c = in + cursor.next();
          const float* d = in + cursor.next();
          window_max(P::load_halves(a, b), P::load_halves(c, d),
                     P::load_halves(a + in_w, b + in_w),
                     P::load_halves(c + in_w, d + in_w), best, code);
          P::store(out + r * out_w, best);
          if constexpr (kCodes) P::store_codes(taps + r * out_w, code);
        }
      }
    }
    for (; r < rows; ++r) {
      const float* top = in + cursor.next();
      const float* bot = top + in_w;
      float* dst = out + r * out_w;
      std::uint8_t* dst_taps = kCodes ? taps + r * out_w : nullptr;
      std::size_t x = 0;
      for (; x + kW <= out_w; x += kW) {
        window_max(P::load(top + 2 * x), P::load(top + 2 * x + kW),
                   P::load(bot + 2 * x), P::load(bot + 2 * x + kW), best,
                   code);
        P::store(dst + x, best);
        if constexpr (kCodes) P::store_codes(dst_taps + x, code);
      }
      if constexpr (kW > 1) {
        if (x < out_w) {
          // 2 (out_w - x) < 2 kW floats left in each input row.
          const std::size_t n = 2 * (out_w - x);
          const std::size_t lo = n < kW ? n : kW;
          const float* t = top + 2 * x;
          const float* b = bot + 2 * x;
          window_max(P::load_n(t, lo),
                     n > kW ? P::load_n(t + kW, n - kW) : P::zero(),
                     P::load_n(b, lo),
                     n > kW ? P::load_n(b + kW, n - kW) : P::zero(), best,
                     code);
          P::store_n(dst + x, best, out_w - x);
          // Writes kW codes: the excess lands on later rows' codes, which
          // are written afterwards, or in the buffer's slack.
          if constexpr (kCodes) P::store_codes(dst_taps + x, code);
        }
      }
    }
  }

  static void forward(const float* in, std::size_t planes, std::size_t in_h,
                      std::size_t in_w, float* out,
                      std::uint8_t* taps) noexcept {
    if (taps != nullptr) {
      forward_rows<true>(in, planes, in_h, in_w, out, taps);
    } else {
      forward_rows<false>(in, planes, in_h, in_w, out, nullptr);
    }
  }

  /// The four tap rows of kW windows' input gradients, as (lo, hi) pairs
  /// of the top and bottom input rows.
  template <bool kRelu>
  static void route(Vec dy, Code code, Vec pooled, Vec& top_lo, Vec& top_hi,
                    Vec& bot_lo, Vec& bot_hi) noexcept {
    Vec g;
    if constexpr (kRelu) {
      g = P::relu_grad(pooled, dy);
    } else {
      static_cast<void>(pooled);
      g = P::grad(dy);
    }
    P::merge(P::pick(code, 0, g), P::pick(code, 1, g), top_lo, top_hi);
    P::merge(P::pick(code, 2, g), P::pick(code, 3, g), bot_lo, bot_hi);
  }

  template <bool kRelu>
  static void backward_rows(const float* dy, const std::uint8_t* taps,
                            const float* pooled, std::size_t planes,
                            std::size_t in_h, std::size_t in_w,
                            float* dx) noexcept {
    const std::size_t out_h = in_h / 2;
    const std::size_t out_w = in_w / 2;
    const std::size_t rows = planes * out_h;
    Rows cursor{out_h, in_h * in_w, 2 * in_w};
    Vec top_lo = P::zero(), top_hi = P::zero();
    Vec bot_lo = P::zero(), bot_hi = P::zero();
    std::size_t r = 0;
    const auto load_pooled = [&](std::size_t q) {
      if constexpr (kRelu) {
        return P::load(pooled + q);
      } else {
        static_cast<void>(q);
        return P::zero();
      }
    };
    if constexpr (kW > 1) {
      if (2 * out_w == kW) {
        for (; r + 2 <= rows; r += 2) {
          float* a = dx + cursor.next();
          float* b = dx + cursor.next();
          const std::size_t q = r * out_w;
          route<kRelu>(P::load(dy + q), P::load_codes(taps + q),
                       load_pooled(q), top_lo, top_hi, bot_lo, bot_hi);
          P::store(a, top_lo);
          P::store(b, top_hi);
          P::store(a + in_w, bot_lo);
          P::store(b + in_w, bot_hi);
        }
      } else if (4 * out_w == kW) {
        for (; r + 4 <= rows; r += 4) {
          float* a = dx + cursor.next();
          float* b = dx + cursor.next();
          float* c = dx + cursor.next();
          float* d = dx + cursor.next();
          const std::size_t q = r * out_w;
          route<kRelu>(P::load(dy + q), P::load_codes(taps + q),
                       load_pooled(q), top_lo, top_hi, bot_lo, bot_hi);
          P::store_halves(a, b, top_lo);
          P::store_halves(c, d, top_hi);
          P::store_halves(a + in_w, b + in_w, bot_lo);
          P::store_halves(c + in_w, d + in_w, bot_hi);
        }
      }
    }
    for (; r < rows; ++r) {
      float* top = dx + cursor.next();
      float* bot = top + in_w;
      std::size_t x = 0;
      for (; x + kW <= out_w; x += kW) {
        const std::size_t q = r * out_w + x;
        route<kRelu>(P::load(dy + q), P::load_codes(taps + q),
                     load_pooled(q), top_lo, top_hi, bot_lo, bot_hi);
        P::store(top + 2 * x, top_lo);
        P::store(top + 2 * x + kW, top_hi);
        P::store(bot + 2 * x, bot_lo);
        P::store(bot + 2 * x + kW, bot_hi);
      }
      if constexpr (kW > 1) {
        if (x < out_w) {
          const std::size_t q = r * out_w + x;
          const std::size_t left = out_w - x;
          route<kRelu>(P::load_n(dy + q, left), P::load_codes(taps + q),
                       kRelu ? P::load_n(pooled + q, left) : P::zero(),
                       top_lo, top_hi, bot_lo, bot_hi);
          const std::size_t n = 2 * left;
          const std::size_t lo = n < kW ? n : kW;
          P::store_n(top + 2 * x, top_lo, lo);
          P::store_n(bot + 2 * x, bot_lo, lo);
          if (n > kW) {
            P::store_n(top + 2 * x + kW, top_hi, n - kW);
            P::store_n(bot + 2 * x + kW, bot_hi, n - kW);
          }
        }
      }
    }
    if (in_h % 2 != 0 || in_w % 2 != 0) zero_unread(planes, in_h, in_w, dx);
  }

  /// +0.0 into the ragged last row and column, which no window reads.
  static void zero_unread(std::size_t planes, std::size_t in_h,
                          std::size_t in_w, float* dx) noexcept {
    const std::size_t used_h = in_h - in_h % 2;
    for (std::size_t p = 0; p < planes; ++p) {
      float* plane = dx + p * in_h * in_w;
      if (in_w % 2 != 0) {
        for (std::size_t y = 0; y < used_h; ++y) {
          plane[y * in_w + in_w - 1] = 0.0f;
        }
      }
      for (std::size_t i = used_h * in_w; i < in_h * in_w; ++i) {
        plane[i] = 0.0f;
      }
    }
  }

  static void backward(const float* dy, const std::uint8_t* taps,
                       const float* pooled, std::size_t planes,
                       std::size_t in_h, std::size_t in_w,
                       float* dx) noexcept {
    if (pooled != nullptr) {
      backward_rows<true>(dy, taps, pooled, planes, in_h, in_w, dx);
    } else {
      backward_rows<false>(dy, taps, nullptr, planes, in_h, in_w, dx);
    }
  }
};

}  // namespace middlefl::tensor::detail
