// Thread-local scratch-buffer arena for hot-path kernels.
//
// The step loop used to heap-allocate on every call in several places:
// gemm's transposed B panel, Conv2d's column-gradient panel, the on-device
// blend output, and comm::all_reduce's double accumulator. Each of those
// sites now borrows a slot from the calling thread's Workspace instead —
// buffers grow to a high-water mark on first use and are reused for the
// rest of the thread's life, so steady-state step execution performs no
// allocations in these kernels.
//
// Rules:
//  - A slot is NOT re-entrant: a kernel must finish with its slot before
//    any function it calls borrows the same slot. Slots are assigned so the
//    call graph never nests a slot inside itself (gemm's B panel never
//    calls gemm, the blend buffer is consumed before training runs, ...).
//  - Spans returned by floats()/doubles() are invalidated by the next
//    borrow of the SAME slot on the same thread; borrowing other slots is
//    safe.
//  - Everything is thread-local: parallel workers each get their own
//    arena, so borrowing needs no synchronization.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace middlefl::tensor {

/// Float scratch slots, one per non-overlapping hot-path use.
enum class WsSlot : std::size_t {
  kConvPanel = 0,  // Conv2d::backward: one sample's d(col) panel
  kConvBorder,     // Conv2d inference forward/col2im: bordered plane
  kBlend,          // Simulation: on-device blended model w_hat
  kScratch,        // generic caller-owned scratch (benches, cloud sync)
  kCount,
};

/// Double scratch slots (reduction accumulators).
enum class WsDoubleSlot : std::size_t {
  kAccumulate = 0,  // comm::all_reduce: per-element accumulator
  kPartials,        // chunked dot/nrm2: per-chunk partial sums
  kCount,
};

/// 64-byte-aligned float slots for the GEMM's B panels (cache-line/
/// vector-register aligned loads on every ISA tier).
enum class WsAlignedSlot : std::size_t {
  kGemmPanelB = 0,  // a transposed op(B), rows padded to whole vectors
                    // (zeros), or the rows the small-NT kernel reads
  kCount,
};

/// Index scratch slots (std::size_t).
enum class WsIndexSlot : std::size_t {
  kMinibatchPositions = 0,  // sample_minibatch_into: drawn sample positions
  kCount,
};

/// Fixed-capacity-free buffer of 64-byte-aligned floats; grows like the
/// vector slots but with over-aligned storage (plain std::vector only
/// guarantees alignof(float)).
class AlignedFloatBuffer {
 public:
  AlignedFloatBuffer() = default;
  AlignedFloatBuffer(const AlignedFloatBuffer&) = delete;
  AlignedFloatBuffer& operator=(const AlignedFloatBuffer&) = delete;
  ~AlignedFloatBuffer() { release(); }

  /// Grows to at least `n` floats (contents unspecified after growth).
  float* ensure(std::size_t n) {
    if (n > capacity_) grow(n);
    return data_;
  }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  void grow(std::size_t n);
  void release() noexcept;

  float* data_ = nullptr;
  std::size_t capacity_ = 0;
};

class Workspace {
 public:
  /// The calling thread's arena (created on first use).
  static Workspace& tls();

  /// Borrows the first `n` floats of `slot`, growing it if needed. The
  /// contents are unspecified (callers overwrite or zero as needed).
  std::span<float> floats(WsSlot slot, std::size_t n) {
    auto& buf = float_slots_[static_cast<std::size_t>(slot)];
    if (buf.size() < n) buf.resize(n);
    return {buf.data(), n};
  }

  std::span<double> doubles(WsDoubleSlot slot, std::size_t n) {
    auto& buf = double_slots_[static_cast<std::size_t>(slot)];
    if (buf.size() < n) buf.resize(n);
    return {buf.data(), n};
  }

  /// Borrows `n` 64-byte-aligned floats (contents unspecified).
  std::span<float> aligned_floats(WsAlignedSlot slot, std::size_t n) {
    auto& buf = aligned_slots_[static_cast<std::size_t>(slot)];
    return {buf.ensure(n), n};
  }

  /// Borrows `n` size_t entries (contents unspecified).
  std::span<std::size_t> indices(WsIndexSlot slot, std::size_t n) {
    auto& buf = index_slots_[static_cast<std::size_t>(slot)];
    if (buf.size() < n) buf.resize(n);
    return {buf.data(), n};
  }

  /// Total bytes currently retained across all slots (introspection).
  std::size_t retained_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& buf : float_slots_) total += buf.capacity() * sizeof(float);
    for (const auto& buf : double_slots_) {
      total += buf.capacity() * sizeof(double);
    }
    for (const auto& buf : aligned_slots_) {
      total += buf.capacity() * sizeof(float);
    }
    for (const auto& buf : index_slots_) {
      total += buf.capacity() * sizeof(std::size_t);
    }
    return total;
  }

 private:
  std::array<std::vector<float>, static_cast<std::size_t>(WsSlot::kCount)>
      float_slots_;
  std::array<std::vector<double>,
             static_cast<std::size_t>(WsDoubleSlot::kCount)>
      double_slots_;
  std::array<AlignedFloatBuffer,
             static_cast<std::size_t>(WsAlignedSlot::kCount)>
      aligned_slots_;
  std::array<std::vector<std::size_t>,
             static_cast<std::size_t>(WsIndexSlot::kCount)>
      index_slots_;
};

}  // namespace middlefl::tensor
