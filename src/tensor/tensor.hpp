// Dense row-major float tensor.
//
// Design notes. The FL stack needs exactly one storage kind: owning,
// contiguous, float32 — models are aggregated as flat vectors and layers
// address their activations by computed offsets. We therefore skip strided
// views and broadcasting machinery; reshape is O(1) because data is always
// contiguous. Bounds checks live in the rare indexed accessors; hot loops
// use spans.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "parallel/rng.hpp"
#include "tensor/shape.hpp"

namespace middlefl::tensor {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)), data_(shape_.numel(), 0.0f) {}

  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  /// I.i.d. N(0, stddev^2) entries from the given generator.
  static Tensor randn(Shape shape, parallel::Xoshiro256& rng,
                      float stddev = 1.0f);
  /// I.i.d. U[lo, hi) entries.
  static Tensor rand_uniform(Shape shape, parallel::Xoshiro256& rng,
                             float lo = 0.0f, float hi = 1.0f);

  const Shape& shape() const noexcept { return shape_; }
  std::size_t numel() const noexcept { return data_.size(); }
  std::size_t rank() const noexcept { return shape_.rank(); }
  std::size_t dim(std::size_t axis) const { return shape_.dim(axis); }

  std::span<float> data() noexcept { return data_; }
  std::span<const float> data() const noexcept { return data_; }

  float& operator[](std::size_t flat_index) { return data_[flat_index]; }
  float operator[](std::size_t flat_index) const { return data_[flat_index]; }

  /// Bounds-checked element access (use in tests / cold paths only).
  float& at(std::initializer_list<std::size_t> index);
  float at(std::initializer_list<std::size_t> index) const;

  /// O(1); `new_shape.numel()` must equal numel().
  Tensor& reshape(Shape new_shape);

  /// Reshapes to `shape` and zero-fills, reusing the existing allocation
  /// when capacity allows. Layers call this every forward/backward, so the
  /// activation buffers of a model reach a high-water mark once and stop
  /// heap-allocating. The shape is only copied when it actually changed —
  /// Shape owns a dims vector, so an unconditional assignment would be a
  /// heap allocation per layer call in the training loop.
  Tensor& reset(const Shape& shape) {
    if (shape_ != shape) shape_ = shape;
    data_.assign(shape_.numel(), 0.0f);
    return *this;
  }

  /// reset() without constructing a temporary Shape: compares the dims
  /// in place, so the steady-state case (same extents every step) touches
  /// no shape storage at all.
  Tensor& reset(std::initializer_list<std::size_t> dims) {
    if (!std::equal(dims.begin(), dims.end(), shape_.dims().begin(),
                    shape_.dims().end())) {
      shape_ = Shape(dims);
    }
    data_.assign(shape_.numel(), 0.0f);
    return *this;
  }

  /// reset() minus the zero-fill, for callers that overwrite every element
  /// before reading any (GEMM outputs with beta == 0, elementwise forward
  /// outputs). Contents beyond the previous size are zero; the rest is the
  /// previous data. NOT for accumulation targets unless the caller zeroes
  /// them itself.
  Tensor& reset_for_overwrite(const Shape& shape) {
    if (shape_ != shape) shape_ = shape;
    data_.resize(shape_.numel());
    return *this;
  }

  Tensor& reset_for_overwrite(std::initializer_list<std::size_t> dims) {
    if (!std::equal(dims.begin(), dims.end(), shape_.dims().begin(),
                    shape_.dims().end())) {
      shape_ = Shape(dims);
    }
    data_.resize(shape_.numel());
    return *this;
  }

  void fill(float value) noexcept;

  // Elementwise in-place arithmetic; shapes must match exactly.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);  // Hadamard
  Tensor& operator*=(float scalar) noexcept;
  Tensor& operator+=(float scalar) noexcept;

  /// this += alpha * other.
  Tensor& axpy(float alpha, const Tensor& other);

  float sum() const noexcept;
  float max() const noexcept;  // requires numel() > 0
  /// Index of the maximum element (first on ties); requires numel() > 0.
  std::size_t argmax() const noexcept;
  /// Euclidean norm.
  float norm() const noexcept;

 private:
  std::size_t flat_offset(std::initializer_list<std::size_t> index) const;

  Shape shape_;
  std::vector<float> data_;
};

/// Out-of-place helpers (shape-checked).
Tensor operator+(Tensor lhs, const Tensor& rhs);
Tensor operator-(Tensor lhs, const Tensor& rhs);
Tensor operator*(Tensor lhs, float scalar);

}  // namespace middlefl::tensor
