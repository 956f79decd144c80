// In-memory labeled dataset and lightweight index views.
//
// A Dataset owns a contiguous feature block ([n, sample_shape] row-major)
// plus one int32 label per sample. Federated partitions are DataViews —
// index lists over a shared Dataset — so 100 devices share one feature
// block instead of copying slices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace middlefl::data {

using tensor::Shape;
using tensor::Tensor;

class Dataset {
 public:
  Dataset(Shape sample_shape, std::size_t num_classes);

  /// Appends one sample; `features.size()` must equal sample_shape().numel()
  /// and `label` must be in [0, num_classes).
  void add(std::span<const float> features, std::int32_t label);

  /// Pre-allocates space for `n` additional samples.
  void reserve(std::size_t n);

  std::size_t size() const noexcept { return labels_.size(); }
  const Shape& sample_shape() const noexcept { return sample_shape_; }
  std::size_t num_classes() const noexcept { return num_classes_; }

  std::span<const float> features(std::size_t i) const;
  std::int32_t label(std::size_t i) const { return labels_.at(i); }
  std::span<const std::int32_t> labels() const noexcept { return labels_; }

  /// Gathers the given samples into a batched tensor
  /// [indices.size(), sample_shape...].
  Tensor gather(std::span<const std::size_t> indices) const;
  std::vector<std::int32_t> gather_labels(
      std::span<const std::size_t> indices) const;

  /// Allocation-free gather variants: `out` is reshaped (reusing its
  /// buffer) and overwritten. Same element layout/values as gather().
  void gather_into(std::span<const std::size_t> indices, Tensor& out) const;
  void gather_labels_into(std::span<const std::size_t> indices,
                          std::vector<std::int32_t>& out) const;

  /// Per-class sample counts.
  std::vector<std::size_t> class_histogram() const;
  /// Indices of all samples with the given label.
  std::vector<std::size_t> indices_of_class(std::int32_t label) const;

 private:
  Shape sample_shape_;
  std::size_t sample_numel_;
  std::size_t num_classes_;
  std::vector<float> features_;
  std::vector<std::int32_t> labels_;
};

/// Non-owning subset of a Dataset. The base must outlive the view.
///
/// Two layouts share the interface:
///   list    — an explicit index list (the general federated partition),
///             either owned by the view (O(size) storage per view) or
///             borrowed from its owner (see borrow()).
///   window  — `count` consecutive samples starting at `first`, wrapping
///             around the end of the base (O(1) storage per view). This is
///             what lets a million-device fleet share one dataset without
///             a million index vectors; see partition_fleet_window().
class DataView {
 public:
  DataView() = default;
  DataView(const Dataset* base, std::vector<std::size_t> indices);

  /// View covering the whole dataset.
  static DataView all(const Dataset& base);
  /// O(1) wraparound window view (see class comment). `count` may exceed
  /// base.size(): positions revisit samples modulo the base.
  static DataView window(const Dataset& base, std::size_t first,
                         std::size_t count);
  /// List view over `indices` without copying them: the list must outlive
  /// the view, and its entries are not range-checked here (the owner
  /// checks them once). The DeviceRegistry hands these out per call.
  static DataView borrow(const Dataset& base,
                         std::span<const std::size_t> indices);

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }
  const Dataset& base() const { return *base_; }
  /// The explicit index list; throws std::logic_error for window views
  /// (they have no materialized list — use base_index()).
  std::span<const std::size_t> indices() const;
  /// Base-dataset index behind view position `i`.
  std::size_t base_index(std::size_t i) const {
    return windowed_ ? (first_ + i) % base_->size() : list()[i];
  }

  std::span<const float> features(std::size_t i) const {
    return base_->features(base_index(i));
  }
  std::int32_t label(std::size_t i) const {
    return base_->label(base_index(i));
  }

  /// Gathers view-relative positions into a batch tensor.
  Tensor gather(std::span<const std::size_t> positions) const;
  std::vector<std::int32_t> gather_labels(
      std::span<const std::size_t> positions) const;

  /// Allocation-free gather variants (see Dataset::gather_into).
  void gather_into(std::span<const std::size_t> positions, Tensor& out) const;
  void gather_labels_into(std::span<const std::size_t> positions,
                          std::vector<std::int32_t>& out) const;

  /// Materializes the whole view as one batch (used for evaluation sets).
  Tensor all_features() const;
  std::vector<std::int32_t> all_labels() const;

  std::vector<std::size_t> class_histogram() const;

 private:
  /// The list layout's entries: borrowed_ when set, else the owned list.
  const std::size_t* list() const noexcept {
    return borrowed_ != nullptr ? borrowed_ : indices_.data();
  }

  const Dataset* base_ = nullptr;
  /// Owned list layout; empty for window and borrowed views.
  std::vector<std::size_t> indices_;
  const std::size_t* borrowed_ = nullptr;
  std::size_t first_ = 0;  // window layout only
  std::size_t count_ = 0;  // the view's size, every layout
  bool windowed_ = false;
};

}  // namespace middlefl::data
