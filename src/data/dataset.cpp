#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace middlefl::data {

Dataset::Dataset(Shape sample_shape, std::size_t num_classes)
    : sample_shape_(std::move(sample_shape)),
      sample_numel_(sample_shape_.numel()),
      num_classes_(num_classes) {
  if (num_classes_ < 2) {
    throw std::invalid_argument("Dataset: need at least 2 classes");
  }
}

void Dataset::add(std::span<const float> features, std::int32_t label) {
  if (features.size() != sample_numel_) {
    throw std::invalid_argument("Dataset::add: feature size " +
                                std::to_string(features.size()) +
                                " != sample numel " +
                                std::to_string(sample_numel_));
  }
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
    throw std::out_of_range("Dataset::add: label " + std::to_string(label) +
                            " out of range");
  }
  features_.insert(features_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

void Dataset::reserve(std::size_t n) {
  features_.reserve(features_.size() + n * sample_numel_);
  labels_.reserve(labels_.size() + n);
}

std::span<const float> Dataset::features(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("Dataset::features: bad index");
  return std::span<const float>(features_).subspan(i * sample_numel_,
                                                   sample_numel_);
}

Tensor Dataset::gather(std::span<const std::size_t> indices) const {
  if (indices.empty()) {
    throw std::invalid_argument("Dataset::gather: empty index list");
  }
  std::vector<std::size_t> dims{indices.size()};
  for (std::size_t d : sample_shape_.dims()) dims.push_back(d);
  Tensor batch(Shape(std::move(dims)));
  float* out = batch.data().data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto sample = features(indices[i]);
    std::copy(sample.begin(), sample.end(), out + i * sample_numel_);
  }
  return batch;
}

std::vector<std::int32_t> Dataset::gather_labels(
    std::span<const std::size_t> indices) const {
  std::vector<std::int32_t> out;
  out.reserve(indices.size());
  for (std::size_t i : indices) out.push_back(label(i));
  return out;
}

namespace {

/// Reshapes `out` to [batch, sample_shape...] reusing its buffer; the
/// Shape temporary is only constructed when the extents actually changed,
/// so the steady-state path (same batch size every local step) does not
/// allocate.
void reset_batch_shape(Tensor& out, std::size_t batch,
                       const Shape& sample_shape) {
  const auto& sdims = sample_shape.dims();
  const auto& odims = out.shape().dims();
  const bool same = odims.size() == sdims.size() + 1 && odims[0] == batch &&
                    std::equal(sdims.begin(), sdims.end(), odims.begin() + 1);
  if (!same) {
    std::vector<std::size_t> dims{batch};
    for (std::size_t d : sdims) dims.push_back(d);
    out.reset_for_overwrite(Shape(std::move(dims)));
  }
}

}  // namespace

void Dataset::gather_into(std::span<const std::size_t> indices,
                          Tensor& out) const {
  if (indices.empty()) {
    throw std::invalid_argument("Dataset::gather_into: empty index list");
  }
  reset_batch_shape(out, indices.size(), sample_shape_);
  float* dst = out.data().data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto sample = features(indices[i]);
    std::copy(sample.begin(), sample.end(), dst + i * sample_numel_);
  }
}

void Dataset::gather_labels_into(std::span<const std::size_t> indices,
                                 std::vector<std::int32_t>& out) const {
  out.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) out[i] = label(indices[i]);
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(num_classes_, 0);
  for (std::int32_t l : labels_) ++hist[static_cast<std::size_t>(l)];
  return hist;
}

std::vector<std::size_t> Dataset::indices_of_class(std::int32_t label) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) out.push_back(i);
  }
  return out;
}

DataView::DataView(const Dataset* base, std::vector<std::size_t> indices)
    : base_(base), indices_(std::move(indices)), count_(indices_.size()) {
  if (base_ == nullptr) {
    throw std::invalid_argument("DataView: null base dataset");
  }
  for (std::size_t i : indices_) {
    if (i >= base_->size()) {
      throw std::out_of_range("DataView: index " + std::to_string(i) +
                              " exceeds dataset size " +
                              std::to_string(base_->size()));
    }
  }
}

DataView DataView::all(const Dataset& base) {
  std::vector<std::size_t> indices(base.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return DataView(&base, std::move(indices));
}

DataView DataView::window(const Dataset& base, std::size_t first,
                          std::size_t count) {
  if (base.size() == 0) {
    throw std::invalid_argument("DataView::window: empty base dataset");
  }
  if (first >= base.size()) {
    throw std::out_of_range("DataView::window: first index " +
                            std::to_string(first) + " exceeds dataset size " +
                            std::to_string(base.size()));
  }
  DataView view;
  view.base_ = &base;
  view.first_ = first;
  view.count_ = count;
  view.windowed_ = true;
  return view;
}

DataView DataView::borrow(const Dataset& base,
                          std::span<const std::size_t> indices) {
  DataView view;
  view.base_ = &base;
  view.borrowed_ = indices.data();
  view.count_ = indices.size();
  return view;
}

std::span<const std::size_t> DataView::indices() const {
  if (windowed_) {
    throw std::logic_error(
        "DataView::indices: window views have no index list");
  }
  return {list(), count_};
}

Tensor DataView::gather(std::span<const std::size_t> positions) const {
  std::vector<std::size_t> base_indices;
  base_indices.reserve(positions.size());
  for (std::size_t p : positions) {
    if (p >= size()) throw std::out_of_range("DataView::gather: bad position");
    base_indices.push_back(base_index(p));
  }
  return base_->gather(base_indices);
}

std::vector<std::int32_t> DataView::gather_labels(
    std::span<const std::size_t> positions) const {
  std::vector<std::int32_t> out;
  out.reserve(positions.size());
  for (std::size_t p : positions) {
    if (p >= size()) {
      throw std::out_of_range("DataView::gather_labels: bad position");
    }
    out.push_back(base_->label(base_index(p)));
  }
  return out;
}

void DataView::gather_into(std::span<const std::size_t> positions,
                           Tensor& out) const {
  if (positions.empty()) {
    throw std::invalid_argument("DataView::gather_into: empty position list");
  }
  reset_batch_shape(out, positions.size(), base_->sample_shape());
  const std::size_t sample_numel = base_->sample_shape().numel();
  float* dst = out.data().data();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] >= size()) {
      throw std::out_of_range("DataView::gather_into: bad position");
    }
    const auto sample = base_->features(base_index(positions[i]));
    std::copy(sample.begin(), sample.end(), dst + i * sample_numel);
  }
}

void DataView::gather_labels_into(std::span<const std::size_t> positions,
                                  std::vector<std::int32_t>& out) const {
  out.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] >= size()) {
      throw std::out_of_range("DataView::gather_labels_into: bad position");
    }
    out[i] = base_->label(base_index(positions[i]));
  }
}

Tensor DataView::all_features() const {
  if (!windowed_) return base_->gather(indices());
  std::vector<std::size_t> base_indices(count_);
  for (std::size_t i = 0; i < count_; ++i) base_indices[i] = base_index(i);
  return base_->gather(base_indices);
}

std::vector<std::int32_t> DataView::all_labels() const {
  if (!windowed_) return base_->gather_labels(indices());
  std::vector<std::int32_t> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(base_->label(base_index(i)));
  }
  return out;
}

std::vector<std::size_t> DataView::class_histogram() const {
  std::vector<std::size_t> hist(base_->num_classes(), 0);
  for (std::size_t i = 0; i < size(); ++i) {
    ++hist[static_cast<std::size_t>(base_->label(base_index(i)))];
  }
  return hist;
}

}  // namespace middlefl::data
